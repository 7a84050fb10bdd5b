"""Dataset fingerprints and the configuration-synchronization protocol.

Every site summarizes its local training data into a fingerprint; the
server combines the fingerprints into an unweighted field-by-field mean and
sends that back; from it every site derives the same feature normalization
and the same initial weights. Cross-site identity is checkable by digest
because fingerprints serialize to canonical JSON.

Sums are computed with ``math.fsum`` (correctly rounded), which makes the
averaging bit-exactly order-invariant and duplication-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import N_CLASSES
from .dataset import Sample
from .learner import FeatureConfig, WEIGHT_LEN
from .seeding import digest_of, rng_from, to_dict

STD_EPSILON = 1e-6

INIT_WEIGHT_STD = 0.01


@dataclass(frozen=True)
class DatasetFingerprint:
    n_samples: int
    intensity_mean: float
    intensity_std: float
    intensity_p005: float  # 0.5th percentile
    intensity_p995: float  # 99.5th percentile
    spacing_mean: tuple[float, float, float]
    class_voxel_freqs: tuple[float, float, float, float]

    @property
    def digest(self) -> str:
        return digest_of(to_dict(self))


def compute_fingerprint(train: Sequence[Sample]) -> DatasetFingerprint:
    """Summary statistics over all training voxels of one site."""
    if not train:
        raise ValueError("cannot fingerprint an empty training set")
    ordered = sorted(train, key=lambda s: s.sample_id)

    intensities = np.concatenate(
        [s.volume.intensities.ravel().astype(np.float64) for s in ordered])
    n = intensities.size
    total = math.fsum(intensities.tolist())
    mean = total / n
    sq = math.fsum((intensities * intensities).tolist())
    var = max(sq / n - mean * mean, 0.0)
    std = math.sqrt(var)
    # inverted_cdf percentiles depend only on the empirical CDF, so the
    # fingerprint is invariant under duplicating the dataset.
    p005, p995 = np.percentile(intensities, [0.5, 99.5], method="inverted_cdf")

    counts = np.zeros(N_CLASSES, dtype=np.int64)
    for s in ordered:
        counts += np.bincount(s.mask.labels.ravel(), minlength=N_CLASSES)[:N_CLASSES]
    total = int(counts.sum())
    freqs = tuple(float(c) / float(total) for c in counts)

    spacing = tuple(
        math.fsum(s.volume.spacing[axis] for s in ordered) / len(ordered)
        for axis in range(3)
    )
    return DatasetFingerprint(
        n_samples=len(ordered),
        intensity_mean=mean,
        intensity_std=std,
        intensity_p005=float(p005),
        intensity_p995=float(p995),
        spacing_mean=spacing,
        class_voxel_freqs=freqs,
    )


def site_fingerprint(site_id: str, train: Sequence[Sample]) -> DatasetFingerprint:
    """Site ``site_id``'s fingerprint; a site with no training samples is a
    ``ValueError`` that names it."""
    if not train:
        raise ValueError(f"site {site_id} has no training samples")
    return compute_fingerprint(train)


def average_fingerprints(fps: Sequence[DatasetFingerprint]) -> DatasetFingerprint:
    """Unweighted field-by-field mean of fingerprints; sample counts are summed."""
    if not fps:
        raise ValueError("cannot average an empty fingerprint list")
    n = len(fps)

    def mean(values) -> float:
        values = list(values)
        if all(v == values[0] for v in values):
            return values[0]  # exact idempotency on identical inputs
        return math.fsum(values) / n

    return DatasetFingerprint(
        n_samples=sum(fp.n_samples for fp in fps),
        intensity_mean=mean(fp.intensity_mean for fp in fps),
        intensity_std=mean(fp.intensity_std for fp in fps),
        intensity_p005=mean(fp.intensity_p005 for fp in fps),
        intensity_p995=mean(fp.intensity_p995 for fp in fps),
        spacing_mean=tuple(mean(fp.spacing_mean[a] for fp in fps) for a in range(3)),
        class_voxel_freqs=tuple(mean(fp.class_voxel_freqs[c] for fp in fps)
                                for c in range(N_CLASSES)),
    )


@dataclass(frozen=True)
class DerivedConfig:
    """Everything a site derives from the averaged fingerprint."""

    feature_config: FeatureConfig
    init_weights: np.ndarray


def derive_config(fp: DatasetFingerprint, experiment_seed: int) -> DerivedConfig:
    """Derive the model configuration and initialization from a fingerprint.

    Pure in (fingerprint, seed): two sites holding the same averaged
    fingerprint derive byte-identical configurations, which is the property
    the federation relies on.
    """
    feature_config = FeatureConfig(
        shift=fp.intensity_mean,
        scale=max(fp.intensity_std, STD_EPSILON),
        clip_low=fp.intensity_p005,
        clip_high=fp.intensity_p995,
    )
    rng = rng_from("model-init", fp.digest, experiment_seed)
    init = rng.normal(0.0, INIT_WEIGHT_STD, size=WEIGHT_LEN)
    return DerivedConfig(feature_config=feature_config, init_weights=init)
