"""Synthetic multi-site volumetric segmentation datasets.

Each site is described by a :class:`SiteProfile` whose fields span the
heterogeneity axes we care about: voxel spacing, intensity statistics,
per-class prevalence, lesion size scale, and annotation fragmentation
(few large connected components vs many small ones, mirroring manual vs
automatically pre-processed annotation pipelines).

Generation is fully deterministic: every sample derives its own RNG from
``(profile.seed, sample index)``, so datasets are bit-identical across
processes and machines and generation can be parallelized per sample.

Voxel classes: 0 = background, 1 = consolidation, 2 = ground-glass opacity,
3 = pleural effusion. Class 3 plays the rare-class role in stratified
splitting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .seeding import derive_seed, rng_from

CLASS_BACKGROUND = 0
CLASS_CONS = 1
CLASS_GGO = 2
CLASS_PE = 3
LESION_CLASSES = (CLASS_CONS, CLASS_GGO, CLASS_PE)
N_CLASSES = 4

# Additive intensity of each lesion class over the site background level
# (HU-like units). Shared across sites so a pooled model can exploit a
# globally consistent intensity signature.
CLASS_INTENSITY_OFFSET = {CLASS_CONS: 500.0, CLASS_GGO: 250.0, CLASS_PE: 700.0}

# Fixed bin edges for intensity histograms so per-site histograms are
# directly comparable.
HISTOGRAM_EDGES = np.linspace(-1024.0, 1024.0, 65)

# 26-connectivity structuring element for component analysis.
_STRUCT_26 = np.ones((3, 3, 3), dtype=bool)

MIN_GRID_DIM = 8


class CcRegime(str, enum.Enum):
    """Annotation fragmentation regime of a site."""

    FEW_LARGE = "few_large"
    MANY_SMALL = "many_small"


class Provenance(str, enum.Enum):
    MANUAL = "manual"
    AUTO_PREPROCESSED = "auto_preprocessed"


# Fragmentation regime is the synthetic stand-in for the annotation pipeline.
_REGIME_PROVENANCE = {
    CcRegime.FEW_LARGE: Provenance.MANUAL,
    CcRegime.MANY_SMALL: Provenance.AUTO_PREPROCESSED,
}


@dataclass(frozen=True)
class Volume:
    """A 3-D intensity grid with physical voxel spacing in mm."""

    id: str
    intensities: np.ndarray  # (D, H, W) float32
    spacing: tuple[float, float, float]

    @property
    def voxel_volume_mm3(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]


@dataclass(frozen=True)
class LabelMask:
    """Per-voxel class labels paired with a volume via a shared id."""

    id: str
    labels: np.ndarray  # (D, H, W) uint8


@dataclass(frozen=True)
class Sample:
    sample_id: str
    volume: Volume
    mask: LabelMask
    site_id: str
    annotation_provenance: Provenance


@dataclass(frozen=True)
class SiteProfile:
    """Generator parameters for one synthetic site."""

    site_id: str
    n_samples: int
    grid_dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    intensity_mean: float
    intensity_std: float
    class_prevalence: tuple[float, float, float]  # classes 1, 2, 3
    lesion_volume_scale: float
    cc_count_regime: CcRegime
    seed: int

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "n_samples": self.n_samples,
            "grid_dims": list(self.grid_dims),
            "spacing": list(self.spacing),
            "intensity_mean": self.intensity_mean,
            "intensity_std": self.intensity_std,
            "class_prevalence": list(self.class_prevalence),
            "lesion_volume_scale": self.lesion_volume_scale,
            "cc_count_regime": self.cc_count_regime.value,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SiteProfile":
        return cls(
            site_id=d["site_id"],
            n_samples=int(d["n_samples"]),
            grid_dims=tuple(int(v) for v in d["grid_dims"]),
            spacing=tuple(float(v) for v in d["spacing"]),
            intensity_mean=float(d["intensity_mean"]),
            intensity_std=float(d["intensity_std"]),
            class_prevalence=tuple(float(v) for v in d["class_prevalence"]),
            lesion_volume_scale=float(d["lesion_volume_scale"]),
            cc_count_regime=CcRegime(d["cc_count_regime"]),
            seed=int(d["seed"]),
        )


@dataclass
class SiteDataset:
    site_id: str
    train: list[Sample] = field(default_factory=list)
    test: list[Sample] = field(default_factory=list)

    @property
    def samples(self) -> list[Sample]:
        return list(self.train) + list(self.test)


@dataclass(frozen=True)
class Component:
    """One connected component of an annotation class."""

    voxel_count: int
    volume_ml: float


@dataclass
class DataCharacteristics:
    """Descriptive statistics of one site dataset (volumes + annotations)."""

    site_id: str
    n_samples: int
    voxel_volume_mm3: dict[str, float]
    intensity_histogram: list[float]
    histogram_edges: list[float]
    class_sample_counts: dict[int, int]
    class_volume_ml: dict[int, dict[str, float]]
    class_cc_counts: dict[int, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "n_samples": self.n_samples,
            "voxel_volume_mm3": self.voxel_volume_mm3,
            "intensity_histogram": self.intensity_histogram,
            "histogram_edges": self.histogram_edges,
            "class_sample_counts": {str(k): v for k, v in self.class_sample_counts.items()},
            "class_volume_ml": {str(k): v for k, v in self.class_volume_ml.items()},
            "class_cc_counts": {str(k): v for k, v in self.class_cc_counts.items()},
        }


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _ellipsoid_voxels(dims, center, radii) -> np.ndarray:
    zz, yy, xx = np.ogrid[: dims[0], : dims[1], : dims[2]]
    d2 = (
        ((zz - center[0]) / radii[0]) ** 2
        + ((yy - center[1]) / radii[1]) ** 2
        + ((xx - center[2]) / radii[2]) ** 2
    )
    return d2 <= 1.0


def _dilate_26(mask: np.ndarray) -> np.ndarray:
    """Binary dilation of a boolean grid by the 3x3x3 cube; outside the grid
    counts as False. The cube is separable, so each axis in turn ORs the
    mask with its shifts by -1 and +1."""
    out = mask
    for axis in range(mask.ndim):
        src, out = out, out.copy()
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        out[hi] |= src[lo]
        out[lo] |= src[hi]
    return out


def _place_lesions(rng: np.random.Generator, labels: np.ndarray, class_id: int,
                   regime: CcRegime, scale: float) -> None:
    """Paint ``class_id`` lesions into ``labels`` as disjoint ellipsoids.

    Components of the same class are kept 26-disconnected from each other
    and never overwrite other classes; rejected placements are retried.
    """
    dims = labels.shape
    if regime is CcRegime.FEW_LARGE:
        target = int(rng.integers(1, 4))
        r_lo, r_hi = 2.0, 3.2
    else:
        target = int(rng.integers(5, 21))
        r_lo, r_hi = 1.0, 1.5

    placed = 0
    for _ in range(target):
        for _attempt in range(200):
            radii = np.maximum(rng.uniform(r_lo, r_hi, size=3) * scale, 0.5)
            center = np.array([rng.uniform(1.0, d - 2.0) for d in dims])
            cand = _ellipsoid_voxels(dims, center, radii)
            if not cand.any():
                continue
            if labels[cand].any():
                continue  # would overwrite an existing label
            near = _dilate_26(cand)
            if (labels[near] == class_id).any():
                continue  # would 26-merge with an existing component
            labels[cand] = class_id
            placed += 1
            break
    if placed == 0:
        # Presence was already decided; fall back to a single free voxel.
        free = np.argwhere(labels == 0)
        pick = free[int(rng.integers(0, len(free)))]
        labels[tuple(pick)] = class_id


def generate_sample(profile: SiteProfile, index: int) -> Sample:
    """Generate sample ``index`` of a site, deterministically from the profile seed."""
    dims = profile.grid_dims
    if any(d < MIN_GRID_DIM for d in dims):
        raise ValueError(f"grid_dims {dims} too small: lesion placement needs >= {MIN_GRID_DIM}")
    rng = rng_from(profile.seed, "sample", index)
    sample_id = f"{profile.site_id}-{index:04d}"

    present = [c for c, p in zip(LESION_CLASSES, profile.class_prevalence)
               if rng.random() < p]
    base = rng.normal(profile.intensity_mean, profile.intensity_std, size=dims)
    labels = np.zeros(dims, dtype=np.uint8)
    for class_id in present:
        _place_lesions(rng, labels, class_id, profile.cc_count_regime,
                       profile.lesion_volume_scale)
    for class_id in LESION_CLASSES:
        sel = labels == class_id
        if sel.any():
            base[sel] += CLASS_INTENSITY_OFFSET[class_id]

    volume = Volume(id=sample_id, intensities=base.astype(np.float32),
                    spacing=profile.spacing)
    mask = LabelMask(id=sample_id, labels=labels)
    return Sample(sample_id=sample_id, volume=volume, mask=mask,
                  site_id=profile.site_id,
                  annotation_provenance=_REGIME_PROVENANCE[profile.cc_count_regime])


def split(samples: Sequence[Sample], test_fraction: float, stratify_class: int,
          seed: int) -> tuple[list[Sample], list[Sample]]:
    """Partition samples into (train, test) with a stratified test fraction.

    The subset containing ``stratify_class`` and its complement are split
    independently so the test set carries round_half_up(fraction * count)
    of the stratum; totals are balanced to round_half_up(fraction * n).
    """
    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")

    ordered = sorted(samples, key=lambda s: s.sample_id)
    has = [s for s in ordered if (s.mask.labels == stratify_class).any()]
    lacks = [s for s in ordered if not (s.mask.labels == stratify_class).any()]

    k_total = _round_half_up(test_fraction * n)
    k_strat = _round_half_up(test_fraction * len(has))
    k_comp = k_total - k_strat
    if k_comp < 0:
        k_strat += k_comp
        k_comp = 0
    if k_comp > len(lacks):
        k_strat += k_comp - len(lacks)
        k_comp = len(lacks)
    k_strat = min(max(k_strat, 0), len(has))

    rng = rng_from(seed, "split")
    test_ids: set[str] = set()
    for pool, k in ((has, k_strat), (lacks, k_comp)):
        if pool:
            order = rng.permutation(len(pool))
            test_ids.update(pool[i].sample_id for i in order[:k])

    train = [s for s in ordered if s.sample_id not in test_ids]
    test = [s for s in ordered if s.sample_id in test_ids]
    return train, test


def generate_site_dataset(profile: SiteProfile, test_fraction: float = 0.2,
                          stratify_class: int = CLASS_PE) -> SiteDataset:
    """Generate all samples of a site and split them 80/20 (stratified on PE)."""
    samples = [generate_sample(profile, i) for i in range(profile.n_samples)]
    train, test = split(samples, test_fraction, stratify_class,
                        derive_seed(profile.seed, "split", profile.site_id))
    return SiteDataset(site_id=profile.site_id, train=train, test=test)


def connected_components(mask: LabelMask, class_id: int,
                         spacing: tuple[float, float, float] | None = None) -> list[Component]:
    """26-connected components of one class, with voxel counts and volumes in ml.

    ``spacing`` defaults to 1 mm isotropic when the mask is used standalone.
    """
    if class_id not in LESION_CLASSES:
        raise ValueError(f"class_id must be one of {LESION_CLASSES}, got {class_id}")
    sp = spacing if spacing is not None else (1.0, 1.0, 1.0)
    voxel_ml = (sp[0] * sp[1] * sp[2]) / 1000.0
    from scipy import ndimage  # on first use: only characterization labels components

    labeled, n = ndimage.label(mask.labels == class_id, structure=_STRUCT_26)
    out = []
    if n:
        counts = np.bincount(labeled.ravel())[1:]
        out = [Component(voxel_count=int(c), volume_ml=int(c) * voxel_ml) for c in counts]
    return out


def _summary(values: Sequence[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
    }


def site_statistics(dataset: SiteDataset) -> DataCharacteristics:
    """Descriptive statistics of one site: voxel volumes, intensity histogram,
    per-class sample counts, annotated volumes (ml), and component counts."""
    samples = dataset.samples
    if not samples:
        raise ValueError("dataset is empty")

    voxel_volumes = [s.volume.voxel_volume_mm3 for s in samples]

    all_ints = np.concatenate([s.volume.intensities.ravel() for s in samples])
    clipped = np.clip(all_ints, HISTOGRAM_EDGES[0], HISTOGRAM_EDGES[-1])
    counts, _ = np.histogram(clipped, bins=HISTOGRAM_EDGES)
    hist = (counts / counts.sum()).tolist()

    class_sample_counts: dict[int, int] = {}
    class_volumes: dict[int, list[float]] = {c: [] for c in LESION_CLASSES}
    class_ccs: dict[int, list[int]] = {c: [] for c in LESION_CLASSES}
    for s in samples:
        for c in LESION_CLASSES:
            comps = connected_components(s.mask, c, s.volume.spacing)
            if comps:
                class_sample_counts[c] = class_sample_counts.get(c, 0) + 1
                class_volumes[c].append(sum(comp.volume_ml for comp in comps))
                class_ccs[c].append(len(comps))

    return DataCharacteristics(
        site_id=dataset.site_id,
        n_samples=len(samples),
        voxel_volume_mm3=_summary(voxel_volumes),
        intensity_histogram=hist,
        histogram_edges=HISTOGRAM_EDGES.tolist(),
        class_sample_counts={c: class_sample_counts.get(c, 0) for c in LESION_CLASSES},
        class_volume_ml={c: (_summary(v) if v else {}) for c, v in class_volumes.items()},
        class_cc_counts={c: (_summary(v) if v else {}) for c, v in class_ccs.items()},
    )
