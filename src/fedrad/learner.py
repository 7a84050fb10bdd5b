"""Per-voxel linear softmax segmenter over hand-crafted intensity features.

This is the desk-scale stand-in for a segmentation network: three features
per voxel (clipped+normalized raw intensity, 3x3x3 box-smoothed intensity,
gradient magnitude) plus a bias, classified into the four voxel classes by
a linear softmax. Weights live in a flat float64 vector of length
C * (F + 1) = 16 so they can be exchanged, averaged, and checkpointed as
plain arrays.

Training is plain mini-batch SGD with a constant learning rate. Every epoch
draws its batches from an RNG seeded by (train seed, site, epoch index),
which makes one federated round of local training at epoch t bit-identical
to epoch t of an uninterrupted local run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import LabelMask, N_CLASSES, Sample, Volume
from .seeding import derive_seed, rng_from

N_FEATURES = 3
WEIGHT_LEN = N_CLASSES * (N_FEATURES + 1)
_TINY = np.finfo(np.float64).tiny

WEIGHT_MAGIC = b"FRWT"
WEIGHT_VERSION = 1
_WEIGHT_HEADER = struct.Struct("<4sHII")


@dataclass(frozen=True)
class FeatureConfig:
    """Feature normalization derived from the (averaged) dataset fingerprint."""

    shift: float
    scale: float
    clip_low: float
    clip_high: float

    def to_dict(self) -> dict:
        return {"shift": self.shift, "scale": self.scale,
                "clip_low": self.clip_low, "clip_high": self.clip_high}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureConfig":
        return cls(shift=float(d["shift"]), scale=float(d["scale"]),
                   clip_low=float(d["clip_low"]), clip_high=float(d["clip_high"]))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batches_per_epoch: int = 50
    batch_size: int = 256
    learning_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batches_per_epoch <= 0 or self.batch_size <= 0:
            raise ValueError("epochs, batches_per_epoch, batch_size must be positive")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate is negative or non-finite: {self.learning_rate!r}")

    def to_dict(self) -> dict:
        return {"epochs": self.epochs, "batches_per_epoch": self.batches_per_epoch,
                "batch_size": self.batch_size, "learning_rate": self.learning_rate,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(epochs=int(d["epochs"]), batches_per_epoch=int(d["batches_per_epoch"]),
                   batch_size=int(d["batch_size"]), learning_rate=float(d["learning_rate"]),
                   seed=int(d["seed"]))


def site_train_seed(train_seed: int, site_id: str) -> int:
    """Per-site training stream seed; epoch e then uses (this, 'epoch', e)."""
    return derive_seed(train_seed, "site", site_id)


def _gradient_magnitude(x: np.ndarray) -> np.ndarray:
    # Central differences with clamped (edge-replicated) borders.
    padded = np.pad(x, 1, mode="edge")
    gz = (padded[2:, 1:-1, 1:-1] - padded[:-2, 1:-1, 1:-1]) * 0.5
    gy = (padded[1:-1, 2:, 1:-1] - padded[1:-1, :-2, 1:-1]) * 0.5
    gx = (padded[1:-1, 1:-1, 2:] - padded[1:-1, 1:-1, :-2]) * 0.5
    return np.sqrt(gz * gz + gy * gy + gx * gx)


def extract_features(volume: Volume, config: FeatureConfig) -> np.ndarray:
    """Per-voxel feature grid of shape (D, H, W, F + 1), float64.

    Features: normalized clipped intensity, normalized 3^3 box-smoothed
    intensity, scaled gradient magnitude, constant bias 1.
    """
    from scipy import ndimage  # on first use: most fedrad stages extract no features

    if not (np.isfinite(config.shift) and np.isfinite(config.scale) and config.scale > 0):
        raise ValueError(f"invalid feature normalization: {config}")
    x = np.asarray(volume.intensities, dtype=np.float64)
    x = np.clip(x, config.clip_low, config.clip_high)
    feats = np.empty(x.shape + (N_FEATURES + 1,), dtype=np.float64)
    feats[..., 0] = (x - config.shift) / config.scale
    feats[..., 1] = (ndimage.uniform_filter(x, size=3, mode="nearest") - config.shift) / config.scale
    feats[..., 2] = _gradient_magnitude(x) / config.scale
    feats[..., 3] = 1.0
    return feats


def _check_weights(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (WEIGHT_LEN,):
        raise ValueError(f"weight vector must have shape ({WEIGHT_LEN},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weight vector contains non-finite entries")
    return w


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis of ``logits``, in place.

    The row max and row sum are built column by column. For a few classes,
    elementwise operations cost far less than an ``axis=-1`` reduction. The
    columns are added left to right, the order in which numpy sums a row
    this short, so the result is bit-identical to ``max``/``sum(axis=-1)``
    (pinned against that reference in the tests).
    """
    row = np.maximum(logits[..., 0], logits[..., 1])
    for k in range(2, N_CLASSES):
        np.maximum(row, logits[..., k], out=row)
    logits -= row[..., None]
    np.exp(logits, out=logits)
    np.add(logits[..., 0], logits[..., 1], out=row)
    for k in range(2, N_CLASSES):
        row += logits[..., k]
    logits /= row[..., None]
    return logits


def forward(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities; output shape = features.shape[:-1] + (C,)."""
    w = _check_weights(w)
    wm = w.reshape(N_CLASSES, N_FEATURES + 1)
    return _softmax(features @ wm.T)


def loss_and_grad(w: np.ndarray, features: np.ndarray,
                  labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient in weight layout.

    ``features`` is (n, F + 1), ``labels`` is (n,) with values in 0..C-1.
    """
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("batch must be a non-empty (n, F+1) matrix")
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= N_CLASSES:
        raise ValueError("labels out of range")
    n = features.shape[0]
    probs = forward(w, features)
    rows = np.arange(n)
    p_true = probs[rows, labels]
    # the sum over n is np.mean's own arithmetic, without its dispatch cost
    loss = float(-(np.log(p_true + _TINY).sum() / n))
    probs[rows, labels] = p_true - 1.0
    grad = (probs.T @ features) / n
    return loss, grad.reshape(WEIGHT_LEN)


def train_epochs(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, start_epoch: int = 1) -> np.ndarray:
    """Run ``config.epochs`` epochs of mini-batch SGD and return new weights.

    Epoch e (global index ``start_epoch + e``) draws its batches from an RNG
    seeded by (config.seed, "epoch", global index); in federated mode the
    caller passes the round index as ``start_epoch`` with epochs=1 so that a
    round's delta equals one epoch of the equivalent local run.

    An epoch's batch indices come from one draw of shape (batches, batch
    size); the generator yields the same stream as one draw per batch.
    Weights that become non-finite raise ``ValueError``.
    """
    w = _check_weights(w)
    if features.shape[0] == 0:
        raise ValueError("empty training set")
    n = features.shape[0]
    for e in range(start_epoch, start_epoch + config.epochs):
        rng = rng_from(config.seed, "epoch", e)
        batches = rng.integers(0, n, size=(config.batches_per_epoch, config.batch_size))
        for idx in batches:
            _, grad = loss_and_grad(w, features.take(idx, axis=0), labels.take(idx))
            w = w - config.learning_rate * grad
    return _check_weights(w)


def build_training_matrix(samples: Sequence[Sample],
                          config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-voxel features and labels over samples (sorted by id)."""
    ordered = sorted(samples, key=lambda s: s.sample_id)
    if not ordered:
        raise ValueError("no samples")
    feats = [extract_features(s.volume, config).reshape(-1, N_FEATURES + 1)
             for s in ordered]
    labs = [s.mask.labels.reshape(-1).astype(np.int64) for s in ordered]
    return np.concatenate(feats, axis=0), np.concatenate(labs, axis=0)


def predict_proba(w: np.ndarray, volume: Volume, config: FeatureConfig) -> np.ndarray:
    return forward(w, extract_features(volume, config))


def predict(w: np.ndarray, volume: Volume, config: FeatureConfig) -> LabelMask:
    """Argmax segmentation; ties break toward the lower class index."""
    probs = predict_proba(w, volume, config)
    return LabelMask(id=volume.id, labels=np.argmax(probs, axis=-1).astype(np.uint8))


def ensemble_predict(fields: Sequence[np.ndarray], member_weights: Sequence[float],
                     mask_id: str) -> LabelMask:
    """Argmax of the weighted average of member probability fields (each as
    :func:`predict_proba` returns it), with the same tie-break as
    :func:`predict`. ``member_weights`` are normalized by their sum.
    """
    mw = np.asarray(member_weights, dtype=np.float64)
    if len(fields) == 0 or mw.shape != (len(fields),) or mw.min() < 0 or mw.sum() <= 0:
        raise ValueError("ensemble needs at least one member and one valid weight each")
    mw = mw / mw.sum()
    acc = None
    for k, probs in enumerate(fields):
        acc = mw[k] * probs if acc is None else acc + mw[k] * probs
    return LabelMask(id=mask_id, labels=np.argmax(acc, axis=-1).astype(np.uint8))


def save_weights(path: Path, w: np.ndarray) -> None:
    w = _check_weights(w)
    with open(path, "wb") as f:
        f.write(_WEIGHT_HEADER.pack(WEIGHT_MAGIC, WEIGHT_VERSION, N_CLASSES, N_FEATURES))
        f.write(w.astype("<f8").tobytes())


def load_weights(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _WEIGHT_HEADER.size:
        raise ValueError(f"{path}: truncated weight file")
    magic, version, c, fdim = _WEIGHT_HEADER.unpack_from(raw)
    if magic != WEIGHT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != WEIGHT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if (c, fdim) != (N_CLASSES, N_FEATURES):
        raise ValueError(f"{path}: unexpected dimensions C={c}, F={fdim}")
    body = raw[_WEIGHT_HEADER.size:]
    if len(body) != WEIGHT_LEN * 8:
        raise ValueError(f"{path}: expected {WEIGHT_LEN} float64 entries")
    return np.frombuffer(body, dtype="<f8").copy()
