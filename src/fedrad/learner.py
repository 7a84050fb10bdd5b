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

How a step runs: an epoch gathers the rows of all its batches in one
``take``, then calls :func:`loss_and_grad` once per batch. The logits are
the reference's BLAS product ``features @ W.T``; the softmax runs on a
class-major copy of them, shape (C, n), so its reductions over the classes
are single calls over contiguous rows. The true-class cells are read and
written through one flat index, and the gradient is the reference's
product with its operands swapped. Every result is bit-identical to the
straightforward row-major implementation kept in the tests as the oracle.

How a segmentation is made: :func:`forward` returns a transposed view of
the class-major probabilities, and :func:`ensemble_predict` works on that
storage as it is. It sums the weighted members class-major and picks each
voxel's class with one strict comparison per further class, so no field is
copied to bring its class axis last. The labels equal the oracle's
``np.argmax`` of the row-major sum, ties going to the lower class.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import N_CLASSES, TrainConfig
from .dataset import LabelMask, Sample, Volume
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


def site_train_seed(train_seed: int, site_id: str) -> int:
    """Per-site training stream seed; epoch e then uses (this, 'epoch', e)."""
    return derive_seed(train_seed, "site", site_id)


def _along(axis: int, start: int, stop: int) -> tuple:
    """Index of positions ``start:stop`` on ``axis`` (-3, -2 or -1) of a
    stack of grids, whole on every other axis."""
    return (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - axis)


def _box_filter(x: np.ndarray) -> np.ndarray:
    """Mean over each voxel's 3x3x3 cube with edge-clamped borders, byte for
    byte ``scipy.ndimage.uniform_filter(x, 3, mode="nearest")`` of each grid
    in the last three axes of ``x``.

    It repeats scipy's arithmetic. The last three axes are filtered in turn.
    On each line the first window sums ``((0.0 + x[0]) + x[0]) + x[1]``; the
    leading 0.0 turns a sum of -0.0 into +0.0, as scipy's does. Window k > 0
    adds ``x[min(k + 1, n - 1)] - x[max(k - 2, 0)]`` to the one before, and
    every running sum is divided by 3 before the next axis. The first sums
    and the differences are written with slices, and one in-place
    ``np.cumsum`` runs the sums. Leading axes only stack grids: each grid's
    result is the same as when it is filtered alone.
    """
    out = x
    for axis in (-3, -2, -1):
        n = x.shape[axis]
        src, out = out, np.empty_like(x)
        first, second = _along(axis, 0, 1), _along(axis, min(1, n - 1), min(2, n))
        out[first] = ((0.0 + src[first]) + src[first]) + src[second]
        out[_along(axis, 1, n - 1)] = src[_along(axis, 2, n)]
        if n > 1:
            out[_along(axis, n - 1, n)] = src[_along(axis, n - 1, n)]
            out[_along(axis, 1, 3)] -= src[first]
            out[_along(axis, 3, n)] -= src[_along(axis, 1, n - 2)]
        np.cumsum(out, axis=axis, out=out)
        out /= 3.0
    return out


def _gradient_magnitude(x: np.ndarray) -> np.ndarray:
    """Length of the central-difference gradient over the last three axes of
    ``x``, edge-clamped at the borders.

    On each axis g[k] = (x[min(k + 1, n - 1)] - x[max(k - 1, 0)]) * 0.5, and
    the squares add up as (gz² + gy²) + gx², as with an edge-padded copy.
    Leading axes only stack grids, as in :func:`_box_filter`.
    """
    acc = np.empty_like(x)
    g = np.empty_like(x)
    for axis in (-3, -2, -1):
        n = x.shape[axis]
        first, last = _along(axis, 0, 1), _along(axis, n - 1, n)
        np.subtract(x[_along(axis, 2, n)], x[_along(axis, 0, n - 2)], out=g[_along(axis, 1, n - 1)])
        np.subtract(x[_along(axis, min(1, n - 1), min(2, n))], x[first], out=g[first])
        np.subtract(x[last], x[_along(axis, max(n - 2, 0), max(n - 1, 1))], out=g[last])
        g *= 0.5
        if axis == -3:
            np.multiply(g, g, out=acc)
        else:
            g *= g
            acc += g
    return np.sqrt(acc, out=acc)


def _write_features(x: np.ndarray, config: FeatureConfig, feats: np.ndarray) -> None:
    """Fill ``feats`` (``x.shape + (F + 1,)``) with the features of the grids
    stacked in ``x``, float64; ``x`` is clipped in place."""
    if not (np.isfinite(config.shift) and np.isfinite(config.scale) and config.scale > 0):
        raise ValueError(f"invalid feature normalization: {config}")
    np.clip(x, config.clip_low, config.clip_high, out=x)
    feats[..., 0] = (x - config.shift) / config.scale
    feats[..., 1] = (_box_filter(x) - config.shift) / config.scale
    feats[..., 2] = _gradient_magnitude(x) / config.scale
    feats[..., 3] = 1.0


def extract_features(volume: Volume, config: FeatureConfig) -> np.ndarray:
    """Per-voxel feature grid of shape (D, H, W, F + 1), float64.

    Features: normalized clipped intensity, normalized 3^3 box-smoothed
    intensity, scaled gradient magnitude, constant bias 1. The smoothing is
    numpy's, byte-identical to ``scipy.ndimage.uniform_filter(size=3,
    mode="nearest")``, so extracting features loads no scipy.
    """
    x = np.array(volume.intensities, dtype=np.float64)
    feats = np.empty(x.shape + (N_FEATURES + 1,), dtype=np.float64)
    _write_features(x, config, feats)
    return feats


def _check_weights(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (WEIGHT_LEN,):
        raise ValueError(f"weight vector must have shape ({WEIGHT_LEN},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weight vector contains non-finite entries")
    return w


def _class_probs(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities of every row of ``features`` (shape
    ``(..., F + 1)``), class-major: shape (C, N), one contiguous row per
    class for the N rows.

    The logits are ``features @ W.T``, the product and shapes of the
    reference, so the BLAS call is the same. They are copied class-major,
    and each reduction over the classes runs along axis 0: numpy adds (or
    compares) the class rows left to right, as ``max``/``sum(axis=-1)``
    does over a row this short, so the result is bit-identical to the
    row-major reference (pinned in the tests).
    """
    w = _check_weights(w)
    logits = features @ w.reshape(N_CLASSES, N_FEATURES + 1).T
    probs = np.ascontiguousarray(logits.reshape(-1, N_CLASSES).T)
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    return probs


def forward(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities; output shape = features.shape[:-1] + (C,).

    The result is a transposed view of the class-major probabilities.
    """
    return _class_probs(w, features).T.reshape(features.shape[:-1] + (N_CLASSES,))


def loss_and_grad(w: np.ndarray, features: np.ndarray,
                  labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient in weight layout.

    ``features`` is (n, F + 1), ``labels`` is (n,) with values in 0..C-1.
    """
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("batch must be a non-empty (n, F+1) matrix")
    n = features.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= N_CLASSES:
        raise ValueError("labels out of range")
    probs = _class_probs(w, features)
    # the true-class cell of row i is flat cell labels[i] * n + i; intp,
    # because a narrow label dtype would wrap
    cells = np.multiply(labels, n, dtype=np.intp)
    cells += np.arange(n)
    flat = probs.reshape(-1)
    p_true = flat.take(cells)
    # the sum over n is np.mean's own arithmetic, without its dispatch cost
    loss = float(-(np.log(p_true + _TINY).sum() / n))
    flat[cells] = p_true - 1.0
    # the reference's (probs.T @ features) with the operands swapped, the
    # form that matches it on every BLAS kernel tried
    grad = (features.T @ probs.T).T / n
    return loss, grad.reshape(WEIGHT_LEN)


def train_epochs(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, start_epoch: int = 1) -> np.ndarray:
    """Run ``config.epochs`` epochs of mini-batch SGD and return new weights.

    Epoch e (global index ``start_epoch + e``) draws its batches from an RNG
    seeded by (config.seed, "epoch", global index); in federated mode the
    caller passes the round index as ``start_epoch`` with epochs=1 so that a
    round's delta equals one epoch of the equivalent local run.

    An epoch's batch indices come from one draw of shape (batches, batch
    size); the generator yields the same stream as one draw per batch. The
    epoch's rows are gathered in one ``take``, and each step is one call of
    :func:`loss_and_grad` by its module name. Weights that become
    non-finite raise ``ValueError``.
    """
    w = _check_weights(w)
    if features.shape[0] == 0:
        raise ValueError("empty training set")
    n = features.shape[0]
    for e in range(start_epoch, start_epoch + config.epochs):
        rng = rng_from(config.seed, "epoch", e)
        batches = rng.integers(0, n, size=(config.batches_per_epoch, config.batch_size))
        for xb, yb in zip(features.take(batches, axis=0), labels.take(batches)):
            _, grad = loss_and_grad(w, xb, yb)
            w = w - config.learning_rate * grad
    return _check_weights(w)


def build_training_matrix(samples: Sequence[Sample],
                          config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel features and labels of all samples (sorted by id), as an
    (N, F + 1) matrix and an (N,) vector. Raises ``ValueError`` when a
    sample's mask has another shape than its volume.

    Each run of consecutive same-shape samples is extracted in one stacked
    pass over the last three axes, straight into its rows of the matrix. The
    rows equal those of :func:`extract_features` per sample, byte for byte.
    """
    ordered = sorted(samples, key=lambda s: s.sample_id)
    if not ordered:
        raise ValueError("no samples")
    for s in ordered:
        if s.mask.labels.shape != s.volume.intensities.shape:
            raise ValueError(f"sample {s.sample_id}: mask shape {s.mask.labels.shape} "
                             f"differs from volume shape {s.volume.intensities.shape}")
    n_rows = sum(s.volume.intensities.size for s in ordered)
    features = np.empty((n_rows, N_FEATURES + 1), dtype=np.float64)
    row = 0
    for _, run in itertools.groupby(ordered, key=lambda s: s.volume.intensities.shape):
        x = np.stack([s.volume.intensities for s in run], dtype=np.float64)
        stop = row + x.size
        _write_features(x, config, features[row:stop].reshape(x.shape + (N_FEATURES + 1,)))
        row = stop
    labels = np.concatenate([s.mask.labels.reshape(-1) for s in ordered], dtype=np.int64)
    return features, labels


def predict_proba(w: np.ndarray, volume: Volume, config: FeatureConfig) -> np.ndarray:
    return forward(w, extract_features(volume, config))


def ensemble_predict(fields: Sequence[np.ndarray], member_weights: Sequence[float],
                     mask_id: str) -> LabelMask:
    """Argmax of the weighted average of member probability fields (each as
    :func:`predict_proba` returns it); ties break toward the lower class
    index. ``member_weights`` are normalized by their sum; each must be
    finite and non-negative, and their sum positive, and the fields must
    share one shape. An average that is NaN at any voxel (a NaN, or an
    infinity times a zero weight) raises ``ValueError``.

    The average is summed class-major: each field's class axis is moved
    first, which for a field from :func:`forward` is a contiguous view of
    its storage, and member k adds ``mw[k] * field`` through one reused
    buffer, the row-major sum's arithmetic in its order. The class is then
    picked over the C contiguous rows: a strict ``>`` against the running
    maximum moves a voxel to a later class only when that class is higher,
    which keeps ties at the lower class as ``np.argmax`` does, and the
    running ``np.maximum`` carries any NaN through to one check at the end.
    """
    mw = np.asarray(member_weights, dtype=np.float64)
    # a NaN weight fails no comparison, so finiteness is checked on its own
    if (len(fields) == 0 or mw.shape != (len(fields),) or not np.isfinite(mw).all()
            or mw.min() < 0 or mw.sum() <= 0):
        raise ValueError("ensemble needs at least one member and one valid weight each")
    if any(f.shape != fields[0].shape for f in fields):
        raise ValueError("ensemble members' fields differ in shape: "
                         f"{sorted({f.shape for f in fields})}")
    mw = mw / mw.sum()
    acc = mw[0] * np.moveaxis(fields[0], -1, 0)
    term = np.empty_like(acc)
    for k in range(1, len(fields)):
        np.multiply(mw[k], np.moveaxis(fields[k], -1, 0), out=term)
        acc += term
    best = acc[0]  # acc is this call's own array, so its first row is the running maximum
    labels = np.zeros(best.shape, dtype=np.uint8)
    for c in range(1, acc.shape[0]):
        labels[acc[c] > best] = c
        np.maximum(best, acc[c], out=best)
    if np.isnan(best).any():
        raise ValueError(f"{mask_id}: ensemble average is NaN at "
                         f"{int(np.isnan(best).sum())} voxels")
    return LabelMask(id=mask_id, labels=labels)


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
    w = np.frombuffer(body, dtype="<f8").copy()
    if not np.isfinite(w).all():
        raise ValueError(f"{path}: non-finite weights")
    return w
