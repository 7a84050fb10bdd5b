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

How a step runs: an epoch gathers the rows and labels of all its batches
in one ``take`` each, turns the labels into each row's flat true-class
cell once, then calls :func:`loss_and_grad` once per batch. The step
checks nothing: :func:`train_epochs` checks the matrix and the label
vector once per call, the gathered labels once per epoch, and the weights
at the start and after every epoch, so no non-finite weights are
returned. The step computes only the gradient, not the loss, which
training never reads. The logits are the reference's BLAS product
``features @ W.T``; the softmax runs on a class-major copy of them, shape
(C, n), so its reductions over the classes are single calls over
contiguous rows. The true-class cells get their ``- 1.0`` through one
flat index, and the gradient is the reference's product with its
operands swapped. Every result is bit-identical to the straightforward
row-major implementation kept in the tests as the oracle.

How a segmentation is made: :func:`predict_members` computes the fields
of all of a test volume's member models at once. It clips one copy of the
volume per member to that member's bounds and smooths the stack in one
pass; then, member by member, it writes the normalized features into one
reused grid and calls :func:`forward`, so each field is the one
``forward(w, extract_features(volume, config))`` gives, byte for byte.
:func:`forward` returns a transposed view of the class-major
probabilities, and :func:`ensemble_predict` works on that storage as it
is. It sums the weighted members class-major and picks each voxel's
class with one strict comparison per further class, so no field is copied
to bring its class axis last. The labels equal the oracle's ``np.argmax``
of the row-major sum, ties going to the lower class.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import N_CLASSES, TrainConfig
from .dataset import Sample, Volume
from .seeding import derive_seed, rng_from

N_FEATURES = 3
WEIGHT_LEN = N_CLASSES * (N_FEATURES + 1)

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


def _check_feature_config(config: FeatureConfig) -> None:
    if not (np.isfinite(config.shift) and np.isfinite(config.scale) and config.scale > 0):
        raise ValueError(f"invalid feature normalization: {config}")


def _clip_and_smooth(x: np.ndarray, clip_low, clip_high) -> tuple[np.ndarray, np.ndarray]:
    """Clip the grids stacked in ``x`` in place, float64, and return their
    box-smoothed grids and gradient magnitudes. The bounds are scalars, or
    arrays that broadcast one bound per stacked grid."""
    np.clip(x, clip_low, clip_high, out=x)
    return _box_filter(x), _gradient_magnitude(x)


def _normalize(x: np.ndarray, smooth: np.ndarray, grad: np.ndarray, config: FeatureConfig,
               feats: np.ndarray) -> None:
    """Fill ``feats`` (``x.shape + (F + 1,)``) with the features of clipped
    ``x``, its smoothed grid and its gradient magnitude."""
    feats[..., 0] = (x - config.shift) / config.scale
    feats[..., 1] = (smooth - config.shift) / config.scale
    feats[..., 2] = grad / config.scale
    feats[..., 3] = 1.0


def _write_features(x: np.ndarray, config: FeatureConfig, feats: np.ndarray) -> None:
    """Fill ``feats`` (``x.shape + (F + 1,)``) with the features of the grids
    stacked in ``x``, float64; ``x`` is clipped in place."""
    _check_feature_config(config)
    _normalize(x, *_clip_and_smooth(x, config.clip_low, config.clip_high), config, feats)


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
    row-major reference (pinned in the tests). The ufuncs' ``reduce`` is
    what ``ndarray.max``/``sum`` call, without their dispatch. ``w`` is not
    checked here: :func:`forward` checks it, and :func:`train_epochs` checks
    what :func:`loss_and_grad` is given.
    """
    logits = features @ w.reshape(N_CLASSES, N_FEATURES + 1).T
    probs = np.ascontiguousarray(logits.reshape(-1, N_CLASSES).T)
    probs -= np.maximum.reduce(probs, axis=0)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0)
    return probs


def forward(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities; output shape = features.shape[:-1] + (C,).

    The result is a transposed view of the class-major probabilities.
    Weights that are not ``WEIGHT_LEN`` finite numbers raise ``ValueError``.
    """
    probs = _class_probs(_check_weights(w), features)
    return probs.T.reshape(features.shape[:-1] + (N_CLASSES,))


def loss_and_grad(w: np.ndarray, features: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The gradient of a batch's mean cross-entropy, in weight layout: one
    SGD step's arithmetic and nothing else. The loss itself is not computed,
    as training never reads it; the name stays because the benchmark's
    tracer and self-test count SGD steps as calls of ``loss_and_grad``.

    ``cells[i]`` is the flat index ``labels[i] * n + i`` of row i's
    true-class cell in the class-major (C, n) probabilities, which
    :func:`train_epochs` computes once per epoch for all of its batches.

    Precondition, which :func:`train_epochs` establishes before its steps:
    ``w`` is ``WEIGHT_LEN`` finite float64 numbers, ``features`` is a
    non-empty (n, F + 1) matrix and ``cells`` the (n,) true-class cells of
    labels in 0..C-1. Nothing is checked here.
    """
    n = features.shape[0]
    probs = _class_probs(w, features)
    # a batch's cells are distinct, so each gets exactly p - 1.0
    probs.reshape(-1)[cells] -= 1.0
    # the reference's (probs.T @ features) with the operands swapped, the
    # form that matches it on every BLAS kernel tried
    grad = (features.T @ probs.T).T / n
    return grad.reshape(WEIGHT_LEN)


def train_epochs(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, start_epoch: int = 1) -> np.ndarray:
    """Run ``config.epochs`` epochs of mini-batch SGD and return new weights.

    Epoch e (global index ``start_epoch + e``) draws its batches from an RNG
    seeded by (config.seed, "epoch", global index); in federated mode the
    caller passes the round index as ``start_epoch`` with epochs=1 so that a
    round's delta equals one epoch of the equivalent local run.

    An epoch's batch indices come from one draw of shape (batches, batch
    size); the generator yields the same stream as one draw per batch. The
    epoch's rows and labels are gathered in one ``take`` each, the labels
    become each row's flat true-class cell ``label * batch_size + row`` in
    one pass, and each step is one call of :func:`loss_and_grad` by its
    module name, given its batch's rows and cells.

    The step checks nothing, so its inputs are checked here, each with a
    ``ValueError``: the matrix and the label vector once per call, the
    epoch's gathered labels (exactly those its steps read, not the whole
    vector) before the epoch's first step, and the weights at the start and
    after every epoch. A diverging epoch runs to its end and is refused
    there, so non-finite weights are never returned.
    """
    w = _check_weights(w)
    if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] != N_FEATURES + 1:
        raise ValueError(f"training set must be a non-empty (N, {N_FEATURES + 1}) matrix, "
                         f"got shape {features.shape}")
    n = features.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    for e in range(start_epoch, start_epoch + config.epochs):
        rng = rng_from(config.seed, "epoch", e)
        batches = rng.integers(0, n, size=(config.batches_per_epoch, config.batch_size))
        batch_labels = labels.take(batches)
        if batch_labels.min() < 0 or batch_labels.max() >= N_CLASSES:
            raise ValueError("labels out of range")
        # intp, because a narrow label dtype would wrap
        cells = np.multiply(batch_labels, config.batch_size, dtype=np.intp)
        cells += np.arange(config.batch_size)
        for xb, cb in zip(features.take(batches, axis=0), cells):
            w = w - config.learning_rate * loss_and_grad(w, xb, cb)
        w = _check_weights(w)
    return w


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
        if s.labels.shape != s.volume.intensities.shape:
            raise ValueError(f"sample {s.sample_id}: mask shape {s.labels.shape} "
                             f"differs from volume shape {s.volume.intensities.shape}")
    n_rows = sum(s.volume.intensities.size for s in ordered)
    features = np.empty((n_rows, N_FEATURES + 1), dtype=np.float64)
    row = 0
    for _, run in itertools.groupby(ordered, key=lambda s: s.volume.intensities.shape):
        x = np.stack([s.volume.intensities for s in run], dtype=np.float64)
        stop = row + x.size
        _write_features(x, config, features[row:stop].reshape(x.shape + (N_FEATURES + 1,)))
        row = stop
    labels = np.concatenate([s.labels.reshape(-1) for s in ordered], dtype=np.int64)
    return features, labels


def predict_members(volume: Volume,
                    members: Sequence[tuple[np.ndarray, FeatureConfig]]) -> list[np.ndarray]:
    """The probability field of each member model ``(weights, feature
    config)`` on ``volume``, in member order, each equal to
    ``forward(weights, extract_features(volume, config))`` byte for byte.

    Every member's config and weights are checked first, as
    :func:`extract_features` and :func:`forward` check them, so an invalid
    member raises its ``ValueError`` before any work. One float64 copy of the
    volume per member is clipped to that member's bounds, and the stack is
    smoothed in one pass. Each member's features are then written into one
    reused grid and passed to :func:`forward`, whose result is a fresh array.
    """
    for w, config in members:
        _check_feature_config(config)
        _check_weights(w)
    grid = volume.intensities.shape
    x = np.empty((len(members),) + grid, dtype=np.float64)
    x[...] = volume.intensities
    bounds = np.array([(c.clip_low, c.clip_high) for _, c in members], dtype=np.float64)
    bounds = bounds.reshape((len(members), 2) + (1,) * len(grid))
    smooth, grad = _clip_and_smooth(x, bounds[:, 0], bounds[:, 1])
    feats = np.empty(grid + (N_FEATURES + 1,), dtype=np.float64)
    fields = []
    for k, (w, config) in enumerate(members):
        _normalize(x[k], smooth[k], grad[k], config, feats)
        fields.append(forward(w, feats))
    return fields


def ensemble_predict(fields: Sequence[np.ndarray], member_weights: Sequence[float],
                     sample_id: str) -> np.ndarray:
    """The ``uint8`` label grid that is the argmax of the weighted average of
    member probability fields (each as :func:`forward` returns it); ties
    break toward the lower class index. ``member_weights`` are normalized by
    their sum; each must be finite and non-negative, and their sum positive,
    and the fields must share one shape. An average that is NaN at any
    voxel (a NaN, or an infinity times a zero weight) raises ``ValueError``
    naming ``sample_id``.

    The average is summed class-major: each field is transposed to put its
    class axis first, which for a field from :func:`forward` is a contiguous
    view of its storage, and member k adds ``mw[k] * field`` through one reused
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
    class_first = (-1,) + tuple(range(fields[0].ndim - 1))
    acc = mw[0] * fields[0].transpose(class_first)
    term = np.empty_like(acc)
    for k in range(1, len(fields)):
        np.multiply(mw[k], fields[k].transpose(class_first), out=term)
        acc += term
    best = acc[0]  # acc is this call's own array, so its first row is the running maximum
    labels = np.zeros(best.shape, dtype=np.uint8)
    for c in range(1, acc.shape[0]):
        labels[acc[c] > best] = c
        np.maximum(best, acc[c], out=best)
    if np.isnan(best).any():
        raise ValueError(f"{sample_id}: ensemble average is NaN at "
                         f"{int(np.isnan(best).sum())} voxels")
    return labels


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
