"""Segmentation metrics with explicit degenerate-case conventions.

Four per-class metrics: DSC (overlap), NSD at a 1 mm threshold and HSD
(both boundary-distance based), and NAVE (relative volume error). A
(prediction, reference) pair for one class is routed by presence:

* class in both          -> four Scored records
* class only in ref      -> false negative: fixed penalty values
                            DSC 0.0, NSD 0.0, HSD 260.0 mm, NAVE 20.0
* class only in pred     -> false positive: records are skip markers and
                            excluded from means
* class in neither       -> true negative: likewise excluded

Boundaries are class voxels 6-adjacent to a non-class voxel (the outside
of the grid counts as non-class); distances are Euclidean in mm between
boundary-voxel centers, without sub-voxel surface meshing. They are exact:
every boundary voxel of one side is paired with every boundary voxel of the
other, in row chunks of at most ``PAIR_CHUNK_ELEMENTS`` pairs, so memory is
bounded by the chunk and not by the product of the boundary sizes. Each
pair's distance is computed as ``scipy.ndimage.distance_transform_edt``
computes it (integer index differences as float64, times the spacing,
squared and summed in axis order), so both give the same bytes; scipy is
used only for the boundary's erosion.

:func:`score_pair` builds each side's work once per reference: a side is
one labels array and one class, and its work is the class set, its
presence and its boundary voxels. The four values of one (reference,
class, prediction) are computed once too, from one surface-distance
computation. Every later pair that shares the
reference, and every prediction byte-identical to one already scored
against it, reuses that work. Entries are keyed by the labels' bytes, shape
and dtype, the class and the spacing, and scoring against a reference of
other content drops them all. The public ``dsc``/``nsd``/``hsd``/``nave``
compute everything afresh and are the reference that ``score_pair`` must
equal bit for bit.

The records and their CSV files are defined in :mod:`fedrad.records`.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import ndimage

from .dataset import LabelMask
from .records import (METRIC_DSC, METRIC_HSD, METRIC_NAVE, METRIC_NSD, METRICS, MetricRecord,
                      RecordStatus)

NSD_TAU_MM = 1.0

# Fixed penalties for missed classes: worst-case overlap, a surface
# distance bounding the organ's vertical extent, and a volume error well
# past anything a scored prediction produces.
FN_DEFAULTS = {
    METRIC_DSC: 0.0,
    METRIC_NSD: 0.0,
    METRIC_HSD: 260.0,
    METRIC_NAVE: 20.0,
}

# Pairs of boundary voxels held at once while measuring distances: each of
# the two float64 chunk buffers stays near 256 KiB, however large the grid.
PAIR_CHUNK_ELEMENTS = 1 << 15

_STRUCT_6 = ndimage.generate_binary_structure(3, 1)


def _check_dims(pred: LabelMask, ref: LabelMask) -> None:
    if pred.labels.shape != ref.labels.shape:
        raise ValueError(f"mask dims differ: {pred.labels.shape} vs {ref.labels.shape}")


def _class_masks(pred: LabelMask, ref: LabelMask, class_id: int) -> tuple[np.ndarray, np.ndarray]:
    _check_dims(pred, ref)
    return pred.labels == class_id, ref.labels == class_id


def _boundary(mask: np.ndarray) -> np.ndarray:
    # Voxels of the set with at least one 6-neighbor outside it; outside the
    # grid counts as outside the set (border_value=0 in the erosion).
    return mask & ~ndimage.binary_erosion(mask, structure=_STRUCT_6, border_value=0)


def _boundary_points(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis index columns of the boundary voxels, as float64 (exact for
    any grid index, so differences of them equal the integer differences)."""
    return tuple(c.astype(np.float64) for c in np.nonzero(_boundary(mask)))


def _surface_distances(ref: tuple[np.ndarray, ...], pred: tuple[np.ndarray, ...],
                       spacing: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Distances in mm from each reference boundary voxel to the nearest
    prediction boundary voxel, and from each prediction boundary voxel to
    the nearest reference one; both from one matrix of squared distances,
    built ``PAIR_CHUNK_ELEMENTS`` pairs at a time. When the other boundary
    is empty every distance is infinite."""
    n, m = len(ref[0]), len(pred[0])
    if n == 0 or m == 0:
        return np.full(n, np.inf), np.full(m, np.inf)
    rows = min(n, max(1, PAIR_CHUNK_ELEMENTS // m))
    # reused by every chunk: allocating them per chunk was about 40 % slower
    sq_buf, term_buf = np.empty((rows, m)), np.empty((rows, m))
    d_ref, d_pred = np.empty(n), np.full(m, np.inf)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        sq, term = sq_buf[:hi - lo], term_buf[:hi - lo]
        for axis, (r, p, s) in enumerate(zip(ref, pred, spacing)):
            # the distance transform's arithmetic: (index difference * s)^2,
            # summed over the axes in order
            out = term if axis else sq
            np.subtract.outer(r[lo:hi], p, out=out)
            out *= s
            out *= out
            if axis:
                sq += term
        d_ref[lo:hi] = sq.min(axis=1)
        np.minimum(d_pred, sq.min(axis=0), out=d_pred)
    # sqrt is monotonic, so the root of the least square is the least root
    return np.sqrt(d_ref), np.sqrt(d_pred)


def _boundary_distances(p: np.ndarray, r: np.ndarray,
                        spacing: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    return _surface_distances(_boundary_points(r), _boundary_points(p),
                              tuple(float(s) for s in spacing))


def _dsc(p: np.ndarray, r: np.ndarray) -> float:
    np_, nr = int(p.sum()), int(r.sum())
    if np_ + nr == 0:
        raise ValueError("DSC undefined: class absent from both masks")
    return 2.0 * int((p & r).sum()) / (np_ + nr)


def _nsd(d_ref: np.ndarray, d_pred: np.ndarray) -> float:
    n = d_ref.size + d_pred.size
    if n == 0:
        raise ValueError("NSD undefined: both boundaries empty")
    return (int((d_ref <= NSD_TAU_MM).sum()) + int((d_pred <= NSD_TAU_MM).sum())) / n


def _hsd(d_ref: np.ndarray, d_pred: np.ndarray) -> float:
    if d_ref.size == 0 or d_pred.size == 0:
        raise ValueError("HSD undefined: a boundary is empty")
    return float(max(d_ref.max(), d_pred.max()))


def _nave(p: np.ndarray, r: np.ndarray) -> float:
    nr = int(r.sum())
    if nr == 0:
        raise ValueError("NAVE undefined: class absent from reference")
    return abs(int(p.sum()) - nr) / nr


def dsc(pred: LabelMask, ref: LabelMask, class_id: int) -> float:
    """Dice similarity 2|P&R| / (|P|+|R|) of one class."""
    return _dsc(*_class_masks(pred, ref, class_id))


def nsd(pred: LabelMask, ref: LabelMask, class_id: int,
        spacing: Sequence[float]) -> float:
    """Normalized surface dice: fraction of boundary voxels of either mask
    lying within ``NSD_TAU_MM`` of the other mask's boundary."""
    return _nsd(*_boundary_distances(*_class_masks(pred, ref, class_id), spacing))


def hsd(pred: LabelMask, ref: LabelMask, class_id: int,
        spacing: Sequence[float]) -> float:
    """Symmetric Hausdorff distance (100th percentile) between boundaries, mm."""
    return _hsd(*_boundary_distances(*_class_masks(pred, ref, class_id), spacing))


def nave(pred: LabelMask, ref: LabelMask, class_id: int) -> float:
    """Relative absolute volume error |V_pred - V_ref| / V_ref.

    The voxel volume cancels, so this is computed from voxel counts.
    """
    return _nave(*_class_masks(pred, ref, class_id))


class _ClassSet:
    """One side of a pair: the voxels of one class in one labels array."""

    def __init__(self, labels: np.ndarray, class_id: int, spacing: tuple[float, ...]):
        self.mask = labels == class_id
        self.present = bool(self.mask.any())
        self.spacing = spacing
        self._scores: dict[_ClassSet, dict[str, float]] = {}

    @cached_property
    def points(self) -> tuple[np.ndarray, ...]:
        return _boundary_points(self.mask)

    def scores(self, pred: _ClassSet) -> dict[str, float]:
        """The four metric values with this set, present, as the reference
        and ``pred``, present, as the prediction; computed once per
        prediction."""
        found = self._scores.get(pred)
        if found is None:
            d_ref, d_pred = _surface_distances(self.points, pred.points, self.spacing)
            found = self._scores[pred] = {
                METRIC_DSC: _dsc(pred.mask, self.mask),
                METRIC_NSD: _nsd(d_ref, d_pred),
                METRIC_HSD: _hsd(d_ref, d_pred),
                METRIC_NAVE: _nave(pred.mask, self.mask),
            }
        return found


# The class sets scored against the current reference, by content key. The
# lock makes swapping the scope atomic; filling one needs none, because a set
# is a function of its key and a race only builds it twice.
_scope_lock = threading.Lock()
_scope_ref: tuple = ()
_scope_sets: dict[tuple, _ClassSet] = {}


def _content(labels: np.ndarray) -> tuple:
    return labels.tobytes(), labels.shape, labels.dtype.str


def _scope(key: tuple) -> dict[tuple, _ClassSet]:
    """The class sets kept for the reference of content ``key``; a
    reference of new content starts an empty scope."""
    global _scope_ref, _scope_sets
    with _scope_lock:
        if _scope_ref != key:
            _scope_ref, _scope_sets = key, {}
        return _scope_sets


def _class_set(sets: dict[tuple, _ClassSet], content: tuple, labels: np.ndarray,
               class_id: int, spacing: tuple[float, ...]) -> _ClassSet:
    """The class set of ``labels``, of content key ``content``."""
    key = content + (class_id, spacing)
    found = sets.get(key)
    if found is None:
        found = sets[key] = _ClassSet(labels, class_id, spacing)
    return found


def score_pair(pred: LabelMask, ref: LabelMask, class_id: int,
               spacing: Sequence[float]) -> list[MetricRecord]:
    """Score one (prediction, reference, class) pair into four records.

    Each side's class set and boundary, and the pair's four values, are
    built once per reference content (see the module docstring).
    """
    _check_dims(pred, ref)
    spacing = tuple(float(s) for s in spacing)
    ref_key = _content(ref.labels)
    sets = _scope(ref_key)
    r = _class_set(sets, ref_key, ref.labels, class_id, spacing)
    p = _class_set(sets, _content(pred.labels), pred.labels, class_id, spacing)
    in_pred, in_ref = p.present, r.present
    sid = ref.id

    if in_ref and in_pred:
        values = r.scores(p)
        status = RecordStatus.SCORED
    elif in_ref:
        values = dict(FN_DEFAULTS)
        status = RecordStatus.FN_DEFAULTED
    else:
        values = {m: float("nan") for m in METRICS}
        status = RecordStatus.FP_SKIPPED if in_pred else RecordStatus.TN_SKIPPED

    return [MetricRecord(sample_id=sid, class_id=class_id, metric=m,
                         value=values[m], status=status) for m in METRICS]
