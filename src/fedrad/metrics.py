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

:func:`score_pair` reuses work through a memo that its caller keeps for one
reference at one spacing (``evaluate`` keeps one per test sample): the
reference's class set and boundary voxels are built once per class, and
the four records once per (prediction content, class), from one
surface-distance computation; a prediction byte-identical to one already
scored is not scored again. The public ``dsc``/``nsd``/``hsd``/``nave``
compute everything afresh and are the reference that ``score_pair`` must
equal bit for bit.

The records and their CSV files are defined in :mod:`fedrad.records`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import ndimage

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


def _check_dims(pred: np.ndarray, ref: np.ndarray) -> None:
    if pred.shape != ref.shape:
        raise ValueError(f"mask dims differ: {pred.shape} vs {ref.shape}")


def _class_masks(pred: np.ndarray, ref: np.ndarray, class_id: int) -> tuple[np.ndarray, np.ndarray]:
    _check_dims(pred, ref)
    return pred == class_id, ref == class_id


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


def dsc(pred: np.ndarray, ref: np.ndarray, class_id: int) -> float:
    """Dice similarity 2|P&R| / (|P|+|R|) of one class."""
    return _dsc(*_class_masks(pred, ref, class_id))


def nsd(pred: np.ndarray, ref: np.ndarray, class_id: int,
        spacing: Sequence[float]) -> float:
    """Normalized surface dice: fraction of boundary voxels of either mask
    lying within ``NSD_TAU_MM`` of the other mask's boundary."""
    return _nsd(*_boundary_distances(*_class_masks(pred, ref, class_id), spacing))


def hsd(pred: np.ndarray, ref: np.ndarray, class_id: int,
        spacing: Sequence[float]) -> float:
    """Symmetric Hausdorff distance (100th percentile) between boundaries, mm."""
    return _hsd(*_boundary_distances(*_class_masks(pred, ref, class_id), spacing))


def nave(pred: np.ndarray, ref: np.ndarray, class_id: int) -> float:
    """Relative absolute volume error |V_pred - V_ref| / V_ref.

    The voxel volume cancels, so this is computed from voxel counts.
    """
    return _nave(*_class_masks(pred, ref, class_id))


class _ClassSet:
    """One side of a pair: the voxels of one class in one labels array."""

    def __init__(self, labels: np.ndarray, class_id: int):
        self.mask = labels == class_id
        self.present = bool(self.mask.any())

    @cached_property
    def points(self) -> tuple[np.ndarray, ...]:
        return _boundary_points(self.mask)


def _score(p: _ClassSet, r: _ClassSet,
           spacing: Sequence[float]) -> tuple[RecordStatus, dict[str, float]]:
    """The status and four metric values of prediction ``p`` against
    reference ``r``, routed by presence (see the module docstring)."""
    if r.present and p.present:
        d_ref, d_pred = _surface_distances(r.points, p.points, tuple(float(s) for s in spacing))
        return RecordStatus.SCORED, {
            METRIC_DSC: _dsc(p.mask, r.mask),
            METRIC_NSD: _nsd(d_ref, d_pred),
            METRIC_HSD: _hsd(d_ref, d_pred),
            METRIC_NAVE: _nave(p.mask, r.mask),
        }
    if r.present:
        return RecordStatus.FN_DEFAULTED, FN_DEFAULTS
    status = RecordStatus.FP_SKIPPED if p.present else RecordStatus.TN_SKIPPED
    return status, {m: float("nan") for m in METRICS}


def score_pair(pred: np.ndarray, ref: np.ndarray, sample_id: str, class_id: int,
               spacing: Sequence[float], memo: dict | None = None) -> list[MetricRecord]:
    """Score one (prediction, reference, class) pair of label grids into four
    records of sample ``sample_id``, the sample whose labels ``ref`` holds.

    ``memo`` is a dict the caller keeps for one reference at one spacing and
    passes to every call for it; it holds the reference's class set under
    the class id, and each prediction's four records under (its bytes, its
    dtype, the class id). The records are frozen, so a hit returns a new
    list of the same ones. Without a memo the pair is scored afresh.
    """
    _check_dims(pred, ref)
    memo = {} if memo is None else memo
    key = (pred.tobytes(), pred.dtype.str, class_id)
    if key not in memo:
        if class_id not in memo:
            memo[class_id] = _ClassSet(ref, class_id)
        status, values = _score(_ClassSet(pred, class_id), memo[class_id], spacing)
        memo[key] = [MetricRecord(sample_id=sample_id, class_id=class_id, metric=m,
                                  value=values[m], status=status) for m in METRICS]
    return list(memo[key])
