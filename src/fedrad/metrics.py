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
boundary-voxel centers, without sub-voxel surface meshing.

The records and their CSV files are defined in :mod:`fedrad.records`.
"""

from __future__ import annotations

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

_STRUCT_6 = ndimage.generate_binary_structure(3, 1)


def _class_masks(pred: LabelMask, ref: LabelMask, class_id: int) -> tuple[np.ndarray, np.ndarray]:
    if pred.labels.shape != ref.labels.shape:
        raise ValueError(f"mask dims differ: {pred.labels.shape} vs {ref.labels.shape}")
    return pred.labels == class_id, ref.labels == class_id


def _boundary(mask: np.ndarray) -> np.ndarray:
    # Voxels of the set with at least one 6-neighbor outside it; outside the
    # grid counts as outside the set (border_value=0 in the erosion).
    return mask & ~ndimage.binary_erosion(mask, structure=_STRUCT_6, border_value=0)


def _boundary_distances(p: np.ndarray, r: np.ndarray,
                        spacing: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Distances in mm from each reference boundary voxel to the nearest
    prediction boundary voxel, and from each prediction boundary voxel to
    the nearest reference one. One distance transform per direction; when
    the other boundary is empty every distance is infinite."""
    bp, br = _boundary(p), _boundary(r)
    if bp.any() and br.any():
        return (ndimage.distance_transform_edt(~bp, sampling=spacing)[br],
                ndimage.distance_transform_edt(~br, sampling=spacing)[bp])
    return np.full(int(br.sum()), np.inf), np.full(int(bp.sum()), np.inf)


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


def score_pair(pred: LabelMask, ref: LabelMask, class_id: int,
               spacing: Sequence[float]) -> list[MetricRecord]:
    """Score one (prediction, reference, class) pair into four records.

    The class masks, boundaries and distance transforms are built once and
    shared by the four metrics.
    """
    p, r = _class_masks(pred, ref, class_id)
    in_pred, in_ref = bool(p.any()), bool(r.any())
    sid = ref.id

    if in_ref and in_pred:
        d_ref, d_pred = _boundary_distances(p, r, spacing)
        values = {
            METRIC_DSC: _dsc(p, r),
            METRIC_NSD: _nsd(d_ref, d_pred),
            METRIC_HSD: _hsd(d_ref, d_pred),
            METRIC_NAVE: _nave(p, r),
        }
        status = RecordStatus.SCORED
    elif in_ref:
        values = dict(FN_DEFAULTS)
        status = RecordStatus.FN_DEFAULTED
    else:
        values = {m: float("nan") for m in METRICS}
        status = RecordStatus.FP_SKIPPED if in_pred else RecordStatus.TN_SKIPPED

    return [MetricRecord(sample_id=sid, class_id=class_id, metric=m,
                         value=values[m], status=status) for m in METRICS]
