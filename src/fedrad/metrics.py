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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import ndimage

from .dataset import LabelMask
from .seeding import read_stamped_csv, stamped_csv

METRIC_DSC = "DSC"
METRIC_NSD = "NSD"
METRIC_HSD = "HSD"
METRIC_NAVE = "NAVE"
METRICS = (METRIC_DSC, METRIC_NSD, METRIC_HSD, METRIC_NAVE)

# Sort direction when ranking models: higher-is-better vs lower-is-better.
METRIC_DIRECTIONS = {
    METRIC_DSC: "desc",
    METRIC_NSD: "desc",
    METRIC_HSD: "asc",
    METRIC_NAVE: "asc",
}

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


class RecordStatus(str, enum.Enum):
    SCORED = "Scored"
    FN_DEFAULTED = "FNDefaulted"
    FP_SKIPPED = "FPSkipped"
    TN_SKIPPED = "TNSkipped"


# Statuses whose values enter the per-site mean.
INCLUDED_STATUSES = (RecordStatus.SCORED, RecordStatus.FN_DEFAULTED)


@dataclass(frozen=True)
class MetricRecord:
    sample_id: str
    class_id: int
    metric: str
    value: float  # NaN for skip markers
    status: RecordStatus

    @property
    def included(self) -> bool:
        return self.status in INCLUDED_STATUSES


@dataclass(frozen=True)
class MetricSummary:
    site_id: str
    means: dict[str, float]
    n_test: int
    n_classes: int
    included_count: int


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


def write_metrics_csv(path, records_by_model_site: dict[tuple[str, str], list[MetricRecord]],
                      experiment_digest: str) -> None:
    """Write scoring records as CSV: model,site,sample,class,metric,value,status.

    Skip-marker records keep an empty value field. The model column is what
    lets the ranking stage recover which rows belong to which variant.
    """
    lines = ["model,site,sample,class,metric,value,status"]
    for (model, site) in sorted(records_by_model_site):
        for rec in records_by_model_site[(model, site)]:
            value = repr(rec.value) if math.isfinite(rec.value) else ""
            lines.append(f"{model},{site},{rec.sample_id},{rec.class_id},"
                         f"{rec.metric},{value},{rec.status.value}")
    with open(path, "w") as f:
        f.write(stamped_csv(experiment_digest, lines))


def read_metrics_csv(path) -> tuple[dict[tuple[str, str], list[MetricRecord]], str]:
    """Inverse of :func:`write_metrics_csv`; returns (records, digest).

    A file that does not open with its stamp line is refused.
    """
    digest, lines = read_stamped_csv(path)
    records: dict[tuple[str, str], list[MetricRecord]] = {}
    for line in lines:
        if line.startswith("model,"):
            continue
        model, site, sample, class_id, metric, value, status = line.split(",")
        rec = MetricRecord(
            sample_id=sample, class_id=int(class_id), metric=metric,
            value=float(value) if value else float("nan"),
            status=RecordStatus(status))
        records.setdefault((model, site), []).append(rec)
    return records, digest


def summarize(records: Iterable[MetricRecord], site_id: str) -> MetricSummary:
    """Per-metric mean over Scored + FNDefaulted records of one site/model."""
    records = list(records)
    included = [rec for rec in records if rec.included]
    if not included:
        raise ValueError(f"site {site_id}: no scorable records")
    means = {}
    for metric in METRICS:
        vals = [rec.value for rec in included if rec.metric == metric]
        if vals:
            means[metric] = math.fsum(vals) / len(vals)
    return MetricSummary(
        site_id=site_id,
        means=means,
        n_test=len({rec.sample_id for rec in records}),
        n_classes=len({rec.class_id for rec in records}),
        included_count=len(included),
    )
