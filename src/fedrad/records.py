"""Metric records: the scores of one (sample, class, metric) and their files.

A record carries its value and how it came about (:class:`RecordStatus`):
Scored, false-negative defaulted, or a false-positive / true-negative skip
marker whose value is NaN and which stays out of every mean. The ranking
and report stages read and summarize records without scoring anything, so
this module needs neither scipy nor the scoring code in ``metrics``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

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
