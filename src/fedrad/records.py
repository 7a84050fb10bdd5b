"""Metric records: the scores of one (sample, class, metric) and their files.

A record carries its value and how it came about (:class:`RecordStatus`):
Scored, false-negative defaulted, or a false-positive / true-negative skip
marker whose value is NaN and which stays out of every mean. The ranking
and report stages read and summarize records without scoring anything, so
this module needs neither scipy nor the scoring code in ``metrics``. The
report also reads the rows of ``timing.csv`` here, so it loads no numpy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

from .config import LESION_CLASSES, ExperimentConfig
from .seeding import check_stamp, read_stamped_csv, stamped_csv

TIMING_HEADER = "round,site,train_s,latency_s,idle_s,wall_s"

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

    A file that does not open with its stamp line is refused, and so is a
    row without seven fields, with a class or value that does not parse, a
    class not in ``LESION_CLASSES``, a metric not in ``METRICS``, an unknown
    status, or a Scored or FNDefaulted value that is not finite; the error
    names the file and the line.
    """
    digest, lines = read_stamped_csv(path)
    records: dict[tuple[str, str], list[MetricRecord]] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line or line.startswith("model,"):
            continue
        try:
            model, site, sample, class_id, metric, value, status = line.split(",")
            rec = MetricRecord(
                sample_id=sample, class_id=int(class_id), metric=metric,
                value=float(value) if value else float("nan"),
                status=RecordStatus(status))
            if rec.class_id not in LESION_CLASSES:
                raise ValueError(f"class {class_id!r} is not one of {list(LESION_CLASSES)}")
            if metric not in METRICS:
                raise ValueError(f"metric {metric!r} is not one of {list(METRICS)}")
            if rec.included and not math.isfinite(rec.value):
                raise ValueError(f"{status} value {value!r} is not finite")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        records.setdefault((model, site), []).append(rec)
    return records, digest


def summarize(records: Iterable[MetricRecord], site_id: str) -> dict[str, float]:
    """Per-metric mean over Scored + FNDefaulted records of one site/model."""
    included = [rec for rec in records if rec.included]
    if not included:
        raise ValueError(f"site {site_id}: no scorable records")
    means = {}
    for metric in METRICS:
        vals = [rec.value for rec in included if rec.metric == metric]
        if vals:
            means[metric] = math.fsum(vals) / len(vals)
    return means


def check_timing_csv(path, config: ExperimentConfig) -> None:
    """Read every row of the ``timing.csv`` at ``path`` and refuse the file
    unless it is stamped with ``config``'s digest, its header is
    ``TIMING_HEADER`` and each row holds six fields: a round in
    1..``config.rounds``, a configured site, and four finite, non-negative
    times, with no (round, site) pair twice. The error names the file and
    the line."""
    digest, lines = read_stamped_csv(path)
    check_stamp(path, digest, config.digest)
    if lines[0] != TIMING_HEADER:
        raise ValueError(f"{path}:2: header is not {TIMING_HEADER!r}")
    seen = set()
    for lineno, line in enumerate(lines[1:], start=3):
        try:
            fields = line.split(",")
            if len(fields) != 6:
                raise ValueError(f"expected 6 fields, got {len(fields)}")
            round_index, site, *times = fields
            key = (int(round_index), site)
            if key[0] not in range(1, config.rounds + 1):
                raise ValueError(f"round {round_index!r} is not in 1..{config.rounds}")
            if site not in config.site_ids:
                raise ValueError(f"site {site!r} is not one of {list(config.site_ids)}")
            if not all(0 <= float(t) < math.inf for t in times):  # NaN fails too
                raise ValueError(f"times {times} are not all finite and non-negative")
            if key in seen:
                raise ValueError(f"round {key[0]}, site {site!r} appears twice")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        seen.add(key)
