"""Data-readiness validation gating samples before training and evaluation.

Validators return findings instead of raising, so a run can exclude bad
samples and keep going; the exclusion list is part of the report for
reproducibility. :func:`validate_site_dir` checks a persisted site, and
reports unreadable grid files, and a label grid stored at another spacing
than its intensity grid, as ``HeaderCorrupt`` findings. Both grids of a
sample are found by its ``sample_id``, so no rule compares ids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import N_CLASSES
from .dataset import Sample
from .seeding import to_dict
from . import siteio


class FindingCode(str, enum.Enum):
    DIMS_MISMATCH = "DimsMismatch"
    LABEL_OUT_OF_RANGE = "LabelOutOfRange"
    NON_FINITE_INTENSITY = "NonFiniteIntensity"
    NON_POSITIVE_SPACING = "NonPositiveSpacing"
    EMPTY_VOLUME = "EmptyVolume"
    HEADER_CORRUPT = "HeaderCorrupt"


@dataclass(frozen=True)
class ValidationFinding:
    sample_id: str
    code: FindingCode
    detail: str


@dataclass
class ValidationReport:
    site_id: str
    sample_pass: dict[str, bool] = field(default_factory=dict)
    findings: list[ValidationFinding] = field(default_factory=list)

    @property
    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.code.value] = counts.get(f.code.value, 0) + 1
        return counts

    @property
    def excluded(self) -> list[str]:
        return sorted(sid for sid, ok in self.sample_pass.items() if not ok)

    @property
    def n_failed(self) -> int:
        return len(self.excluded)

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "n_samples": len(self.sample_pass),
            "n_passed": len(self.sample_pass) - self.n_failed,
            "n_failed": self.n_failed,
            "counts_by_code": self.counts_by_code,
            "excluded": self.excluded,
            "findings": [to_dict(f) for f in self.findings],
        }


def validate_sample(sample: Sample) -> list[ValidationFinding]:
    """Check one sample against all readiness rules; empty list means pass."""
    out: list[ValidationFinding] = []
    sid = sample.sample_id
    vol, labels = sample.volume, sample.labels

    if vol.intensities.size == 0 or labels.size == 0:
        out.append(ValidationFinding(sid, FindingCode.EMPTY_VOLUME,
                                     f"volume has {vol.intensities.size} voxels, "
                                     f"mask has {labels.size}"))
    if vol.intensities.shape != labels.shape:
        out.append(ValidationFinding(sid, FindingCode.DIMS_MISMATCH,
                                     f"volume dims {vol.intensities.shape} != "
                                     f"mask dims {labels.shape}"))
    bad = np.unique(labels[(labels < 0) | (labels >= N_CLASSES)])
    if bad.size:
        out.append(ValidationFinding(sid, FindingCode.LABEL_OUT_OF_RANGE,
                                     f"labels outside 0..{N_CLASSES - 1}: {bad.tolist()}"))
    if vol.intensities.size and not np.isfinite(vol.intensities).all():
        n_bad = int((~np.isfinite(vol.intensities)).sum())
        out.append(ValidationFinding(sid, FindingCode.NON_FINITE_INTENSITY,
                                     f"{n_bad} non-finite intensity voxels"))
    if any(not (s > 0.0) for s in vol.spacing):
        out.append(ValidationFinding(sid, FindingCode.NON_POSITIVE_SPACING,
                                     f"spacing {vol.spacing}"))
    return out


def validate_site_dir(site_dir: Path) -> ValidationReport:
    """Validate a persisted site; unreadable payloads become HeaderCorrupt findings."""
    manifest = siteio.read_manifest(site_dir)
    report = ValidationReport(site_id=manifest["site_id"])
    for entry in sorted(manifest["samples"], key=lambda e: e["sample_id"]):
        sid = entry["sample_id"]
        try:
            sample = siteio.load_sample(site_dir, sid)
        except siteio.GridFormatError as exc:
            report.sample_pass[sid] = False
            report.findings.append(
                ValidationFinding(sid, FindingCode.HEADER_CORRUPT, str(exc)))
            continue
        findings = validate_sample(sample)
        report.sample_pass[sid] = not findings
        report.findings.extend(findings)
    return report
