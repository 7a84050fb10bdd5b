"""Corruption fixtures for the validation tests.

:func:`inject_corruption` returns a copy of an in-memory sample that
violates exactly one readiness rule; :func:`corrupt_grid_file` garbles a
persisted grid file so that it reads as ``HeaderCorrupt``. Together they
test that validation detects every rule and reports nothing extra.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from fedrad.config import N_CLASSES
from fedrad.dataset import LabelMask, Sample, Volume
from fedrad.seeding import rng_from
from fedrad.validation import FindingCode

# Codes 'inject_corruption' can produce on an in-memory sample.
INJECTABLE_CODES = (
    FindingCode.DIMS_MISMATCH,
    FindingCode.LABEL_OUT_OF_RANGE,
    FindingCode.NON_FINITE_INTENSITY,
    FindingCode.NON_POSITIVE_SPACING,
    FindingCode.REFERENCE_MISMATCH,
    FindingCode.EMPTY_VOLUME,
)


def inject_corruption(sample: Sample, kind: FindingCode, seed: int) -> Sample:
    """Return a copy of ``sample`` that fails validation with exactly ``kind``."""
    rng = rng_from(seed, "corrupt", kind.value, sample.sample_id)
    vol, mask = sample.volume, sample.mask

    if kind is FindingCode.DIMS_MISMATCH:
        axis = int(rng.integers(0, 3))
        sel = [slice(None)] * 3
        sel[axis] = slice(0, mask.labels.shape[axis] - 1)
        new_mask = LabelMask(id=mask.id, labels=mask.labels[tuple(sel)].copy())
        return replace(sample, mask=new_mask)

    if kind is FindingCode.LABEL_OUT_OF_RANGE:
        labels = mask.labels.copy()
        flat = int(rng.integers(0, labels.size))
        labels.ravel()[flat] = int(rng.integers(N_CLASSES, 2 * N_CLASSES))
        return replace(sample, mask=LabelMask(id=mask.id, labels=labels))

    if kind is FindingCode.NON_FINITE_INTENSITY:
        intens = vol.intensities.copy()
        flat = int(rng.integers(0, intens.size))
        intens.ravel()[flat] = [np.nan, np.inf, -np.inf][int(rng.integers(0, 3))]
        return replace(sample, volume=Volume(id=vol.id, intensities=intens,
                                             spacing=vol.spacing))

    if kind is FindingCode.NON_POSITIVE_SPACING:
        axis = int(rng.integers(0, 3))
        spacing = list(vol.spacing)
        spacing[axis] = [0.0, -abs(spacing[axis])][int(rng.integers(0, 2))]
        return replace(sample, volume=Volume(id=vol.id, intensities=vol.intensities,
                                             spacing=tuple(spacing)))

    if kind is FindingCode.REFERENCE_MISMATCH:
        return replace(sample, mask=LabelMask(id=mask.id + "-x", labels=mask.labels))

    if kind is FindingCode.EMPTY_VOLUME:
        # Empty both grids so only the emptiness rule fires, not DimsMismatch.
        empty_shape = (0,) + vol.intensities.shape[1:]
        return replace(
            sample,
            volume=Volume(id=vol.id,
                          intensities=np.empty(empty_shape, dtype=vol.intensities.dtype),
                          spacing=vol.spacing),
            mask=LabelMask(id=mask.id, labels=np.empty(empty_shape, dtype=mask.labels.dtype)),
        )

    raise ValueError(f"cannot inject {kind.value} into an in-memory sample")


def corrupt_grid_file(site_dir: Path, sample_id: str, seed: int) -> Path:
    """Garble the header of a sample's volume file (HeaderCorrupt test fixture)."""
    rng = rng_from(seed, "corrupt-file", sample_id)
    path = Path(site_dir) / f"{sample_id}.vol.frvd"
    raw = bytearray(path.read_bytes())
    mode = int(rng.integers(0, 3))
    if mode == 0:
        raw[0:4] = b"XXXX"  # bad magic
    elif mode == 1:
        del raw[len(raw) // 2:]  # truncate
    else:
        raw[4] = 0xFF  # absurd version
    path.write_bytes(bytes(raw))
    return path
