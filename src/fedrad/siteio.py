"""On-disk layout of site datasets.

One directory per site:

    <site-dir>/manifest.json        site_id, seed, sample list, provenance,
                                    train/test membership, experiment digest
    <site-dir>/<sample>.vol.frvd    intensity grid
    <site-dir>/<sample>.mask.frvd   label grid

Grid files are raw little-endian binary with a 32-byte header:
magic ``FRVD``, version u16, dtype code u8 (1 = float32, 2 = uint8),
one reserved byte, dims 3 x u32, spacing 3 x f32.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Collection

import numpy as np

from .config import SiteProfile
from .dataset import LabelMask, Provenance, Sample, SiteDataset, Volume
from .seeding import parse_json, write_json

GRID_MAGIC = b"FRVD"
GRID_VERSION = 1
_HEADER = struct.Struct("<4sHBB3I3f")  # 32 bytes

DTYPE_F32 = 1
DTYPE_U8 = 2
_CODE_TO_DTYPE = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype("u1")}
_DTYPE_TO_CODE = {np.dtype("float32"): DTYPE_F32, np.dtype("uint8"): DTYPE_U8}

MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "test")
# the fields of a manifest sample entry that readers index as strings
_ENTRY_STRINGS = ("sample_id", "volume_file", "mask_file", "provenance")
_PROVENANCES = {p.value for p in Provenance}


class GridFormatError(ValueError):
    """Raised when a grid file is unreadable or inconsistent with its header."""


def write_grid(path: Path, grid: np.ndarray, spacing: tuple[float, float, float]) -> None:
    arr = np.ascontiguousarray(grid)
    code = _DTYPE_TO_CODE.get(arr.dtype)
    if code is None:
        raise ValueError(f"unsupported grid dtype {arr.dtype}")
    if arr.ndim != 3:
        raise ValueError(f"grid must be 3-D, got shape {arr.shape}")
    header = _HEADER.pack(GRID_MAGIC, GRID_VERSION, code, 0,
                          arr.shape[0], arr.shape[1], arr.shape[2],
                          spacing[0], spacing[1], spacing[2])
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_grid(path: Path) -> tuple[np.ndarray, tuple[float, float, float]]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise GridFormatError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise GridFormatError(f"{path}: truncated header")
    magic, version, code, _resv, d0, d1, d2, s0, s1, s2 = _HEADER.unpack_from(raw)
    if magic != GRID_MAGIC:
        raise GridFormatError(f"{path}: bad magic {magic!r}")
    if version != GRID_VERSION:
        raise GridFormatError(f"{path}: unsupported version {version}")
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise GridFormatError(f"{path}: unknown dtype code {code}")
    expected = d0 * d1 * d2 * dtype.itemsize
    body = raw[_HEADER.size:]
    if len(body) != expected:
        raise GridFormatError(f"{path}: payload is {len(body)} bytes, header says {expected}")
    grid = np.frombuffer(body, dtype=dtype).reshape(d0, d1, d2).copy()
    return grid, (float(s0), float(s1), float(s2))


def _sample_files(sample_id: str) -> tuple[str, str]:
    return f"{sample_id}.vol.frvd", f"{sample_id}.mask.frvd"


def save_site_dataset(dataset: SiteDataset, site_dir: Path,
                      profile: SiteProfile | None = None,
                      experiment_digest: str | None = None) -> Path:
    """Write a site dataset directory; returns the manifest path."""
    site_dir = Path(site_dir)
    site_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for split_name, samples in (("train", dataset.train), ("test", dataset.test)):
        for s in sorted(samples, key=lambda s: s.sample_id):
            vol_file, mask_file = _sample_files(s.sample_id)
            write_grid(site_dir / vol_file, s.volume.intensities, s.volume.spacing)
            write_grid(site_dir / mask_file, s.mask.labels, s.volume.spacing)
            entries.append({
                "sample_id": s.sample_id,
                "split": split_name,
                "provenance": s.annotation_provenance.value,
                "volume_file": vol_file,
                "mask_file": mask_file,
            })
    entries.sort(key=lambda e: e["sample_id"])
    manifest = {
        "format": "frvd-site-v1",
        "site_id": dataset.site_id,
        "seed": profile.seed if profile is not None else None,
        "experiment": experiment_digest,
        "samples": entries,
    }
    path = site_dir / MANIFEST_NAME
    write_json(path, manifest)
    return path


def read_manifest(site_dir: Path) -> dict:
    path = Path(site_dir) / MANIFEST_NAME
    try:
        manifest = parse_json(path.read_bytes(), path)
    except (OSError, ValueError) as exc:
        raise GridFormatError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "frvd-site-v1":
        raise GridFormatError(f"{path}: unknown manifest format")
    if not isinstance(manifest.get("site_id"), str):
        raise GridFormatError(f"{path}: site_id is not a string")
    if not isinstance(manifest.get("samples"), list):
        raise GridFormatError(f"{path}: samples is not a list")
    for i, entry in enumerate(manifest["samples"]):
        if not isinstance(entry, dict):
            raise GridFormatError(f"{path}: samples[{i}] is not an object")
        for key in _ENTRY_STRINGS:
            if not isinstance(entry.get(key), str):
                raise GridFormatError(f"{path}: samples[{i}].{key} is not a string")
        if entry.get("split") not in SPLITS:
            raise GridFormatError(f'{path}: samples[{i}].split is not "train" or "test"')
        if entry["provenance"] not in _PROVENANCES:
            raise GridFormatError(f"{path}: samples[{i}].provenance is not one of "
                                  f"{sorted(_PROVENANCES)}")
    return manifest


def load_sample(site_dir: Path, entry: dict, site_id: str) -> Sample:
    site_dir = Path(site_dir)
    intens, spacing = read_grid(site_dir / entry["volume_file"])
    labels, _ = read_grid(site_dir / entry["mask_file"])
    sample_id = entry["sample_id"]
    return Sample(
        sample_id=sample_id,
        volume=Volume(id=sample_id, intensities=intens, spacing=spacing),
        mask=LabelMask(id=sample_id, labels=labels),
        site_id=site_id,
        annotation_provenance=Provenance(entry["provenance"]),
    )


def load_site_dataset(site_dir: Path, splits: Collection[str] = SPLITS,
                      manifest: dict | None = None) -> SiteDataset:
    """The site's dataset, with the grids of the samples in ``splits`` read;
    the splits left out stay empty. The manifest is checked in full either
    way: ``manifest`` is one that :func:`read_manifest` already returned for
    ``site_dir``, and without it the manifest is read here."""
    if manifest is None:
        manifest = read_manifest(site_dir)
    ds = SiteDataset(site_id=manifest["site_id"])
    for entry in manifest["samples"]:
        if entry["split"] in splits:
            sample = load_sample(site_dir, entry, manifest["site_id"])
            (ds.train if entry["split"] == "train" else ds.test).append(sample)
    return ds
