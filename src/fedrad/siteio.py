"""On-disk layout of site datasets.

One directory per site:

    <site-dir>/manifest.json        site_id, experiment digest, and one
                                    {sample_id, split} entry per sample
    <site-dir>/<sample>.vol.frvd    intensity grid
    <site-dir>/<sample>.mask.frvd   label grid, at the intensity grid's spacing

A sample's grid files are named after its ``sample_id``, so the manifest
does not store their names; readers ignore keys an entry has beyond these
two.

Grid files are raw little-endian binary with a 32-byte header:
magic ``FRVD``, version u16, dtype code u8 (1 = float32, 2 = uint8),
one reserved byte, dims 3 x u32, spacing 3 x f32.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Collection

import numpy as np

from .dataset import Sample, SiteDataset, Volume
from .seeding import check_stamp, parse_json, write_json

GRID_MAGIC = b"FRVD"
GRID_VERSION = 1
_HEADER = struct.Struct("<4sHBB3I3f")  # 32 bytes

DTYPE_F32 = 1
DTYPE_U8 = 2
_CODE_TO_DTYPE = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype("u1")}
_DTYPE_TO_CODE = {np.dtype("float32"): DTYPE_F32, np.dtype("uint8"): DTYPE_U8}

MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "test")
# a sample id names its grid files and is a field of every metrics CSV line
_ID_FORBIDDEN = ",\r\n\0"


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
                      experiment_digest: str | None = None) -> Path:
    """Write a site dataset directory; returns the manifest path."""
    site_dir = Path(site_dir)
    site_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for split_name, samples in (("train", dataset.train), ("test", dataset.test)):
        for s in sorted(samples, key=lambda s: s.sample_id):
            vol_name, mask_name = _sample_files(s.sample_id)
            write_grid(site_dir / vol_name, s.volume.intensities, s.volume.spacing)
            write_grid(site_dir / mask_name, s.labels, s.volume.spacing)
            entries.append({"sample_id": s.sample_id, "split": split_name})
    entries.sort(key=lambda e: e["sample_id"])
    manifest = {
        "format": "frvd-site-v1",
        "site_id": dataset.site_id,
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
    sample_ids = set()
    for i, entry in enumerate(manifest["samples"]):
        if not isinstance(entry, dict):
            raise GridFormatError(f"{path}: samples[{i}] is not an object")
        sid = entry.get("sample_id")
        if not isinstance(sid, str):
            raise GridFormatError(f"{path}: samples[{i}].sample_id is not a string")
        # the grid files lie in the site directory itself
        if (sid in ("", ".", "..") or Path(sid).name != sid
                or any(c in sid for c in _ID_FORBIDDEN)):
            raise GridFormatError(f"{path}: samples[{i}].sample_id is not a bare file name "
                                  "free of commas and line breaks")
        if entry.get("split") not in SPLITS:
            raise GridFormatError(f'{path}: samples[{i}].split is not "train" or "test"')
        # a sample listed twice would train (or be scored) twice
        if sid in sample_ids:
            raise GridFormatError(f"{path}: samples[{i}].sample_id repeats an earlier entry's")
        sample_ids.add(sid)
    return manifest


def read_site_manifest(site_dir: Path, site_id: str, experiment_digest: str) -> dict:
    """The manifest of ``site_dir``, refused unless it is stamped with
    ``experiment_digest`` and holds ``site_id``, the site that the
    experiment's config keeps in ``site_dir``."""
    manifest = read_manifest(site_dir)
    check_stamp(Path(site_dir) / MANIFEST_NAME, manifest.get("experiment"),
                experiment_digest, hint="; run 'fedrad gen' for this config")
    if manifest["site_id"] != site_id:
        raise ValueError(f"{site_dir}: holds site {manifest['site_id']!r}, "
                         f"not {site_id!r} as the config names it")
    return manifest


def load_sample(site_dir: Path, sample_id: str) -> Sample:
    """Sample ``sample_id`` of ``site_dir``, read from its two grid files; a
    label grid stored at another spacing than the intensity grid's is a
    :class:`GridFormatError`."""
    vol_path, mask_path = (Path(site_dir) / name for name in _sample_files(sample_id))
    intens, spacing = read_grid(vol_path)
    labels, mask_spacing = read_grid(mask_path)
    # a NaN spacing in both headers is left to validation's spacing rule
    if not np.array_equal(mask_spacing, spacing, equal_nan=True):
        raise GridFormatError(f"{mask_path}: spacing {mask_spacing} differs from the "
                              f"intensity grid's {spacing}")
    return Sample(sample_id=sample_id, volume=Volume(intensities=intens, spacing=spacing),
                  labels=labels)


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
            sample = load_sample(site_dir, entry["sample_id"])
            (ds.train if entry["split"] == "train" else ds.test).append(sample)
    return ds
