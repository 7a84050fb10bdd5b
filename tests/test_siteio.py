import json

import numpy as np
import pytest

from conftest import make_profile

from fedrad.dataset import generate_site_dataset
from fedrad.siteio import (GridFormatError, load_site_dataset, read_grid, save_site_dataset,
                           write_grid)
from fedrad.validation import validate_site_dir


def test_grid_roundtrip(tmp_path, rng):
    grid = rng.normal(size=(6, 7, 8)).astype(np.float32)
    path = tmp_path / "g.frvd"
    write_grid(path, grid, (2.0, 1.0, 0.5))
    back, spacing = read_grid(path)
    assert np.array_equal(back, grid)
    assert spacing == (2.0, 1.0, 0.5)


def test_grid_uint8_roundtrip(tmp_path):
    grid = np.arange(27, dtype=np.uint8).reshape(3, 3, 3)
    path = tmp_path / "m.frvd"
    write_grid(path, grid, (1.0, 1.0, 1.0))
    back, _ = read_grid(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, grid)


def test_grid_header_is_32_bytes(tmp_path):
    path = tmp_path / "g.frvd"
    write_grid(path, np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0))
    raw = path.read_bytes()
    assert raw[:4] == b"FRVD"
    assert len(raw) == 32 + 8


@pytest.mark.parametrize("mutate", [
    lambda raw: b"XXXX" + raw[4:],          # magic
    lambda raw: raw[:4] + b"\xff\x00" + raw[6:],  # version
    lambda raw: raw[:6] + b"\x09" + raw[7:],      # dtype code
    lambda raw: raw[:-3],                    # truncated payload
    lambda raw: raw[:16],                    # truncated header
])
def test_grid_corruption_detected(tmp_path, mutate):
    path = tmp_path / "g.frvd"
    write_grid(path, np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0))
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(GridFormatError):
        read_grid(path)


def test_site_dataset_roundtrip(tmp_path):
    profile = make_profile(seed=13)
    ds = generate_site_dataset(profile)
    save_site_dataset(ds, tmp_path / "site", experiment_digest="d" * 64)
    back = load_site_dataset(tmp_path / "site")
    assert back.site_id == ds.site_id
    manifest = json.loads((tmp_path / "site" / "manifest.json").read_text())
    assert manifest.keys() == {"format", "site_id", "experiment", "samples"}
    assert manifest["experiment"] == "d" * 64
    # an entry holds only what a reader cannot work out from the sample id
    assert all(entry.keys() == {"sample_id", "split"} for entry in manifest["samples"])
    assert [s.sample_id for s in back.train] == [s.sample_id for s in ds.train]
    assert [s.sample_id for s in back.test] == [s.sample_id for s in ds.test]
    _assert_same_samples(ds.samples, back.samples)


def _assert_same_samples(want, got):
    assert [s.sample_id for s in got] == [s.sample_id for s in want]
    for a, b in zip(want, got):
        assert np.array_equal(a.volume.intensities, b.volume.intensities)
        assert np.array_equal(a.labels, b.labels)
        assert a.labels.dtype == b.labels.dtype == np.uint8
        assert a.volume.spacing == b.volume.spacing


def test_a_manifest_with_stored_grid_names_and_provenance_still_loads(tmp_path):
    # manifests once stored each sample's grid file names and provenance;
    # the names are the ones the sample id gives, and readers ignore the rest
    ds = generate_site_dataset(make_profile(seed=16))
    site = tmp_path / "site"
    save_site_dataset(ds, site)
    path = site / "manifest.json"
    manifest = json.loads(path.read_text())
    for entry in manifest["samples"]:
        sid = entry["sample_id"]
        entry.update(provenance="manual", volume_file=f"{sid}.vol.frvd",
                     mask_file=f"{sid}.mask.frvd")
    path.write_text(json.dumps(manifest))
    _assert_same_samples(ds.samples, load_site_dataset(site).samples)
    report = validate_site_dir(site)
    assert report.all_passed and not report.findings
    assert len(report.sample_pass) == len(ds.samples)


def test_save_is_byte_deterministic(tmp_path):
    profile = make_profile(seed=14)
    ds = generate_site_dataset(profile)
    save_site_dataset(ds, tmp_path / "a")
    save_site_dataset(ds, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


@pytest.mark.parametrize("edit,named", [
    # the grid files of another site's sample, reached through its parent directory
    (lambda samples: samples[0].update(sample_id="../site_b/site_b-0000"),
     r"samples\[0\]\.sample_id is not a bare file name"),
    # the same sample listed twice would train (or be scored) twice
    (lambda samples: samples.append(dict(samples[0])),
     r"samples\[8\]\.sample_id repeats"),
])
def test_manifest_entries_stay_in_their_site(tmp_path, edit, named):
    for site_id in ("site_a", "site_b"):
        profile = make_profile(site_id=site_id, seed=15)
        save_site_dataset(generate_site_dataset(profile), tmp_path / site_id)
    path = tmp_path / "site_a" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["samples"])
    path.write_text(json.dumps(manifest))
    with pytest.raises(GridFormatError, match=named):
        load_site_dataset(tmp_path / "site_a")


def test_missing_manifest(tmp_path):
    with pytest.raises(GridFormatError):
        load_site_dataset(tmp_path)
