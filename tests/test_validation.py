import json

import numpy as np
import pytest

from conftest import make_profile, make_sample
from corruption import INJECTABLE_CODES, corrupt_grid_file, inject_corruption

from fedrad.dataset import SiteDataset, generate_sample, generate_site_dataset
from fedrad.siteio import GridFormatError, save_site_dataset
from fedrad.validation import FindingCode, validate_sample, validate_site_dir


def test_pristine_sample_passes():
    sample = generate_sample(make_profile(seed=21), 0)
    assert validate_sample(sample) == []


def test_label_out_of_range():
    labels = np.zeros((10, 10, 10), dtype=np.uint8)
    labels[3, 3, 3] = 7
    sample = make_sample(labels=labels)
    codes = [f.code for f in validate_sample(sample)]
    assert codes == [FindingCode.LABEL_OUT_OF_RANGE]


def test_dims_mismatch():
    sample = make_sample()
    bad = inject_corruption(sample, FindingCode.DIMS_MISMATCH, seed=0)
    codes = [f.code for f in validate_sample(bad)]
    assert codes == [FindingCode.DIMS_MISMATCH]


def test_validate_site_dir_counts(tmp_path):
    profile = make_profile(seed=22, n_samples=6)
    ds = generate_site_dataset(profile)
    save_site_dataset(ds, tmp_path / "clean", profile)
    report = validate_site_dir(tmp_path / "clean")
    assert report.all_passed
    assert report.counts_by_code == {}

    corrupted = inject_corruption(ds.train[0], FindingCode.NON_FINITE_INTENSITY, seed=1)
    mixed = SiteDataset(site_id=ds.site_id,
                        train=[corrupted] + ds.train[1:], test=ds.test)
    save_site_dataset(mixed, tmp_path / "mixed", profile)
    report = validate_site_dir(tmp_path / "mixed")
    assert report.n_failed == 1
    assert report.excluded == [corrupted.sample_id]
    assert report.counts_by_code == {"NonFiniteIntensity": 1}
    assert sum(report.counts_by_code.values()) == len(report.findings)


@pytest.mark.parametrize("code", INJECTABLE_CODES)
def test_injection_detected_with_exactly_that_code(code):
    sample = generate_sample(make_profile(seed=23), 1)
    bad = inject_corruption(sample, code, seed=99)
    codes = [f.code for f in validate_sample(bad)]
    assert codes == [code]


def test_manifest_not_an_object_refused(tmp_path):
    (tmp_path / "manifest.json").write_text("[]")
    with pytest.raises(GridFormatError, match="manifest"):
        validate_site_dir(tmp_path)


_ENTRY = {"sample_id": "a", "split": "test", "provenance": "manual",
          "volume_file": "a.vol.frvd", "mask_file": "a.mask.frvd"}
# (manifest fields besides "format", the field the error must name)
MALFORMED_MANIFESTS = [
    ({"samples": []}, "site_id"),
    ({"site_id": 3, "samples": []}, "site_id"),
    ({"site_id": "x"}, "samples"),
    ({"site_id": "x", "samples": {"a": _ENTRY}}, "samples"),
    ({"site_id": "x", "samples": [1]}, r"samples\[0\]"),
    ({"site_id": "x", "samples": [_ENTRY, dict(_ENTRY, sample_id=None)]},
     r"samples\[1\]\.sample_id"),
    ({"site_id": "x", "samples": [dict(_ENTRY, volume_file=["a"])]}, "volume_file"),
    ({"site_id": "x", "samples": [{k: v for k, v in _ENTRY.items() if k != "mask_file"}]},
     "mask_file"),
    ({"site_id": "x", "samples": [dict(_ENTRY, provenance=2)]}, "provenance"),
]
MALFORMED_IDS = ["site-id-missing", "site-id-int", "samples-missing", "samples-object",
                 "entry-int", "sample-id-null", "volume-file-list", "mask-file-missing",
                 "provenance-int"]


@pytest.mark.parametrize("fields,named", MALFORMED_MANIFESTS, ids=MALFORMED_IDS)
def test_malformed_manifest_names_the_field(tmp_path, fields, named):
    (tmp_path / "manifest.json").write_text(json.dumps(dict(format="frvd-site-v1", **fields)))
    with pytest.raises(GridFormatError, match=named):
        validate_site_dir(tmp_path)


def test_injection_unsupported_kind():
    sample = make_sample()
    with pytest.raises(ValueError):
        inject_corruption(sample, FindingCode.HEADER_CORRUPT, seed=0)


def test_inject_then_regenerate_passes():
    profile = make_profile(seed=24)
    sample = generate_sample(profile, 2)
    bad = inject_corruption(sample, FindingCode.LABEL_OUT_OF_RANGE, seed=5)
    assert validate_sample(bad)
    fresh = generate_sample(profile, 2)
    assert validate_sample(fresh) == []


def test_header_corruption_detected_on_disk(tmp_path):
    profile = make_profile(seed=25, n_samples=4)
    ds = generate_site_dataset(profile)
    save_site_dataset(ds, tmp_path / "site", profile)

    report = validate_site_dir(tmp_path / "site")
    assert report.all_passed

    victim = ds.samples[0].sample_id
    corrupt_grid_file(tmp_path / "site", victim, seed=7)
    report = validate_site_dir(tmp_path / "site")
    assert report.excluded == [victim]
    findings = [f for f in report.findings if f.sample_id == victim]
    assert [f.code for f in findings] == [FindingCode.HEADER_CORRUPT]


def test_detection_completeness_sweep():
    # every injectable code, many seeds, always detected, never extra codes
    profile = make_profile(seed=26, dims=(8, 8, 8), n_samples=1)
    sample = generate_sample(profile, 0)
    for code in INJECTABLE_CODES:
        for seed in range(50):
            bad = inject_corruption(sample, code, seed=seed)
            assert [f.code for f in validate_sample(bad)] == [code]


def test_no_false_positives_on_pristine():
    for seed in range(20):
        sample = generate_sample(make_profile(seed=seed), 0)
        assert validate_sample(sample) == []


def test_report_to_dict(tmp_path):
    profile = make_profile(seed=27, n_samples=4)
    save_site_dataset(generate_site_dataset(profile), tmp_path / "site", profile)
    doc = validate_site_dir(tmp_path / "site").to_dict()
    assert doc["n_samples"] == 4
    assert doc["n_failed"] == 0
    assert doc["excluded"] == []
