import numpy as np
import pytest

from oracles import brute_dsc, brute_hsd, brute_nave, brute_nsd

from fedrad.dataset import LabelMask
from fedrad.metrics import FN_DEFAULTS, dsc, hsd, nave, nsd, score_pair
from fedrad.records import (METRICS, MetricRecord, RecordStatus, read_metrics_csv, summarize,
                            write_metrics_csv)

SP = (1.0, 1.0, 1.0)


def lm(labels):
    return LabelMask(id="m", labels=np.asarray(labels, dtype=np.uint8))


def cube(dims, lo, hi, class_id=1):
    labels = np.zeros(dims, dtype=np.uint8)
    labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = class_id
    return lm(labels)


def random_pair(rng, max_dim=12, p=0.08):
    dims = tuple(int(rng.integers(5, max_dim + 1)) for _ in range(3))
    a = (rng.random(dims) < p).astype(np.uint8)
    b = (rng.random(dims) < p).astype(np.uint8)
    spacing = tuple(float(s) for s in rng.uniform(0.6, 2.4, size=3))
    return lm(a), lm(b), spacing


def test_dsc_identical_and_disjoint():
    a = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    assert dsc(a, a, 1) == 1.0
    b = cube((8, 8, 8), (5, 5, 5), (8, 8, 8))
    assert dsc(a, b, 1) == 0.0


def test_dsc_half_overlap():
    # prediction covers exactly half the reference and nothing else
    ref = cube((8, 8, 8), (0, 0, 0), (4, 4, 4))
    pred = cube((8, 8, 8), (0, 0, 0), (2, 4, 4))
    assert dsc(pred, ref, 1) == pytest.approx(2 * 32 / (32 + 64))
    assert dsc(pred, ref, 1) == pytest.approx(2 / 3)


def test_dsc_dim_mismatch():
    with pytest.raises(ValueError):
        dsc(cube((8, 8, 8), (0, 0, 0), (2, 2, 2)),
            cube((8, 8, 7), (0, 0, 0), (2, 2, 2)), 1)


def test_nsd_identical_and_far():
    a = cube((10, 10, 10), (2, 2, 2), (5, 5, 5))
    assert nsd(a, a, 1, SP) == 1.0
    far = cube((10, 10, 10), (8, 8, 8), (10, 10, 10))
    assert nsd(a, far, 1, SP) == 0.0


def test_nsd_shifted_cube_matches_oracle():
    ref = cube((9, 9, 9), (2, 2, 2), (7, 7, 7))
    pred = cube((9, 9, 9), (3, 2, 2), (8, 7, 7))  # shifted one voxel along z
    got = nsd(pred, ref, 1, SP)
    want = brute_nsd(pred.labels, ref.labels, 1, SP, tau=1.0)
    assert got == pytest.approx(want, abs=1e-12)
    assert 0.0 < got < 1.0 or got == want


def test_hsd_identical_and_points():
    a = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    assert hsd(a, a, 1, SP) == 0.0
    p1 = cube((8, 8, 8), (1, 1, 1), (2, 2, 2))
    p2 = cube((8, 8, 8), (4, 1, 1), (5, 2, 2))
    assert hsd(p1, p2, 1, SP) == pytest.approx(3.0)


def test_metric_oracles_on_random_masks(rng):
    checked = 0
    for _ in range(120):
        pred, ref, spacing = random_pair(rng)
        if not (pred.labels == 1).any() or not (ref.labels == 1).any():
            continue
        checked += 1
        assert dsc(pred, ref, 1) == brute_dsc(pred.labels, ref.labels, 1)
        assert nave(pred, ref, 1) == brute_nave(pred.labels, ref.labels, 1)
        got_h = hsd(pred, ref, 1, spacing)
        want_h = brute_hsd(pred.labels, ref.labels, 1, spacing)
        assert got_h == pytest.approx(want_h, abs=1e-9)
        got_n = nsd(pred, ref, 1, spacing)
        want_n = brute_nsd(pred.labels, ref.labels, 1, spacing, tau=1.0)
        assert got_n == pytest.approx(want_n, abs=1e-9)
    assert checked > 60


def test_metric_symmetry(rng):
    for _ in range(20):
        pred, ref, spacing = random_pair(rng, p=0.15)
        if not (pred.labels == 1).any() or not (ref.labels == 1).any():
            continue
        assert dsc(pred, ref, 1) == dsc(ref, pred, 1)
        assert nsd(pred, ref, 1, spacing) == pytest.approx(nsd(ref, pred, 1, spacing), abs=1e-12)
        assert hsd(pred, ref, 1, spacing) == pytest.approx(hsd(ref, pred, 1, spacing), abs=1e-12)


def test_translation_invariance():
    ref = cube((12, 12, 12), (2, 2, 2), (5, 6, 7))
    pred = cube((12, 12, 12), (3, 2, 2), (6, 6, 7))
    shifted_ref = cube((12, 12, 12), (4, 4, 4), (7, 8, 9))
    shifted_pred = cube((12, 12, 12), (5, 4, 4), (8, 8, 9))
    sp = (1.3, 0.9, 1.1)
    assert dsc(pred, ref, 1) == dsc(shifted_pred, shifted_ref, 1)
    assert nsd(pred, ref, 1, sp) == pytest.approx(nsd(shifted_pred, shifted_ref, 1, sp), abs=1e-12)
    assert hsd(pred, ref, 1, sp) == pytest.approx(hsd(shifted_pred, shifted_ref, 1, sp), abs=1e-12)
    assert nave(pred, ref, 1) == nave(shifted_pred, shifted_ref, 1)


def test_nave_values():
    ref = cube((8, 8, 8), (0, 0, 0), (4, 4, 4))
    assert nave(ref, ref, 1) == 0.0
    double = cube((8, 8, 8), (0, 0, 0), (8, 4, 4))
    assert nave(double, ref, 1) == 1.0


def test_score_pair_scored():
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    pred = cube((8, 8, 8), (1, 1, 1), (4, 4, 3))
    records = score_pair(pred, ref, 1, SP)
    assert [r.metric for r in records] == list(METRICS)
    assert all(r.status is RecordStatus.SCORED for r in records)
    assert all(np.isfinite(r.value) for r in records)


def test_score_pair_false_negative_constants():
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    empty = lm(np.zeros((8, 8, 8)))
    records = score_pair(empty, ref, 1, SP)
    assert all(r.status is RecordStatus.FN_DEFAULTED for r in records)
    values = {r.metric: r.value for r in records}
    assert values == {"DSC": 0.0, "NSD": 0.0, "HSD": 260.0, "NAVE": 20.0}
    assert values == FN_DEFAULTS


def test_score_pair_false_positive_and_true_negative():
    pred = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    empty = lm(np.zeros((8, 8, 8)))
    fp_records = score_pair(pred, empty, 1, SP)
    assert all(r.status is RecordStatus.FP_SKIPPED for r in fp_records)
    tn_records = score_pair(empty, empty, 1, SP)
    assert all(r.status is RecordStatus.TN_SKIPPED for r in tn_records)
    assert not any(r.included for r in fp_records + tn_records)


def test_score_pair_equals_public_metrics(rng):
    checked = 0
    while checked < 100:
        pred, ref, spacing = random_pair(rng, p=float(rng.uniform(0.03, 0.3)))
        if not (pred.labels == 1).any() or not (ref.labels == 1).any():
            continue
        checked += 1
        got = {r.metric: r.value for r in score_pair(pred, ref, 1, spacing)}
        assert got == {"DSC": dsc(pred, ref, 1), "NSD": nsd(pred, ref, 1, spacing),
                       "HSD": hsd(pred, ref, 1, spacing), "NAVE": nave(pred, ref, 1)}


def test_score_pair_one_distance_transform_per_direction(monkeypatch):
    from fedrad import metrics
    calls = []
    edt = metrics.ndimage.distance_transform_edt

    def counted(*args, **kwargs):
        calls.append(1)
        return edt(*args, **kwargs)

    monkeypatch.setattr(metrics.ndimage, "distance_transform_edt", counted)
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    pred = cube((8, 8, 8), (1, 1, 1), (4, 4, 3))
    score_pair(pred, ref, 1, SP)
    assert len(calls) == 2
    empty = lm(np.zeros((8, 8, 8)))
    score_pair(empty, ref, 1, SP)
    score_pair(pred, empty, 1, SP)
    assert len(calls) == 2


def test_boundary_metrics_with_one_empty_boundary():
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    empty = lm(np.zeros((8, 8, 8)))
    assert nsd(empty, ref, 1, SP) == 0.0
    with pytest.raises(ValueError):
        nsd(empty, empty, 1, SP)
    with pytest.raises(ValueError):
        hsd(empty, ref, 1, SP)
    with pytest.raises(ValueError):
        nave(ref, empty, 1)


def test_summarize_means():
    rec = lambda m, v, st: MetricRecord("s", 1, m, v, st)
    records = [rec("DSC", 0.8, RecordStatus.SCORED)]
    assert summarize(records, "x").means["DSC"] == 0.8

    records = [rec("DSC", 1.0, RecordStatus.SCORED),
               rec("DSC", 0.0, RecordStatus.FN_DEFAULTED)]
    assert summarize(records, "x").means["DSC"] == 0.5

    with_fp = records + [rec("DSC", float("nan"), RecordStatus.FP_SKIPPED)]
    assert summarize(with_fp, "x").means["DSC"] == 0.5


def test_summarize_counts():
    records = []
    for sid in ("a", "b"):
        for c in (1, 2):
            for m in METRICS:
                records.append(MetricRecord(sid, c, m, 0.5, RecordStatus.SCORED))
    summary = summarize(records, "site")
    assert summary.n_test == 2
    assert summary.n_classes == 2
    assert summary.included_count == 16


def test_summarize_no_included_records():
    records = [MetricRecord("s", 1, "DSC", float("nan"), RecordStatus.TN_SKIPPED)]
    with pytest.raises(ValueError):
        summarize(records, "x")


def test_metrics_csv_roundtrip(tmp_path):
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    pred = cube((8, 8, 8), (1, 1, 1), (4, 4, 3))
    empty = lm(np.zeros((8, 8, 8)))
    records = {("L", "site_a"): score_pair(pred, ref, 1, SP),
               ("FL", "site_a"): score_pair(empty, ref, 1, SP),
               ("FL", "site_b"): score_pair(pred, empty, 2, SP)}
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, records, experiment_digest="e" * 64)
    back, digest = read_metrics_csv(path)
    assert digest == "e" * 64
    assert set(back) == set(records)
    for key in records:
        assert len(back[key]) == len(records[key])
        for a, b in zip(records[key], back[key]):
            assert (a.sample_id, a.class_id, a.metric, a.status) == \
                   (b.sample_id, b.class_id, b.metric, b.status)
            assert a.value == b.value or (np.isnan(a.value) and np.isnan(b.value))


def test_metrics_csv_without_digest_line_refused(tmp_path):
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, {("L", "site_a"): score_pair(ref, ref, 1, SP)}, "e" * 64)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0] == "# experiment=" + "e" * 64 + "\n"
    path.write_text("".join(lines[1:]))
    with pytest.raises(ValueError, match="experiment="):
        read_metrics_csv(path)
    # the ranking stage refuses it as a usage error
    from fedrad.cli import main
    assert main(["rank", "--in", str(path), "--scenario", "personalization"]) == 1
    assert not (tmp_path / "ranks.csv").exists()
