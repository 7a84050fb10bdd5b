import numpy as np
import pytest

from oracles import brute_dsc, brute_hsd, brute_nave, brute_nsd, edt_surface_distances

from fedrad.dataset import LabelMask
from fedrad.experiment import default_config, default_profiles
from fedrad.metrics import (FN_DEFAULTS, _boundary, _boundary_points, _surface_distances, dsc,
                            hsd, nave, nsd, score_pair)
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


def _flush_scope():
    """Score against a reference no test uses, so no earlier class set is kept."""
    flush = lm(np.full((1, 2, 3), 255))
    score_pair(flush, flush, 1, SP)


def count_distance_computations(monkeypatch) -> list:
    """Count the surface-distance computations of ``fedrad.metrics``; the
    scipy distance transform, which it no longer needs, fails the test."""
    from fedrad import metrics
    calls = []
    surface = metrics._surface_distances

    def counted(*args):
        calls.append(1)
        return surface(*args)

    def refused(*args, **kwargs):
        raise AssertionError("scipy's distance transform was called")

    monkeypatch.setattr(metrics, "_surface_distances", counted)
    monkeypatch.setattr(metrics.ndimage, "distance_transform_edt", refused)
    return calls


def test_score_pair_builds_two_content_keys(monkeypatch):
    # one key for the reference, which both its scope and its class set
    # use, and one for the prediction
    from fedrad import metrics
    calls = []
    content = metrics._content

    def counted(labels):
        calls.append(1)
        return content(labels)

    monkeypatch.setattr(metrics, "_content", counted)
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    pred = cube((8, 8, 8), (1, 1, 1), (4, 4, 3))
    for class_id in (1, 2):
        score_pair(pred, ref, class_id, SP)
    score_pair(ref, pred, 1, SP)
    assert len(calls) == 6


def test_score_pair_one_distance_computation_per_pair(monkeypatch):
    calls = count_distance_computations(monkeypatch)
    _flush_scope()
    ref = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    ref.labels[5:7, 5:7, 5:7] = 2
    pred = cube((8, 8, 8), (1, 1, 1), (4, 4, 3))
    pred.labels[5:7, 5:7, 6:8] = 2
    score_pair(pred, ref, 1, SP)
    assert len(calls) == 1
    score_pair(pred, ref, 1, SP)  # the same pair again
    score_pair(LabelMask(id="p", labels=pred.labels.copy()), ref, 1, SP)  # equal content
    assert len(calls) == 1
    score_pair(pred, ref, 2, SP)  # the same masks, another class
    assert len(calls) == 2
    score_pair(cube((8, 8, 8), (1, 1, 1), (4, 3, 4)), ref, 1, SP)  # new prediction
    assert len(calls) == 3
    score_pair(pred, ref, 1, (2.0, 1.0, 1.0))  # new spacing
    assert len(calls) == 4
    empty = lm(np.zeros((8, 8, 8)))
    score_pair(empty, ref, 1, SP)
    score_pair(pred, empty, 1, SP)
    assert len(calls) == 4
    score_pair(pred, cube((8, 8, 8), (2, 1, 1), (5, 4, 4)), 1, SP)  # new reference
    assert len(calls) == 5


# Every spacing of the shipped site profiles, and one with the finest axis
# in the middle.
SPACINGS = tuple(p.spacing for p in default_profiles(6)) + ((0.7, 0.3, 1.1),)


def assert_scipy_bytes(ref: np.ndarray, pred: np.ndarray, spacing) -> None:
    """The surface distances of two masks equal, byte for byte, scipy's
    distance transform read at the boundaries."""
    got = _surface_distances(_boundary_points(ref), _boundary_points(pred),
                             tuple(float(s) for s in spacing))
    want = edt_surface_distances(_boundary(ref), _boundary(pred), spacing)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert g.tobytes() == w.tobytes(), (ref.shape, spacing)


@pytest.mark.parametrize("spacing", SPACINGS)
def test_surface_distances_equal_scipy_on_random_masks(rng, spacing):
    for _ in range(40):
        dims = tuple(int(rng.integers(3, 15)) for _ in range(3))
        ref = rng.random(dims) < rng.uniform(0.02, 0.6)
        pred = rng.random(dims) < rng.uniform(0.02, 0.6)
        assert_scipy_bytes(ref, pred, spacing)


def test_surface_distances_equal_scipy_at_grid_faces(rng):
    for spacing in SPACINGS:
        dims = tuple(int(rng.integers(4, 13)) for _ in range(3))
        full = np.ones(dims, dtype=bool)  # its boundary is the grid's surface
        slabs = np.zeros(dims, dtype=bool)
        for axis in range(3):  # one slab on each face, the interior left out
            lo, hi = [slice(None)] * 3, [slice(None)] * 3
            lo[axis], hi[axis] = slice(0, 1), slice(-1, None)
            slabs[tuple(lo)] = slabs[tuple(hi)] = rng.random(dims)[tuple(lo)] < 0.7
        dense = rng.random(dims) < 0.8
        for mask in (slabs, dense):
            b = _boundary(mask)
            assert all(b.take(i, axis=a).any() for a in range(3) for i in (0, -1))
        for ref, pred in ((full, slabs), (slabs, dense), (dense, full), (full, full)):
            assert_scipy_bytes(ref, pred, spacing)


def test_surface_distances_equal_scipy_for_single_voxels(rng):
    dims = (7, 9, 8)
    corners = [(z, y, x) for z in (0, 6) for y in (0, 8) for x in (0, 7)]
    voxels = corners + [tuple(int(rng.integers(0, d)) for d in dims) for _ in range(8)]
    for spacing in SPACINGS:
        for i, a in enumerate(voxels):
            ref = np.zeros(dims, dtype=bool)
            ref[a] = True
            for b in voxels[i:]:
                pred = np.zeros(dims, dtype=bool)
                pred[b] = True
                assert_scipy_bytes(ref, pred, spacing)
            assert_scipy_bytes(ref, rng.random(dims) < 0.1, spacing)


def test_surface_distances_equal_scipy_on_evaluate_inputs(tmp_path, monkeypatch, capsys):
    """Every scored (prediction, reference, class) of one evaluate of the
    shipped three-site experiment, trained briefly."""
    from dataclasses import replace

    from fedrad import experiment, metrics
    from fedrad.cli import main
    config = default_config(3)
    config = replace(config, rounds=2, output_dir=str(tmp_path / "run"),
                     train=replace(config.train, epochs=2, batches_per_epoch=5))
    path = tmp_path / "exp.json"
    experiment.save_config(config, path)
    for stage in ("gen", "train-sim"):
        assert main([stage, "--config", str(path)]) == 0
    inputs = []
    score = metrics.score_pair

    def captured(pred, ref, class_id, spacing):
        inputs.append((pred.labels, ref.labels, class_id, spacing))
        return score(pred, ref, class_id, spacing)

    monkeypatch.setattr(metrics, "score_pair", captured)
    assert main(["evaluate", "--config", str(path)]) == 0
    capsys.readouterr()
    scored = {(p.tobytes(), r.tobytes(), c, tuple(sp)): (p == c, r == c, sp)
              for p, r, c, sp in inputs if (p == c).any() and (r == c).any()}
    assert len(scored) > 50
    for pred, ref, spacing in scored.values():
        assert_scipy_bytes(ref, pred, spacing)


def test_surface_distances_memory_is_bounded_by_the_chunk():
    import tracemalloc
    z, y, x = np.indices((64, 64, 64))
    ref = (z - 30) ** 2 + (y - 32) ** 2 + (x - 33) ** 2 < 26 ** 2
    pred = (z - 34) ** 2 + (y - 31) ** 2 + (x - 30) ** 2 < 24 ** 2
    points_ref, points_pred = _boundary_points(ref), _boundary_points(pred)
    n, m = len(points_ref[0]), len(points_pred[0])
    bound = 2 << 20  # bytes: a few chunks, the two results and allocator slack
    assert n * m * 8 > 100 * bound  # far more than the whole matrix would take
    tracemalloc.start()
    try:
        got = _surface_distances(points_ref, points_pred, SP)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
    want = edt_surface_distances(_boundary(ref), _boundary(pred), SP)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def _public_records(pred, ref, class_id, spacing):
    """What score_pair must return, from the public metric functions."""
    in_pred, in_ref = (pred.labels == class_id).any(), (ref.labels == class_id).any()
    if in_pred and in_ref:
        values = {"DSC": dsc(pred, ref, class_id), "NSD": nsd(pred, ref, class_id, spacing),
                  "HSD": hsd(pred, ref, class_id, spacing), "NAVE": nave(pred, ref, class_id)}
        status = RecordStatus.SCORED
    elif in_ref:
        values, status = FN_DEFAULTS, RecordStatus.FN_DEFAULTED
    else:
        values = dict.fromkeys(METRICS, float("nan"))
        status = RecordStatus.FP_SKIPPED if in_pred else RecordStatus.TN_SKIPPED
    return [(ref.id, class_id, m, values[m], status) for m in METRICS]


def _as_tuples(records):
    return [(r.sample_id, r.class_id, r.metric, r.value, r.status) for r in records]


def _assert_same(got, want):
    """Records equal bit for bit (NaN matches NaN)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3] and g[4] is w[4], (g, w)
        assert np.float64(g[3]).tobytes() == np.float64(w[3]).tobytes(), (g, w)


def _labels(rng, dims, p=0.25):
    """Random labels of classes 0-3, each lesion class with probability p."""
    return rng.choice(4, size=dims, p=(1 - 3 * p, p, p, p)).astype(np.uint8)


def test_score_pair_memo_repeated_prediction(rng):
    _flush_scope()
    sp = (2.0, 0.8, 1.3)
    ref = LabelMask(id="r", labels=_labels(rng, (7, 9, 8)))
    pred = LabelMask(id="p", labels=_labels(rng, (7, 9, 8), p=0.2))
    pred.labels[pred.labels == 3] = 0  # class 3 is a false negative
    want = {c: _public_records(pred, ref, c, sp) for c in (1, 2, 3)}
    for _ in range(3):
        for c in (1, 2, 3):
            _assert_same(_as_tuples(score_pair(pred, ref, c, sp)), want[c])


def test_score_pair_memo_interleaved_references(rng):
    sp = (1.0, 1.7, 0.9)
    refs = [LabelMask(id=k, labels=_labels(rng, (8, 6, 7))) for k in ("a", "b")]
    preds = [LabelMask(id="p", labels=_labels(rng, (8, 6, 7), p)) for p in (0.1, 0.2, 0.3)]
    preds.append(LabelMask(id="p", labels=refs[0].labels.copy()))  # a perfect prediction
    for ref, sp in ((refs[0], sp), (refs[1], sp), (refs[0], sp), (refs[0], (1.0, 1.0, 2.0))):
        for pred in preds:
            for c in (1, 2, 3):
                _assert_same(_as_tuples(score_pair(pred, ref, c, sp)),
                             _public_records(pred, ref, c, sp))


def test_score_pair_memo_sees_labels_mutated_in_place(rng):
    sp = (1.5, 1.0, 1.0)
    ref = LabelMask(id="r", labels=_labels(rng, (6, 7, 8)))
    pred = LabelMask(id="p", labels=_labels(rng, (6, 7, 8)))
    for mutate in (pred, ref, pred):
        for c in (1, 2, 3):
            _assert_same(_as_tuples(score_pair(pred, ref, c, sp)),
                         _public_records(pred, ref, c, sp))
        mutate.labels[1:4, 2:6, 3:7] = (mutate.labels[1:4, 2:6, 3:7] + 1) % 4


def test_score_pair_memo_threads(rng):
    """Threads scoring different references at once, more threads than
    cores, get the records of a sequential run."""
    import sys
    import threading
    sp = (2.0, 1.0, 1.0)
    jobs = []
    for k in ("a", "b", "c", "d"):
        ref = LabelMask(id=k, labels=_labels(rng, (8, 8, 8)))
        preds = [LabelMask(id="p", labels=_labels(rng, (8, 8, 8), p)) for p in (0.1, 0.2, 0.3)]
        jobs.append([(pred, ref, c) for pred in preds for c in (1, 2, 3)])
    want = [[_as_tuples(score_pair(p, r, c, sp)) for p, r, c in job] for job in jobs]
    for job, recs in zip(jobs, want):
        for (p, r, c), got in zip(job, recs):
            _assert_same(got, _public_records(p, r, c, sp))

    barrier = threading.Barrier(len(jobs))
    got = [[] for _ in jobs]

    def run(i):
        barrier.wait()
        for _ in range(100):
            got[i].append([_as_tuples(score_pair(p, r, c, sp)) for p, r, c in jobs[i]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-call
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, runs in enumerate(got):
        assert len(runs) == 100
        for recs in runs:
            for g, w in zip(recs, want[i]):
                _assert_same(g, w)


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
    assert summarize(records, "x")["DSC"] == 0.8

    records = [rec("DSC", 1.0, RecordStatus.SCORED),
               rec("DSC", 0.0, RecordStatus.FN_DEFAULTED)]
    assert summarize(records, "x")["DSC"] == 0.5

    with_fp = records + [rec("DSC", float("nan"), RecordStatus.FP_SKIPPED)]
    assert summarize(with_fp, "x")["DSC"] == 0.5


def test_summarize_counts():
    """Each metric's mean counts every included (sample, class) record once."""
    records = []
    for k, (sid, c) in enumerate((s, c) for s in ("a", "b") for c in (1, 2)):
        for i, m in enumerate(METRICS):
            records.append(MetricRecord(sid, c, m, float(k + 10 * i), RecordStatus.SCORED))
    assert summarize(records, "site") == {m: 1.5 + 10 * i for i, m in enumerate(METRICS)}


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
