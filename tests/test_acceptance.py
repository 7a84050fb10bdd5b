"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import functools
import json
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rank_fixtures as rf
from conftest import ServerCrash, crash_after_round, make_profile
from corruption import INJECTABLE_CODES, corrupt_grid_file, inject_corruption
from oracles import (brute_dsc, brute_hsd, brute_nave, brute_nsd, finite_diff_grad,
                     sequential_federated_reference)

from fedrad import experiment as exp
from fedrad import wire
from fedrad.cli import main as cli_main
from fedrad.config import ExperimentConfig, ServerParams, SiteLink
from fedrad.dataset import generate_sample, generate_site_dataset
from fedrad.evalrank import rank
from fedrad.fedproto import ExperimentAborted, run_client, run_server
from fedrad.learner import N_FEATURES, WEIGHT_LEN, loss_and_grad
from fedrad.metrics import FN_DEFAULTS, dsc, hsd, nave, nsd, score_pair
from fedrad.records import RecordStatus, summarize
from fedrad.simnet import NS_PER_S, run_simulated
from fedrad.siteio import save_site_dataset
from fedrad.transport import TcpServerTransport, connect_tcp
from fedrad.validation import FindingCode, validate_sample, validate_site_dir


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} ({name}): PASS")
        return run
    return wrap


# ---------------------------------------------------------------------------
# 1. update-rule oracle equivalence across execution paths

def _run_tcp(params, datasets, resume=None):
    """``run_server`` and one ``run_client`` thread per site over loopback TCP.

    Returns the server's final weights, or raises what the server raised. A
    client the server aborts ends quietly. The listener is closed however
    the run ends.
    """
    listener = TcpServerTransport()
    out = {}

    def serve():
        try:
            out["w"] = run_server(params, listener, resume=resume)
        except Exception as exc:
            out["error"] = exc

    def client(ds, conn):
        try:
            run_client(ds, conn)
        except ExperimentAborted:
            pass  # the server's outcome is the run's

    try:
        threads = [threading.Thread(target=serve, daemon=True)]
        for sid in sorted(datasets):
            threads.append(threading.Thread(
                target=client, args=(datasets[sid], connect_tcp(*listener.address)),
                daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "tcp experiment hung"
    finally:
        listener.close()
    if "error" in out:
        raise out["error"]
    return out["w"]


@criterion(1, "update-rule oracle equivalence")
def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    profiles = exp.default_profiles(6)
    datasets_all = {p.site_id: generate_site_dataset(p) for p in profiles}
    base = exp.default_config(3)

    for n_sites in (1, 2, 3, 6):
        roster = [p.site_id for p in profiles[:n_sites]]
        datasets = {s: datasets_all[s] for s in roster}
        for rounds in (1, 3, 10):
            train = replace(base.train, epochs=rounds)
            params = ServerParams(replace(base, sites=tuple(profiles[:n_sites]), links=(),
                                          rounds=rounds, train=train))
            want, _ = sequential_federated_reference(datasets, train, base.seed, rounds)
            sim = run_simulated(params, datasets,
                                [SiteLink(site_id=s) for s in roster])
            assert np.array_equal(sim.final_weights, want), \
                f"simulated run diverged at N={n_sites}, T={rounds}"
            tcp = _run_tcp(params, datasets)
            assert np.array_equal(tcp, want), \
                f"tcp run diverged at N={n_sites}, T={rounds}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. ranking oracle on the published scoreboards

@criterion(2, "ranking oracle")
def test_criterion_2_ranking_oracle():
    table = rank(rf.grid_to_values(rf.PERSONALIZATION_GRID))
    expected = {"L": 3.96, "E": 3.50, "FL": 3.13, "Spec(E)": 2.58, "Spec(FL)": 1.83}
    for model, r in expected.items():
        assert abs(table.overall[model] - r) <= 0.01, \
            f"{model}: {table.overall[model]:.4f} vs {r}"
    # E and Spec(E) are tie-free at source precision: exact at 2 decimals
    assert round(table.overall["E"], 2) == 3.50
    assert round(table.overall["Spec(E)"], 2) == 2.58
    assert table.ordered_models() == ["Spec(FL)", "Spec(E)", "FL", "E", "L"]
    assert table.rank_point_total() == pytest.approx(180.0, abs=1e-9)

    without = rank(rf.grid_to_values(rf.GEN_WITHOUT_GRID), allow_missing=True)
    assert without.ordered_models()[0] == "FL-loo"
    with_local = rank(rf.grid_to_values(rf.GEN_WITH_GRID))
    assert with_local.ordered_models()[0] == "Spec(FL-loo)"


# ---------------------------------------------------------------------------
# 3. degenerate-case constants

@criterion(3, "degenerate-case constants")
def test_criterion_3_degenerate_constants():
    ref = np.zeros((8, 8, 8), dtype=np.uint8)
    ref[2:5, 2:5, 2:5] = 1
    empty = np.zeros((8, 8, 8), dtype=np.uint8)
    fn_records = score_pair(empty, ref, "s", 1, (1.0, 1.0, 1.0))
    values = {r.metric: r.value for r in fn_records}
    assert values["DSC"] == 0.0
    assert values["NSD"] == 0.0
    assert values["HSD"] == 260.0
    assert values["NAVE"] == 20.0
    assert values == FN_DEFAULTS
    assert all(r.status is RecordStatus.FN_DEFAULTED for r in fn_records)

    # false positives contribute nothing to the means
    scored = score_pair(ref, ref, "s", 1, (1.0, 1.0, 1.0))
    fp_records = score_pair(ref, empty, "t", 1, (1.0, 1.0, 1.0))
    with_fp = summarize(scored + fp_records, "site")
    without_fp = summarize(scored, "site")
    assert with_fp == without_fp


# ---------------------------------------------------------------------------
# 4. metric oracles on random masks

@criterion(4, "metric brute-force oracles")
def test_criterion_4_metric_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(20240201)
    checked = 0
    while checked < 500:
        dims = tuple(int(rng.integers(5, 13)) for _ in range(3))
        p = (rng.random(dims) < rng.uniform(0.05, 0.2)).astype(np.uint8)
        r = (rng.random(dims) < rng.uniform(0.05, 0.2)).astype(np.uint8)
        if not p.any() or not r.any():
            continue
        spacing = tuple(float(s) for s in rng.uniform(0.6, 2.4, size=3))
        assert dsc(p, r, 1) == brute_dsc(p, r, 1)
        assert nave(p, r, 1) == brute_nave(p, r, 1)
        assert hsd(p, r, 1, spacing) == pytest.approx(
            brute_hsd(p, r, 1, spacing), abs=1e-9)
        assert nsd(p, r, 1, spacing) == pytest.approx(
            brute_nsd(p, r, 1, spacing, tau=1.0), abs=1e-9)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. analytic gradient vs central finite differences

@criterion(5, "gradient finite-difference check")
def test_criterion_5_gradient_check():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(4, 24))
        features = np.concatenate(
            [rng.normal(size=(n, N_FEATURES)), np.ones((n, 1))], axis=1)
        labels = rng.integers(0, 4, size=n)
        w = rng.normal(scale=0.8, size=WEIGHT_LEN)
        _, grad = loss_and_grad(w, features, labels)
        fd = finite_diff_grad(w, features, labels)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4, f"relative error {rel:.2e}"


# ---------------------------------------------------------------------------
# 6. crash-restart determinism (sim and tcp)

@criterion(6, "crash-restart determinism")
def test_criterion_6_crash_restart(tmp_path, monkeypatch):
    profiles = [make_profile(site_id=f"s{i}", n_samples=6, seed=700 + i)
                for i in range(3)]
    datasets = {p.site_id: generate_site_dataset(p) for p in profiles}
    train = replace(exp.default_config(3).train, epochs=1, batches_per_epoch=10,
                    batch_size=64)
    rounds = 5

    def params(ckpt_dir):
        return ServerParams(
            ExperimentConfig(name="crash", seed=606, rounds=rounds, sites=tuple(profiles),
                             train=train, round_timeout_s=30.0),
            ckpt_dir)

    links = [SiteLink(site_id=s) for s in sorted(datasets)]
    full = run_simulated(params(None), datasets, links)

    for k in (1, rounds - 1):
        # every federation below dies right after committing round k; the
        # resumed ones start at round k + 1, past the crash
        crash_after_round(monkeypatch, k)

        # simulated transport
        sim_dir = tmp_path / f"sim{k}"
        with pytest.raises(ServerCrash) as crash:
            run_simulated(params(sim_dir), datasets, links)
        resumed = run_simulated(params(sim_dir), datasets, links,
                                resume=crash.value.checkpoint)
        assert np.array_equal(resumed.final_weights, full.final_weights), \
            f"sim resume after round {k} diverged"

        # tcp transport
        tcp_dir = tmp_path / f"tcp{k}"
        with pytest.raises(ServerCrash) as crash:
            _run_tcp(params(tcp_dir), datasets)
        final = _run_tcp(params(tcp_dir), datasets, resume=crash.value.checkpoint)
        assert np.array_equal(final, full.final_weights), \
            f"tcp resume after round {k} diverged"


# ---------------------------------------------------------------------------
# 7. straggler accounting

@criterion(7, "straggler idle accounting")
def test_criterion_7_straggler_accounting():
    profiles = [make_profile(site_id=s, n_samples=4, seed=800 + i)
                for i, s in enumerate(("fast", "slow"))]
    datasets = {p.site_id: generate_site_dataset(p) for p in profiles}
    train = replace(exp.default_config(3).train, epochs=1)
    params = ServerParams(ExperimentConfig(name="stragglers", seed=7, rounds=4,
                                           sites=tuple(profiles), train=train,
                                           round_timeout_s=1e6))
    base_epoch_s = 10.0
    links = [SiteLink(site_id="fast", speed_factor=1.0),
             SiteLink(site_id="slow", speed_factor=2.0)]
    sim = run_simulated(params, datasets, links,
                        per_batch_seconds=base_epoch_s / train.batches_per_epoch)

    base_ns = round(base_epoch_s * NS_PER_S)
    by_round = {}
    for row in sim.timing.rows:
        by_round.setdefault(row.round_index, []).append(row)
    assert set(by_round) == {1, 2, 3, 4}
    for t, rows in by_round.items():
        fast = next(r for r in rows if r.site_id == "fast")
        slow = next(r for r in rows if r.site_id == "slow")
        assert fast.idle_ns == base_ns, "fast-site idle must equal one base epoch"
        assert slow.idle_ns == 0
        assert fast.wall_ns == slow.wall_ns == 2 * base_ns
        # busy + idle conservation over the round
        assert (sum(r.train_ns + r.latency_ns + r.idle_ns for r in rows)
                == len(rows) * rows[0].wall_ns)


# ---------------------------------------------------------------------------
# 8. directional study reproduction on the shipped scenario

@criterion(8, "collaborative-above-local regression")
def test_criterion_8_directional_study(tmp_path):
    started = time.monotonic()
    config = replace(exp.default_config(3), output_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "exp.json"
    exp.save_config(config, cfg_path)

    assert cli_main(["gen", "--config", str(cfg_path)]) == 0
    assert cli_main(["validate", "--config", str(cfg_path)]) == 0
    assert cli_main(["train-sim", "--config", str(cfg_path)]) == 0
    assert cli_main(["evaluate", "--config", str(cfg_path)]) == 0
    out = Path(config.output_dir)
    for scenario in config.scenarios:
        metrics = out / "eval" / scenario / "metrics.csv"
        assert cli_main(["rank", "--in", str(metrics), "--scenario", scenario]) == 0
    assert cli_main(["characterize", "--config", str(cfg_path)]) == 0
    assert cli_main(["report", "--config", str(cfg_path)]) == 0

    summary = json.loads((out / "eval" / "personalization" / "summary.json").read_text())
    overall = summary["overall_rank"]
    for collaborative in ("E", "FL", "Spec(E)", "Spec(FL)"):
        assert overall[collaborative] < overall["L"], \
            f"{collaborative} ({overall[collaborative]:.2f}) did not beat " \
            f"L ({overall['L']:.2f})"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 8 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. validator completeness

@criterion(9, "validator completeness")
def test_criterion_9_validator_completeness(tmp_path):
    profile = make_profile(site_id="v", n_samples=1, dims=(8, 8, 8), seed=900)
    sample = generate_sample(profile, 0)

    for code in INJECTABLE_CODES:
        for seed in range(1000):
            bad = inject_corruption(sample, code, seed=seed)
            found = {f.code for f in validate_sample(bad)}
            assert code in found, f"{code.value} missed at seed {seed}"

    # header corruption via the on-disk path
    ds = generate_site_dataset(make_profile(site_id="v2", n_samples=2,
                                            dims=(8, 8, 8), seed=901))
    site_dir = tmp_path / "site"
    save_site_dataset(ds, site_dir)
    victim = ds.samples[0].sample_id
    pristine = (site_dir / f"{victim}.vol.frvd").read_bytes()
    for seed in range(1000):
        (site_dir / f"{victim}.vol.frvd").write_bytes(pristine)
        corrupt_grid_file(site_dir, victim, seed=seed)
        report = validate_site_dir(site_dir)
        found = {f.code for f in report.findings if f.sample_id == victim}
        assert found == {FindingCode.HEADER_CORRUPT}, f"seed {seed}: {found}"

    # zero false positives on pristine data
    for seed in range(200):
        good = generate_sample(make_profile(site_id="fp", dims=(8, 8, 8),
                                            seed=seed), 0)
        assert validate_sample(good) == []


# ---------------------------------------------------------------------------
# 10. protocol robustness

@criterion(10, "frame decoder robustness")
def test_criterion_10_protocol_robustness():
    from test_wire import all_message_variants, messages_equal

    rng = np.random.default_rng(1010)
    for msg in all_message_variants(rng):
        assert messages_equal(msg, wire.decode_frame(wire.encode_frame(msg)))

    seeds = [wire.encode_frame(m) for m in all_message_variants(rng)]
    survived = 0
    for i in range(100_000):
        if i % 2 == 0:
            size = int(rng.integers(0, 72))
            buf = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        else:
            base = bytearray(seeds[int(rng.integers(0, len(seeds)))])
            for _ in range(int(rng.integers(1, 5))):
                if base:
                    base[int(rng.integers(0, len(base)))] = int(rng.integers(0, 256))
            buf = bytes(base)
        try:
            wire.decode_frame(buf)
        except wire.ProtocolError:
            pass
        survived += 1
    assert survived == 100_000
