import numpy as np
import pytest

from conftest import ServerCrash, crash_after_round
from oracles import sequential_federated_reference
from test_fedproto import TRAIN, make_datasets, make_params, run_experiment

from fedrad.fedproto import checkpoint_path, load_checkpoint
from fedrad.simnet import (NS_PER_S, SiteLink, apply_fault_schedule, run_simulated)


def links_for(site_ids, **overrides):
    return [SiteLink(site_id=s, **overrides.get(s, {})) for s in site_ids]


def test_sitelink_validation():
    with pytest.raises(ValueError):
        SiteLink(site_id="x", speed_factor=0.0)
    with pytest.raises(ValueError):
        SiteLink(site_id="x", latency_ms=-1.0)
    with pytest.raises(ValueError):
        SiteLink(site_id="x", crash_at_round=0)
    with pytest.raises(ValueError):
        SiteLink(site_id="x", offline_rounds={0})


def test_apply_fault_schedule():
    links = [SiteLink(site_id="a"),
             SiteLink(site_id="b", offline_rounds={2, 5}),
             SiteLink(site_id="c", crash_at_round=3)]
    assert apply_fault_schedule(links, 1) == set()
    assert apply_fault_schedule(links, 2) == {"b"}
    assert apply_fault_schedule(links, 3) == {"c"}
    assert apply_fault_schedule(links, 4) == {"c"}
    assert apply_fault_schedule(links, 5) == {"b", "c"}
    with pytest.raises(ValueError):
        apply_fault_schedule(links, 0)


def test_empty_schedules_never_unavailable():
    links = links_for(["a", "b"])
    for t in range(1, 10):
        assert apply_fault_schedule(links, t) == set()


def test_simulated_matches_live_and_sequential(tmp_path):
    datasets = make_datasets(["s1", "s2", "s3"])
    params = make_params(["s1", "s2", "s3"], rounds=3)
    sim = run_simulated(params, datasets, links_for(params.expected_sites))
    assert not sim.aborted
    live_out, _ = run_experiment(params, datasets)
    want, _ = sequential_federated_reference(datasets, TRAIN, params.experiment_seed, 3)
    assert np.array_equal(sim.final_weights, live_out["w"])
    assert np.array_equal(sim.final_weights, want)


def test_straggler_timing_exact():
    # two sites, one at half speed, zero latency: per round the wall time is
    # the slow site's epoch and the fast site idles exactly one base epoch
    datasets = make_datasets(["fast", "slow"])
    params = make_params(["fast", "slow"], rounds=3)
    per_batch = 10.0 / TRAIN.batches_per_epoch  # base epoch = 10 virtual seconds
    links = links_for(["fast", "slow"], slow={"speed_factor": 2.0})
    sim = run_simulated(params, datasets, links, per_batch_seconds=per_batch)

    base_ns = 10 * NS_PER_S
    for row in sim.timing.rows:
        assert row.wall_ns == 2 * base_ns
        if row.site_id == "fast":
            assert row.train_ns == base_ns
            assert row.idle_ns == base_ns
        else:
            assert row.train_ns == 2 * base_ns
            assert row.idle_ns == 0
        assert row.latency_ns == 0


def test_homogeneous_sites_no_idle():
    datasets = make_datasets(["a", "b", "c"])
    params = make_params(["a", "b", "c"], rounds=2)
    sim = run_simulated(params, datasets, links_for(params.expected_sites))
    assert all(row.idle_ns == 0 for row in sim.timing.rows)


def test_timing_conservation_every_round():
    datasets = make_datasets(["a", "b", "c"])
    params = make_params(["a", "b", "c"], rounds=4)
    links = links_for(["a", "b", "c"],
                      a={"speed_factor": 1.0, "latency_ms": 5.0},
                      b={"speed_factor": 1.7, "latency_ms": 20.0},
                      c={"speed_factor": 3.3})
    sim = run_simulated(params, datasets, links, per_batch_seconds=0.13)
    rounds = {row.round_index for row in sim.timing.rows}
    for t in rounds:
        rows = [r for r in sim.timing.rows if r.round_index == t]
        assert len(rows) == 3
        wall = rows[0].wall_ns
        assert all(r.wall_ns == wall for r in rows)
        assert all(r.idle_ns >= 0 for r in rows)
        assert sum(r.busy_ns + r.idle_ns for r in rows) == 3 * wall
        assert wall == max(r.busy_ns for r in rows)


def test_offline_round_strict_aborts(tmp_path):
    datasets = make_datasets(["a", "b"])
    ckpt_dir = tmp_path / "ck"
    params = make_params(["a", "b"], rounds=4, ckpt_dir=ckpt_dir, round_timeout_s=5.0)
    links = links_for(["a", "b"], b={"offline_rounds": {2}})
    sim = run_simulated(params, datasets, links)
    assert sim.aborted
    assert sim.abort_round == 2
    assert load_checkpoint(sim.checkpoint_file).round_index == 1
    covered = {row.round_index for row in sim.timing.rows}
    assert covered == {1, 2}
    # the aborted round is charged at the full timeout
    round2 = [r for r in sim.timing.rows if r.round_index == 2]
    assert all(r.wall_ns == 5 * NS_PER_S for r in round2)
    offline = next(r for r in round2 if r.site_id == "b")
    assert offline.train_ns == 0 and offline.idle_ns == offline.wall_ns


def test_offline_round_tolerant_continues():
    datasets = make_datasets(["a", "b"])
    params = make_params(["a", "b"], rounds=3, aggregation="tolerant",
                         round_timeout_s=5.0)
    links = links_for(["a", "b"], b={"offline_rounds": {2}})
    sim = run_simulated(params, datasets, links)
    assert not sim.aborted
    assert sim.final_weights is not None


# Default schedule: 5 batches of 0.02 s, so one local epoch is 0.1 s. With a
# 5 s deadline, a one-way latency of 2450 ms lands the delta exactly on time.
ON_TIME_MS = 2450.0
LATE_MS = 2450.000001


def test_late_site_strict_aborts_at_last_checkpoint(tmp_path):
    datasets = make_datasets(["a", "b"])
    params = make_params(["a", "b"], rounds=3, ckpt_dir=tmp_path / "ck",
                         round_timeout_s=5.0)
    on_time = run_simulated(params, datasets,
                            links_for(["a", "b"], b={"latency_ms": ON_TIME_MS}))
    assert not on_time.aborted
    assert all(r.wall_ns == 5 * NS_PER_S for r in on_time.timing.rows)

    late = run_simulated(params, datasets,
                         links_for(["a", "b"], b={"latency_ms": LATE_MS}))
    assert late.aborted
    assert late.abort_round == 1
    assert "['b']" in late.abort_reason
    assert load_checkpoint(late.checkpoint_file).round_index == 0
    row_b = next(r for r in late.timing.rows if r.site_id == "b")
    assert row_b.train_ns == 0 and row_b.idle_ns == row_b.wall_ns == 5 * NS_PER_S


def test_late_site_tolerant_aggregates_without_it():
    datasets = make_datasets(["a", "b"])
    params = make_params(["a", "b"], rounds=3, aggregation="tolerant",
                         round_timeout_s=5.0)
    late = run_simulated(params, datasets,
                         links_for(["a", "b"], b={"latency_ms": LATE_MS}))
    offline = run_simulated(params, datasets,
                            links_for(["a", "b"], b={"offline_rounds": {1, 2, 3}}))
    full = run_simulated(params, datasets, links_for(["a", "b"]))
    assert not late.aborted
    assert np.array_equal(late.final_weights, offline.final_weights)
    assert not np.array_equal(late.final_weights, full.final_weights)
    assert all(r.train_ns == 0 for r in late.timing.rows if r.site_id == "b")


def test_crash_permanent_from_round():
    datasets = make_datasets(["a", "b"])
    params = make_params(["a", "b"], rounds=5, aggregation="tolerant",
                         round_timeout_s=2.0)
    links = links_for(["a", "b"], b={"crash_at_round": 3})
    sim = run_simulated(params, datasets, links)
    assert not sim.aborted
    # b contributes nothing from round 3 on
    for row in sim.timing.rows:
        if row.site_id == "b" and row.round_index >= 3:
            assert row.train_ns == 0


def test_sim_stop_and_resume_bitidentical(tmp_path, monkeypatch):
    datasets = make_datasets(["a", "b", "c"])
    rounds = 5
    full_params = make_params(["a", "b", "c"], rounds=rounds)
    full = run_simulated(full_params, datasets, links_for(full_params.expected_sites))

    for k in (1, rounds - 1):
        ckpt_dir = tmp_path / f"ck{k}"
        params = make_params(["a", "b", "c"], rounds=rounds, ckpt_dir=ckpt_dir)
        links = links_for(params.expected_sites)
        crash_after_round(monkeypatch, k)
        with pytest.raises(ServerCrash) as crash:
            run_simulated(params, datasets, links)
        assert load_checkpoint(crash.value.checkpoint).round_index == k
        # the resumed run starts at round k + 1, past the crash
        resumed = run_simulated(params, datasets, links, resume=crash.value.checkpoint)
        assert np.array_equal(resumed.final_weights, full.final_weights)


def test_sim_checkpoints_match_live_server(tmp_path):
    # the simulator and the live server must write identical checkpoint bytes
    datasets = make_datasets(["a", "b"])
    sim_dir, live_dir = tmp_path / "sim", tmp_path / "live"
    sim_params = make_params(["a", "b"], rounds=2, ckpt_dir=sim_dir)
    run_simulated(sim_params, datasets, links_for(sim_params.expected_sites))
    live_params = make_params(["a", "b"], rounds=2, ckpt_dir=live_dir)
    run_experiment(live_params, datasets)
    for t in range(0, 3):
        sim_bytes = checkpoint_path(sim_dir, t).read_bytes()
        live_bytes = checkpoint_path(live_dir, t).read_bytes()
        assert sim_bytes == live_bytes, f"round {t} checkpoints differ"


def test_timing_report_deterministic_bytes():
    datasets = make_datasets(["a", "b"])
    params = make_params(["a", "b"], rounds=3)
    links = links_for(["a", "b"], a={"latency_ms": 3.5}, b={"speed_factor": 1.9})
    csv1 = run_simulated(params, datasets, links).timing.to_csv("d" * 64)
    csv2 = run_simulated(params, datasets, links).timing.to_csv("d" * 64)
    assert csv1 == csv2
    assert csv1.startswith("# experiment=" + "d" * 64)
    header = csv1.splitlines()[1]
    assert header == "round,site,train_s,latency_s,idle_s,wall_s"


def test_missing_links_rejected():
    datasets = make_datasets(["a", "b"])
    params = make_params(["a", "b"], rounds=1)
    with pytest.raises(ValueError, match="links missing"):
        run_simulated(params, datasets, [SiteLink(site_id="a")])


def test_missing_datasets_rejected():
    datasets = make_datasets(["a"])
    params = make_params(["a", "b"], rounds=1)
    with pytest.raises(ValueError, match="datasets missing"):
        run_simulated(params, datasets, links_for(["a", "b"]))
