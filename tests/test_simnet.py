from dataclasses import replace

import numpy as np
import pytest

from conftest import ServerCrash, crash_after_round
from oracles import sequential_federated_reference
from test_fedproto import TRAIN, make_datasets, make_params, run_experiment

from fedrad.config import SiteLink
from fedrad.fedproto import ExperimentAborted, checkpoint_log, load_checkpoint, read_checkpoints
from fedrad.fingerprint import compute_fingerprint
from fedrad.simnet import NS_PER_S, apply_fault_schedule, run_simulated


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
        assert sum(r.train_ns + r.latency_ns + r.idle_ns for r in rows) == 3 * wall
        assert wall == max(r.train_ns + r.latency_ns for r in rows)


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
        # the rounds committed before the resume keep their timing rows
        assert resumed.timing.to_csv("d" * 64) == full.timing.to_csv("d" * 64)


def test_sim_checkpoints_match_live_server(tmp_path):
    # the simulator and the live server must write identical checkpoint logs
    datasets = make_datasets(["a", "b"])
    sim_dir, live_dir = tmp_path / "sim", tmp_path / "live"
    sim_params = make_params(["a", "b"], rounds=2, ckpt_dir=sim_dir)
    run_simulated(sim_params, datasets, links_for(sim_params.expected_sites))
    live_params = make_params(["a", "b"], rounds=2, ckpt_dir=live_dir)
    run_experiment(live_params, datasets)
    sim_bytes = checkpoint_log(sim_dir).read_bytes()
    assert sim_bytes == checkpoint_log(live_dir).read_bytes()
    assert [r.round_index for r in read_checkpoints(checkpoint_log(sim_dir))] == [0, 1, 2]


def test_new_run_replaces_the_old_log(tmp_path):
    # a run starts its log afresh, over an earlier run's log and a temp file
    # left by a crash while starting one
    datasets = make_datasets(["a", "b"])
    ckpt_dir = tmp_path / "ck"
    ckpt_dir.mkdir()
    (ckpt_dir / "checkpoints.frck").write_bytes(b"FRCK torn tail of an earlier run")
    (ckpt_dir / "checkpoints.frck.tmp").write_bytes(b"FRCK")
    params = make_params(["a", "b"], rounds=2, ckpt_dir=ckpt_dir)
    sim = run_simulated(params, datasets, links_for(params.expected_sites))
    assert sorted(p.name for p in ckpt_dir.iterdir()) == ["checkpoints.frck"]
    assert sim.checkpoint_file == checkpoint_log(ckpt_dir)
    assert [r.round_index for r in read_checkpoints(sim.checkpoint_file)] == [0, 1, 2]


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


def test_fingerprints_input(tmp_path):
    # a mapping that lacks a site is refused by name; one with more sites
    # than expected, as a leave-out run gets, trains as the sites' own would
    datasets = make_datasets(["a", "b", "c"])
    fps = {s: compute_fingerprint(ds.train) for s, ds in datasets.items()}
    params = make_params(["a", "b"], rounds=2)
    with pytest.raises(ValueError, match=r"fingerprints missing for sites: \['b'\]"):
        run_simulated(params, datasets, links_for(["a", "b"]), fingerprints={"a": fps["a"]})
    given = run_simulated(params, datasets, links_for(["a", "b"]), fingerprints=fps)
    computed = run_simulated(params, datasets, links_for(["a", "b"]))
    assert given.final_weights.tobytes() == computed.final_weights.tobytes()
    assert given.derived.feature_config == computed.derived.feature_config


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("sites, aggregation", [(["s1"], "strict"),
                                                (["s1", "s2"], "tolerant")])
def test_failed_local_epoch_aborts_alike_in_sim_and_live(tmp_path, sites, aggregation):
    # a learning rate that overflows the first local epoch: every site's
    # training fails, and the simulator ends the run where the live server does
    datasets = make_datasets(sites)

    def params(run):
        return replace(make_params(sites, rounds=2, ckpt_dir=tmp_path / run,
                                   aggregation=aggregation),
                       train=replace(TRAIN, learning_rate=1.7e308))

    sim = run_simulated(params("sim"), datasets, links_for(sites))
    live_out, client_out = run_experiment(params("live"), datasets)
    live = live_out.get("exc")
    assert sim.aborted and isinstance(live, ExperimentAborted)
    assert (sim.abort_round, sim.abort_reason) == (live.round_index, live.reason)
    assert sim.checkpoint_file.name == live.checkpoint_path.name
    sim_files = {f.name: f.read_bytes() for f in (tmp_path / "sim").iterdir()}
    live_files = {f.name: f.read_bytes() for f in (tmp_path / "live").iterdir()}
    assert sim_files == live_files
    for exc in client_out.values():
        assert isinstance(exc, ExperimentAborted)
        assert exc.reason.startswith("local training failed")
    if aggregation == "strict":
        assert "site aborted: local training failed" in sim.abort_reason


@pytest.mark.parametrize("network", ["sim", "live"])
def test_failing_site_is_excluded_once_per_round(monkeypatch, caplog, network):
    # s2's local epoch fails every round: its Abort excludes it on arrival,
    # and closing the round must not exclude it a second time as "no delta"
    import fedrad.fedproto as fedproto
    from fedrad.learner import site_train_seed

    sites = ["s1", "s2", "s3"]
    datasets = make_datasets(sites)
    params = make_params(sites, rounds=2, aggregation="tolerant")
    failing_seed = site_train_seed(TRAIN.seed, "s2")
    real_train_epochs = fedproto.train_epochs

    def train_epochs(w, features, labels, config, **kw):
        if config.seed == failing_seed:
            raise ValueError("weight vector contains non-finite entries")
        return real_train_epochs(w, features, labels, config, **kw)

    monkeypatch.setattr(fedproto, "train_epochs", train_epochs)
    caplog.set_level("WARNING", logger="fedrad.fedproto")
    if network == "sim":
        result = run_simulated(params, datasets, links_for(sites))
        assert not result.aborted
    else:
        server_out, client_out = run_experiment(params, datasets)
        assert "w" in server_out, server_out.get("exc")
        assert isinstance(client_out["s2"], ExperimentAborted)
    exclusions = [r.args for r in caplog.records if r.getMessage().startswith("round ")
                  and "excluding" in r.getMessage()]
    assert [(t, sites) for t, sites, _why in exclusions] == [(1, ["s2"]), (2, ["s2"])]
    assert exclusions[0][2].startswith("site aborted: local training failed")
