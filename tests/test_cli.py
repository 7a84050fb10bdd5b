import json
import re
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from corruption import corrupt_grid_file
from test_experiment import small_config
from test_validation import MALFORMED_IDS, MALFORMED_MANIFESTS

from fedrad import experiment as exp
from fedrad.cli import main
from fedrad.config import (Scenario, checkpoints_dir, eval_dir, models_dir, site_dir,
                           sites_dir)
from fedrad.fedproto import checkpoint_log, load_checkpoint
from fedrad.seeding import stamped_csv, to_dict


@pytest.fixture
def config_file(tmp_path):
    config = small_config(tmp_path, n_sites=2, rounds=2,
                          scenarios=("personalization", "generalization_with_local"))
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    return path, config


def test_gen_validate_characterize(config_file, capsys):
    path, config = config_file
    assert main(["gen", "--config", str(path)]) == 0
    out = Path(config.output_dir)
    assert (out / "sites" / "s0" / "manifest.json").exists()
    assert (out / "experiment.json").exists()

    assert main(["validate", "--config", str(path)]) == 0
    assert main(["characterize", "--config", str(path)]) == 0
    doc = json.loads((out / "characteristics.json").read_text())
    assert doc["experiment"] == config.digest
    assert len(doc["sites"]) == 2
    capsys.readouterr()


def test_validate_detects_corruption(config_file, tmp_path, capsys):
    path, config = config_file
    main(["gen", "--config", str(path)])
    site_dir = Path(config.output_dir) / "sites" / "s0"
    victim = json.loads((site_dir / "manifest.json").read_text())["samples"][0]["sample_id"]
    corrupt_grid_file(site_dir, victim, seed=3)
    report_path = tmp_path / "report.json"
    code = main(["validate", str(site_dir), "--json", str(report_path)])
    assert code == 2
    report = json.loads(report_path.read_text())
    assert report[0]["n_failed"] == 1
    assert report[0]["counts_by_code"] == {"HeaderCorrupt": 1}
    capsys.readouterr()


def test_full_sim_pipeline(config_file, capsys):
    path, config = config_file
    out = Path(config.output_dir)
    assert main(["gen", "--config", str(path)]) == 0
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["train-sim", "--config", str(path)]) == 0
    assert (out / "models" / "models.json").exists()
    assert (out / "timing.csv").exists()

    assert main(["evaluate", "--config", str(path)]) == 0
    for scenario in config.scenarios:
        metrics = out / "eval" / scenario / "metrics.csv"
        assert metrics.exists()
        assert main(["rank", "--in", str(metrics), "--scenario", scenario]) == 0
        assert (metrics.parent / "ranks.csv").exists()
        summary = json.loads((metrics.parent / "summary.json").read_text())
        assert summary["experiment"] == config.digest
        assert summary["best_to_worst"]

    # re-running the evaluation stages reproduces byte-identical artifacts
    snapshots = {f: f.read_bytes() for scenario in config.scenarios
                 for f in (out / "eval" / scenario).iterdir()}
    assert main(["evaluate", "--config", str(path)]) == 0
    for scenario in config.scenarios:
        metrics = out / "eval" / scenario / "metrics.csv"
        assert main(["rank", "--in", str(metrics), "--scenario", scenario]) == 0
    for f, data in snapshots.items():
        assert f.read_bytes() == data, f"{f} changed between identical runs"
    # one scenario on its own writes the bytes of the full evaluation
    for scenario in config.scenarios:
        metrics = out / "eval" / scenario / "metrics.csv"
        metrics.unlink()
        assert main(["evaluate", "--config", str(path), "--scenario", scenario]) == 0
        assert metrics.read_bytes() == snapshots[metrics], scenario

    assert main(["report", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == config.digest
    assert set(report["scenarios"]) == set(config.scenarios)
    capsys.readouterr()


def test_train_sim_rerun_byte_identical(config_file, capsys):
    path, config = config_file
    out = Path(config.output_dir)
    main(["gen", "--config", str(path)])
    assert main(["train-sim", "--config", str(path)]) == 0
    first = {f.name: f.read_bytes() for f in (out / "models").iterdir()}
    timing1 = (out / "timing.csv").read_bytes()
    assert main(["train-sim", "--config", str(path)]) == 0
    second = {f.name: f.read_bytes() for f in (out / "models").iterdir()}
    assert first == second
    assert (out / "timing.csv").read_bytes() == timing1
    capsys.readouterr()


def test_train_sim_resumes_only_a_main_run(tmp_path, capsys):
    # with only leave-out runs configured, s2 crashing at round 2 aborts the
    # first of them; train-sim offers no checkpoint to resume, and refuses
    # --resume, which continues the main run only
    config = small_config(tmp_path, n_sites=3, rounds=3,
                          scenarios=("generalization_without_local",))
    config = replace(config, links=tuple(replace(l, crash_at_round=2) if l.site_id == "s2"
                                         else l for l in config.links))
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["train-sim", "--config", str(path)]) == 3
    assert capsys.readouterr().out == "leave-out run (s0) aborted: round 2: no delta from ['s2']\n"
    ckpt = checkpoint_log(checkpoints_dir(Path(config.output_dir), "loo-s0"))
    assert load_checkpoint(ckpt).round_index == 1
    assert main(["train-sim", "--config", str(path), "--resume", str(ckpt)]) == 1
    assert "--resume continues the main federated run" in capsys.readouterr().err


def test_train_sim_main_run_abort_names_round_and_log(tmp_path, capsys):
    # s1 crashing at round 2 aborts the main run: exit 3, the round and the
    # reason, then the log to resume from; timing.csv covers the rounds run
    config = small_config(tmp_path, n_sites=2, rounds=3)
    config = replace(config, links=tuple(replace(l, crash_at_round=2) if l.site_id == "s1"
                                         else l for l in config.links))
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["train-sim", "--config", str(path)]) == 3
    out = Path(config.output_dir)
    log = checkpoint_log(checkpoints_dir(out, "main"))
    assert capsys.readouterr().out == (
        "experiment aborted at round 2: round 2: no delta from ['s1']\n"
        f"resume from checkpoint log: {log}\n")
    assert load_checkpoint(log).round_index == 1
    assert len((out / "timing.csv").read_text().splitlines()) == 2 + 2 * 2  # stamp, header
    assert not models_dir(out).exists()


def test_train_sim_resume_reproduces_the_uninterrupted_run(tmp_path, monkeypatch, capsys):
    # a main run killed after round 2 of 4 and resumed from its log writes
    # the models and the timing of every round of the run that was not cut
    from conftest import ServerCrash, crash_after_round
    config = small_config(tmp_path, n_sites=2, rounds=4)
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    out = Path(config.output_dir)
    assert main(["train-sim", "--config", str(path)]) == 0
    outputs = sorted(models_dir(out).glob("*.frwt")) + [out / "timing.csv"]
    want = {p: p.read_bytes() for p in outputs}
    for p in outputs:
        p.unlink()

    with monkeypatch.context() as m:
        crash_after_round(m, 2)
        with pytest.raises(ServerCrash) as crash:
            main(["train-sim", "--config", str(path)])
    assert load_checkpoint(crash.value.checkpoint).round_index == 2
    assert not any(p.exists() for p in outputs)
    assert main(["train-sim", "--config", str(path), "--resume",
                 str(crash.value.checkpoint)]) == 0
    assert {p: p.read_bytes() for p in outputs} == want
    capsys.readouterr()


def count_fingerprints(monkeypatch) -> list:
    """Count ``compute_fingerprint`` calls under every fedrad name bound to it."""
    from fedrad import fingerprint
    original, calls = fingerprint.compute_fingerprint, []

    def counted(train):
        calls.append(1)
        return original(train)

    for name, module in list(sys.modules.items()):
        if name.startswith("fedrad") and getattr(module, "compute_fingerprint", None) is original:
            monkeypatch.setattr(module, "compute_fingerprint", counted)
    return calls


def test_train_sim_fingerprints_each_site_once(tmp_path, monkeypatch, capsys):
    # the local models, the main run and the three leave-out runs share them
    config = small_config(tmp_path, n_sites=3, rounds=2,
                          scenarios=[s.value for s in Scenario])
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    calls = count_fingerprints(monkeypatch)
    assert main(["train-sim", "--config", str(path)]) == 0
    assert len(calls) == 3
    capsys.readouterr()


def test_train_sim_names_a_site_without_training_samples(tmp_path, capsys):
    # two samples at test_fraction 0.9 all go to the test split; the data
    # pass validation, and train-sim names the site it cannot train
    config = small_config(tmp_path)
    config = replace(config, test_fraction=0.9,
                     sites=tuple(replace(p, n_samples=2) for p in config.sites))
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["train-sim", "--config", str(path)]) == 1
    assert "fedrad: site s0 has no training samples" in capsys.readouterr().err


def test_train_sim_refuses_a_mask_of_another_shape(config_file, capsys):
    # a training mask one slice short of its volume: train-sim exits 1 naming
    # the sample instead of training on labels of other voxels
    from fedrad.siteio import read_grid, write_grid
    path, config = config_file
    assert main(["gen", "--config", str(path)]) == 0
    sdir = site_dir(Path(config.output_dir), "s0")
    manifest = json.loads((sdir / "manifest.json").read_text())
    entry = next(e for e in manifest["samples"] if e["split"] == "train")
    labels, spacing = read_grid(sdir / entry["mask_file"])
    write_grid(sdir / entry["mask_file"], labels[:-1], spacing)
    capsys.readouterr()
    assert main(["train-sim", "--config", str(path)]) == 1
    assert (f"fedrad: sample {entry['sample_id']}: mask shape {labels[:-1].shape} "
            f"differs from volume shape {labels.shape}") in capsys.readouterr().err


def test_characterize_refuses_another_experiments_data(config_file, tmp_path, capsys):
    path, config = config_file
    assert main(["gen", "--config", str(path)]) == 0
    other = tmp_path / "other.json"
    exp.save_config(replace(config, seed=999), other)  # same output_dir
    assert main(["characterize", "--config", str(other)]) == 1
    assert "different experiment" in capsys.readouterr().err
    assert not (Path(config.output_dir) / "characteristics.json").exists()


@pytest.mark.parametrize("artifact", ["summary.json", "metrics.csv", "timing.csv",
                                      "characteristics.json"])
def test_report_refuses_foreign_artifacts(config_file, capsys, artifact):
    path, config = config_file
    out = Path(config.output_dir)
    for stage in ("gen", "train-sim", "evaluate", "characterize"):
        assert main([stage, "--config", str(path)]) == 0
    for scenario in config.scenarios:
        metrics = out / "eval" / scenario / "metrics.csv"
        assert main(["rank", "--in", str(metrics), "--scenario", scenario]) == 0
    assert main(["report", "--config", str(path)]) == 0
    capsys.readouterr()

    # stamp one artifact with another experiment's digest
    in_eval = artifact in ("summary.json", "metrics.csv")
    victim = (out / "eval" / config.scenarios[0] if in_eval else out) / artifact
    text = victim.read_text()
    assert text.count(config.digest) == 1
    victim.write_text(text.replace(config.digest, "f" * 64))
    assert main(["report", "--config", str(path)]) == 1
    assert f"{victim} belongs to" in capsys.readouterr().err


def _serve_and_join(config_path, site_dirs):
    """Run ``fedrad serve`` on a free port and ``fedrad join`` for every site
    dir, each on its own thread; returns the server's and the sites' exit codes."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    rcs = {}

    def serve():
        rcs["serve"] = main(["serve", "--config", str(config_path),
                             "--bind", f"127.0.0.1:{port}"])

    def join(site_dir):
        deadline = time.monotonic() + 15
        rc = 1
        while rc == 1 and time.monotonic() < deadline:
            rc = main(["join", "--site", str(site_dir),
                       "--server", f"127.0.0.1:{port}", "--config", str(config_path)])
            if rc == 1:
                time.sleep(0.1)
        rcs[site_dir] = rc

    threads = [threading.Thread(target=serve, daemon=True)]
    threads += [threading.Thread(target=join, args=(d,), daemon=True) for d in site_dirs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "serve or join hung"
    return rcs.get("serve"), [rcs.get(d) for d in site_dirs]


def test_serve_setup_timeout_aborts(tmp_path, capsys):
    # no site joins: serve exits 3 at round 0, with no log to resume from
    config = replace(small_config(tmp_path, n_sites=2), transport="tcp", setup_timeout_s=0.2)
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["serve", "--config", str(path), "--bind", "127.0.0.1:0"]) == 3
    listening, aborted = capsys.readouterr().out.splitlines(keepends=True)
    assert re.fullmatch(r"listening on 127\.0\.0\.1:\d+\n", listening)
    assert aborted == ("experiment aborted at round 0: "
                       "setup timeout: missing fingerprints from ['s0', 's1']\n")


def test_tcp_serve_join_roundtrip(tmp_path, capsys):
    config = small_config(tmp_path, n_sites=1, rounds=2)
    from dataclasses import replace
    config = replace(config, transport="tcp")
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    main(["gen", "--config", str(path)])

    site_dir = Path(config.output_dir) / "sites" / "s0"
    server_rc, join_rcs = _serve_and_join(path, [site_dir])
    assert join_rcs == [0]
    assert server_rc == 0
    assert (site_dir / "final_model.frwt").exists()
    # the server stored the fed model, the only one it trains, in the registry
    registry = exp.load_registry(Path(config.output_dir), config.digest)
    from fedrad.learner import load_weights
    assert list(registry) == ["fed"]
    assert np.array_equal(load_weights(site_dir / "final_model.frwt"),
                          registry["fed"].weights)
    capsys.readouterr()


def test_serve_needs_no_site_data(tmp_path, capsys):
    # a federation server holds no site data: with the sites moved out of its
    # output dir, serve still stores the fed model that the simulator trains
    from dataclasses import replace
    from fedrad import siteio
    from fedrad.simnet import run_simulated
    config = replace(small_config(tmp_path, n_sites=2, rounds=2), transport="tcp")
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    out = Path(config.output_dir)
    at_sites = tmp_path / "at-the-sites"
    sites_dir(out).rename(at_sites)
    site_dirs = [at_sites / s for s in config.site_ids]

    server_rc, join_rcs = _serve_and_join(path, site_dirs)
    assert join_rcs == [0, 0]
    assert server_rc == 0
    assert not sites_dir(out).exists()

    datasets = {s: siteio.load_site_dataset(at_sites / s) for s in config.site_ids}
    sim = run_simulated(exp.server_params(config, None), datasets,
                        exp.zero_fault_links(config))
    fed = exp.load_registry(out, config.digest)["fed"]
    assert np.array_equal(fed.weights, sim.final_weights)
    assert to_dict(fed.feature_config) == to_dict(sim.derived.feature_config)
    capsys.readouterr()


def test_serve_refuses_a_log_short_of_the_final_round(config_file, monkeypatch, capsys):
    # the fed model's feature config comes from the final round's record; a
    # log that ends earlier stores no model and exits 1, naming the log
    import fedrad.fedproto as fedproto
    from fedrad.fedproto import Checkpoint
    from fedrad.fingerprint import average_fingerprints, compute_fingerprint
    from fedrad.learner import WEIGHT_LEN
    from test_fedproto import make_datasets
    path, config = config_file
    fp = average_fingerprints([compute_fingerprint(ds.train)
                               for ds in make_datasets(["s1"]).values()])

    def stops_short(params, listener, resume=None):
        Path(params.checkpoint_dir).mkdir(parents=True)
        Checkpoint(round_index=config.rounds - 1, weights=np.zeros(WEIGHT_LEN), fp_avg=fp,
                   experiment_seed=config.seed, experiment_digest=config.digest,
                   ).save(checkpoint_log(params.checkpoint_dir))
        return np.zeros(WEIGHT_LEN)

    monkeypatch.setattr(fedproto, "run_server", stops_short)
    assert main(["serve", "--config", str(path), "--bind", "127.0.0.1:0"]) == 1
    err = capsys.readouterr().err
    log = checkpoints_dir(Path(config.output_dir), "main") / "checkpoints.frck"
    assert f"the last record of {log} is round {config.rounds - 1}" in err
    with pytest.raises(FileNotFoundError):
        exp.load_registry(Path(config.output_dir), config.digest)


def test_evaluate_reads_only_test_grids(config_file, capsys):
    # scoring needs the test samples alone; a missing training grid changes
    # nothing, and a corrupt test grid or model file, or a model file copied
    # over another, is still refused, naming the file
    path, config = config_file
    out = Path(config.output_dir)
    for stage in ("gen", "train-sim", "evaluate"):
        assert main([stage, "--config", str(path)]) == 0
    outputs = [eval_dir(out, s) / "metrics.csv" for s in config.scenarios]
    want = [p.read_bytes() for p in outputs]
    s0 = site_dir(out, "s0")
    split = {e["sample_id"]: e["split"]
             for e in json.loads((s0 / "manifest.json").read_text())["samples"]}
    train_id = min(k for k, v in split.items() if v == "train")
    (s0 / f"{train_id}.vol.frvd").unlink()
    for p in outputs:
        p.unlink()
    assert main(["evaluate", "--config", str(path)]) == 0
    assert [p.read_bytes() for p in outputs] == want

    model = min(models_dir(out).glob("*.frwt"))
    good = model.read_bytes()
    raw = bytearray(good)
    raw[-2] |= 0xF0  # every exponent bit of the last weight: an infinity or a NaN
    raw[-1] |= 0x7F
    model.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{model}: non-finite weights" in err
    assert "Traceback" not in err
    model.write_bytes(good)

    # valid weights copied in from another model are refused as well, and no
    # metrics are written from them
    local = models_dir(out) / "local_s0.frwt"
    good_local = local.read_bytes()
    local.write_bytes(good)
    for p in outputs:
        p.unlink()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{local}: sha256 differs" in err
    assert "Traceback" not in err
    assert not any(p.exists() for p in outputs)
    local.write_bytes(good_local)

    test_id = min(k for k, v in split.items() if v == "test")
    corrupted = corrupt_grid_file(s0, test_id, seed=3)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(corrupted) in err
    assert "Traceback" not in err


def test_evaluate_after_serve_names_a_missing_local_model(tmp_path, capsys):
    # serve leaves a registry with the fed model alone, and only train-sim
    # trains local models: evaluate exits 1 naming the first one it lacks,
    # and writes no metrics
    config = replace(small_config(tmp_path, n_sites=2, rounds=2), transport="tcp")
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    out = Path(config.output_dir)
    server_rc, join_rcs = _serve_and_join(path, [site_dir(out, s) for s in config.site_ids])
    assert (server_rc, join_rcs) == (0, [0, 0])
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path)]) == 1
    assert "missing trained model: local:s0" in capsys.readouterr().err
    assert not list(out.glob("eval/*/metrics.csv"))


def test_usage_errors(tmp_path, capsys):
    assert main(["gen", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["validate"]) == 1
    capsys.readouterr()


def test_validate_json_into_a_directory_is_a_usage_error(config_file, tmp_path, capsys):
    path, config = config_file
    assert main(["gen", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["validate", "--config", str(path), "--json", str(tmp_path)]) == 1
    assert re.fullmatch(r"fedrad: \[Errno \d+\] Is a directory: .*\n", capsys.readouterr().err)


def test_serve_on_a_port_in_use_is_a_usage_error(config_file, capsys):
    path, _ = config_file
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert main(["serve", "--config", str(path), "--bind", f"127.0.0.1:{port}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fedrad: ") and "Address already in use" in err


def test_console_entry_point():
    result = subprocess.run([sys.executable, "-m", "fedrad.cli", "--help"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "fedrad" in result.stdout


def _frame_round_start_3_weights(conn):
    from fedrad import wire
    from fedrad.config import TrainConfig
    conn.recv(timeout=10)  # Register
    fp = conn.recv(timeout=10).fingerprint
    train = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=4,
                        learning_rate=0.1, seed=1)
    return (wire.encode_frame(wire.ConfigBroadcast(
                fp_avg=fp, experiment_seed=1, rounds=1, train=train,
                experiment_digest="0" * 64))
            + wire.encode_frame(wire.RoundStart(round_index=1, weights=np.zeros(3))))


def _frame_garbage(conn):
    return b"this is not a frame at all"


@pytest.mark.parametrize("reply,reason", [
    (_frame_round_start_3_weights, "server sent RoundStart weights that are not 16 finite numbers"),
    (_frame_garbage, "undecodable message from server: bad magic b'th'")],
    ids=["_frame_round_start_3_weights", "_frame_garbage"])
def test_join_bad_server_message_aborts(tmp_path, capsys, reply, reason):
    # a server that sends a wrong-length weight vector or an undecodable frame
    # ends the site's run as a resumable abort (exit 3)
    from fedrad.transport import TcpConnection
    config = small_config(tmp_path, n_sites=1, rounds=1)
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    main(["gen", "--config", str(path)])
    site_dir = Path(config.output_dir) / "sites" / "s0"
    capsys.readouterr()

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        sock, _ = listener.accept()
        with sock:
            sock.sendall(reply(TcpConnection(sock)))
            sock.settimeout(10)
            while sock.recv(4096):  # hold the line until the site hangs up
                pass

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        rc = main(["join", "--site", str(site_dir), "--server", f"127.0.0.1:{port}"])
    finally:
        server.join(timeout=30)
        listener.close()
    assert not server.is_alive()
    assert rc == 3
    assert capsys.readouterr().out == f"site s0: aborted: {reason}\n"


def _scipy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the scipy.stats/ndimage modules it loaded."""
    code += ("\nimport json, sys\nprint(json.dumps([m for m in ('scipy.stats', 'scipy.ndimage')"
             " if m in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats and scipy.ndimage cost hundreds of modules of start-up in
    # every fedrad process; only `evaluate`, for the erosion that finds the
    # boundaries it scores, loads scipy.ndimage
    assert _scipy_modules_after("import fedrad.cli") == []


def test_gen_and_validate_leave_out_scipy_ndimage(config_file):
    path, _config = config_file
    code = ("from fedrad.cli import main\n"
            f"assert main(['gen', '--config', {str(path)!r}]) == 0\n"
            f"assert main(['validate', '--config', {str(path)!r}]) == 0")
    assert _scipy_modules_after(code) == []


def test_rank_and_report_leave_out_scipy_ndimage(config_file, capsys):
    path, config = config_file
    for stage in ("gen", "train-sim", "evaluate"):
        assert main([stage, "--config", str(path)]) == 0
    capsys.readouterr()
    out = Path(config.output_dir)
    calls = [["rank", "--in", str(out / "eval" / s / "metrics.csv"), "--scenario", s]
             for s in config.scenarios] + [["report", "--config", str(path)]]
    code = "from fedrad.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in calls)
    assert _scipy_modules_after(code) == []
    assert (out / "report.json").exists()


def _run_stage(argv: list[str], packages: tuple[str, ...] = ("scipy",)) -> tuple[int, list[str]]:
    """``fedrad.cli.main(argv)`` in a fresh interpreter: its exit code and the
    modules of ``packages`` (scipy, or numpy too) loaded when it returned."""
    code = ("import json, sys\nfrom fedrad.cli import main\n"
            f"try:\n    rc = main({argv!r})\nexcept SystemExit as stop:\n    rc = stop.code\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {packages!r})]))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    rc, modules = json.loads(result.stdout.splitlines()[-1])
    return rc, modules


def test_only_evaluate_loads_scipy(config_file):
    # importing scipy.ndimage costs tenths of a second and about 19 MB per
    # process; only the boundary erosion of `evaluate` needs it, and a
    # stray import in any other stage would bring that cost back
    path, config = config_file
    out = Path(config.output_dir)
    cfg = ["--config", str(path)]
    stages = [["--help"], ["gen", *cfg], ["validate", *cfg], ["train-sim", *cfg],
              ["characterize", *cfg], ["evaluate", *cfg]]
    stages += [["rank", "--in", str(out / "eval" / s / "metrics.csv"), "--scenario", s]
               for s in config.scenarios]
    stages += [["report", *cfg]]
    loaded = []
    for argv in stages:
        rc, modules = _run_stage(argv)
        assert rc == 0, argv
        if modules:
            loaded.append(argv[0])
    assert loaded == ["evaluate"]
    assert (out / "report.json").exists()


def test_help_rank_and_report_load_no_numpy(config_file):
    # these stages read and write small CSV and JSON files; loading numpy
    # would cost each of them more than the rest of its start-up
    path, config = config_file
    out = Path(config.output_dir)
    cfg = ["--config", str(path)]
    for argv in (["gen", *cfg], ["train-sim", *cfg], ["evaluate", *cfg]):
        assert main(argv) == 0, argv
    stages = [["--help"]]
    stages += [["rank", "--in", str(out / "eval" / s / "metrics.csv"), "--scenario", s]
               for s in config.scenarios]
    stages += [["report", *cfg]]
    for argv in stages:
        rc, modules = _run_stage(argv, packages=("numpy", "scipy"))
        assert (rc, modules) == (0, []), argv
    assert (out / "report.json").exists()


def test_config_not_an_object_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for text in ("[]", "5", '"exp"'):
        path.write_text(text)
        assert main(["gen", "--config", str(path)]) == 1
        assert "cannot load config" in capsys.readouterr().err


def test_validate_manifest_not_an_object(tmp_path, capsys):
    site = tmp_path / "site"
    site.mkdir()
    (site / "manifest.json").write_text("[]")
    assert main(["validate", str(site)]) == 1
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize("fields,named", MALFORMED_MANIFESTS, ids=MALFORMED_IDS)
def test_validate_malformed_manifest_is_a_usage_error(tmp_path, capsys, fields, named):
    site = tmp_path / "site"
    site.mkdir()
    (site / "manifest.json").write_text(json.dumps(dict(format="frvd-site-v1", **fields)))
    assert main(["validate", str(site)]) == 1
    err = capsys.readouterr().err
    assert "manifest.json" in err
    assert re.search(named, err)



@pytest.mark.parametrize("artifact,stage", [("experiment.json", "gen"),
                                            ("manifest.json", "validate"),
                                            ("manifest.json", "evaluate"),
                                            ("summary.json", "report")])
def test_json_nested_too_deep_is_a_usage_error(config_file, capsys, artifact, stage):
    """A JSON artifact of 100,000 '[' ends the stage that reads it with exit 1
    and the file named, not with a RecursionError traceback."""
    config_path, config = config_file
    out = Path(config.output_dir)
    if artifact == "experiment.json":  # the config the stage is given
        victim = config_path = config_path.parent / artifact
    elif artifact == "manifest.json":
        assert main(["gen", "--config", str(config_path)]) == 0
        victim = site_dir(out, "s0") / artifact
    else:
        victim = eval_dir(out, config.scenarios[0]) / artifact
        victim.parent.mkdir(parents=True)
        (victim.parent / "metrics.csv").write_text("")
    victim.write_text("[" * 100_000)
    capsys.readouterr()
    argv = ([stage, str(victim.parent)] if stage == "validate"
            else [stage, "--config", str(config_path)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(victim) in err and "not valid JSON" in err
    assert "Traceback" not in err


_METRICS_HEADER = "model,site,sample,class,metric,value,status"
_GOOD_METRICS_ROWS = [f"{model},s0,case0,1,{metric},0.5,Scored"
                      for model in ("FL", "L") for metric in ("DSC", "NSD", "HSD", "NAVE")]


def test_rank_refuses_a_metrics_file_without_records(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_text(stamped_csv("e" * 64, [_METRICS_HEADER]))
    assert main(["rank", "--in", str(path), "--scenario", "personalization"]) == 1
    err = capsys.readouterr().err
    assert f"{path}: no metric records" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ranks.csv").exists()


@pytest.mark.parametrize("row,named", [
    ("FL,s0,case0,1,DSC,0.5", "expected 7"),
    ("FL,s0,case0,one,DSC,0.5,Scored", "'one'"),
    ("FL,s0,case0,1,DSC,0.5,Bogus", "'Bogus'"),
    ("FL,s0,case0,1,DSC,nan,Scored", "not finite"),
], ids=["six-fields", "class-not-an-int", "unknown-status", "scored-nan"])
def test_rank_refuses_malformed_metrics_row(tmp_path, capsys, row, named):
    """A bad metrics.csv row ends `fedrad rank` with exit 1, the file and the
    line named, and no ranks written."""
    path = tmp_path / "metrics.csv"
    argv = ["rank", "--in", str(path), "--scenario", "personalization"]
    path.write_text(stamped_csv("e" * 64, [_METRICS_HEADER, *_GOOD_METRICS_ROWS]))
    assert main(argv) == 0  # the file without the bad row ranks
    (tmp_path / "ranks.csv").unlink()
    capsys.readouterr()
    # line 1 is the stamp, 2 the header, 3 and 4 good rows, 5 the bad one
    path.write_text(stamped_csv("e" * 64, [_METRICS_HEADER, *_GOOD_METRICS_ROWS[:2], row,
                                           *_GOOD_METRICS_ROWS[2:]]))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path}:5: " in err
    assert named in err
    assert not (tmp_path / "ranks.csv").exists()
