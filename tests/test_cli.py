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
    # the server also stored the fed model in the registry
    registry = exp.load_registry(Path(config.output_dir), config.digest)
    from fedrad.learner import load_weights
    assert np.array_equal(load_weights(site_dir / "final_model.frwt"),
                          registry.fed.weights)
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
    exp.sites_dir(out).rename(at_sites)
    site_dirs = [at_sites / s for s in config.site_ids]

    server_rc, join_rcs = _serve_and_join(path, site_dirs)
    assert join_rcs == [0, 0]
    assert server_rc == 0
    assert not exp.sites_dir(out).exists()

    datasets = {s: siteio.load_site_dataset(at_sites / s) for s in config.site_ids}
    sim = run_simulated(exp.server_params(config, None), datasets,
                        exp.zero_fault_links(config))
    fed = exp.load_registry(out, config.digest).fed
    assert np.array_equal(fed.weights, sim.final_weights)
    assert fed.feature_config.to_dict() == sim.derived.feature_config.to_dict()
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert main(["gen", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["validate"]) == 1
    capsys.readouterr()


def test_console_entry_point():
    result = subprocess.run([sys.executable, "-m", "fedrad.cli", "--help"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "fedrad" in result.stdout


def _frame_round_start_3_weights(conn):
    from fedrad import wire
    from fedrad.learner import TrainConfig
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


@pytest.mark.parametrize("reply", [_frame_round_start_3_weights, _frame_garbage])
def test_join_bad_server_message_aborts(tmp_path, capsys, reply):
    # a server that sends a wrong-length weight vector or an undecodable frame
    # ends the site's run as a resumable abort (exit 3)
    from fedrad.transport import TcpConnection
    config = small_config(tmp_path, n_sites=1, rounds=1)
    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    main(["gen", "--config", str(path)])
    site_dir = Path(config.output_dir) / "sites" / "s0"

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
    assert "aborted" in capsys.readouterr().out


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
    # every fedrad process; only the stages that filter, label or take a
    # distance transform load scipy.ndimage
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
