"""Program-side processes of the benchmark; started by run.py, one per job.

    child.py stage --trace-out F --op N -- <fedrad args>
        one traced fedrad command, as ``fedrad <args>`` would run it
    child.py evalsetup --seed S --dir D --setups K --result R [--trace-out F]
        generate, validate and train the eval-6site experiment K times
    child.py evalpass --dir D --op N --result R [--trace-out F]
        one timed pass: evaluate, then rank every scenario
    child.py tcp --seed S --seconds T --dir D --result R [--trace-out F]
        set up, then run loopback-TCP federations for T seconds

Every job writes its measurements as JSON to ``--result`` (and its spans
to ``--trace-out`` when traced). Its times are wall times scaled by the
reference kernel timed around each operation (speed.Scaler), and
``kernel_s`` lists the kernel's samples. Setup spans are tagged with a
negative operation id, timed-loop spans with a non-negative one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import threading
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
from tracer import Tracer, TracedConnection, TracedListener, install  # noqa: E402

SIZES = {
    # eval-6site: six sites, a short training schedule (set-up only).
    "eval": {"n_sites": 6, "rounds": 5, "epochs": 5, "batches_per_epoch": 20},
    # fed-tcp-2site: one batch per round, a checkpoint every round.
    "tcp": {"n_sites": 2, "rounds": 200},
}
TINY = {
    "eval": {"n_sites": 3, "rounds": 2, "epochs": 2, "batches_per_epoch": 3},
    "tcp": {"n_sites": 2, "rounds": 5},
}
# A federation is op base k * OP_STRIDE; its round t is op base + t.
OP_STRIDE = 1_000_000


class Job:
    """The optional tracer plus the fedrad import, shared by every job."""

    def __init__(self, trace_out: str | None, op: int):
        self.tracer = Tracer() if trace_out else None
        self.trace_out = trace_out
        self.set_op(op)
        self.cli = self.call("cli.import", importlib.import_module, "fedrad.cli")
        if self.tracer:
            install(self.tracer)

    def set_op(self, op: int) -> None:
        if self.tracer:
            self.tracer.set_op(op)

    def call(self, name: str, fn, *args):
        if self.tracer:
            return self.tracer.span(name, fn, *args)
        return fn(*args)

    def fedrad(self, argv: list[str]) -> int:
        """Run one fedrad command in-process, in a span named after it."""
        return self.call(f"cli.{argv[0]}", self.cli.main, argv)

    def finish(self, result_path: str | None, result: dict) -> None:
        if self.tracer:
            self.tracer.dump(self.trace_out)
        if result_path:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            Path(result_path).write_text(json.dumps(result))


def sizes(kind: str, tiny: bool) -> dict:
    return (TINY if tiny else SIZES)[kind]


def experiment_config(seed: int, size: dict, output_dir: str):
    """default_config(n) with the workload seed and a shortened schedule."""
    from dataclasses import replace
    from fedrad import experiment as exp
    config = exp.default_config(size["n_sites"])
    train = replace(config.train, seed=seed,
                    epochs=size.get("epochs", size["rounds"]),
                    batches_per_epoch=size.get("batches_per_epoch", 1))
    return replace(config, seed=seed, rounds=size["rounds"], train=train,
                   output_dir=output_dir)


# ---------------------------------------------------------------------------

def cmd_stage(args) -> int:
    job = Job(args.trace_out, args.op)
    try:
        return job.fedrad(args.argv)
    finally:
        job.finish(None, {})


def cmd_evalsetup(args) -> int:
    job = Job(args.trace_out, -1)
    from fedrad import experiment as exp
    times, scaler = [], speed.Scaler()
    for i in range(args.setups):
        job.set_op(-(i + 1))
        d = Path(args.dir) / f"setup{i}"
        d.mkdir(parents=True)
        os.chdir(d)
        exp.save_config(experiment_config(args.seed, sizes("eval", args.tiny), "out"),
                        Path("experiment.json"))
        total = 0.0
        for stage in ("gen", "validate", "train-sim"):
            t0 = time.perf_counter()
            rc = job.fedrad([stage, "--config", "experiment.json"])
            if rc != 0:
                raise SystemExit(f"eval set-up: fedrad {stage} exited with {rc}")
            total += (time.perf_counter() - t0) * scaler.scale()
        times.append(total)
    job.finish(args.result, {"setup_s": times, "kernel_s": scaler.samples, "dir": str(d)})
    return 0


def cmd_evalpass(args) -> int:
    job = Job(args.trace_out, args.op)
    os.chdir(args.dir)
    scenarios = json.loads(Path("experiment.json").read_text())["scenarios"]
    calls = [["evaluate", "--config", "experiment.json"]]
    calls += [["rank", "--in", f"out/eval/{s}/metrics.csv", "--scenario", s]
              for s in scenarios]
    timed, scaler = [], speed.Scaler()
    for argv in calls:
        t0 = time.perf_counter()
        rc = job.fedrad(argv)
        timed.append({"command": argv[0], "s": time.perf_counter() - t0, "rc": rc})
    scale = scaler.scale()  # the kernel around the whole pass scales each call
    for call in timed:
        call["s"] *= scale
    job.finish(args.result, {"calls": timed, "kernel_s": scaler.samples})
    return 0


# ---------------------------------------------------------------------------
# fed-tcp-2site

class RoundClock:
    """Client connection proxy noting when each RoundStart/FinalModel arrives."""

    def __init__(self, conn, arrivals: list[float], kinds: tuple):
        self._conn = conn
        self._arrivals = arrivals
        self._kinds = kinds

    def send(self, msg) -> None:
        self._conn.send(msg)

    def recv(self, timeout=None):
        msg = self._conn.recv(timeout)
        if isinstance(msg, self._kinds):
            self._arrivals.append(time.perf_counter())
        return msg

    def close(self) -> None:
        self._conn.close()


def weights_digest(w) -> str:
    import numpy as np
    return hashlib.sha256(np.asarray(w, dtype="<f8").tobytes()).hexdigest()


def tcp_setup(config, out: Path):
    """Generate, validate and load the site data; run the simulated oracle."""
    from fedrad import experiment as exp
    from fedrad.simnet import run_simulated
    from fedrad.validation import validate_site_dir
    exp.generate_all(config, out)
    for sid in config.site_ids:
        if not validate_site_dir(exp.site_dir(out, sid)).all_passed:
            raise SystemExit(f"tcp set-up: site {sid} failed validation")
    datasets = exp.load_all(config, out)
    params = exp.server_params(config, out / "oracle-checkpoints")
    sim = run_simulated(params, datasets, exp.zero_fault_links(config),
                        per_batch_seconds=config.per_batch_seconds)
    if sim.aborted:
        raise SystemExit(f"tcp set-up: simulated oracle aborted: {sim.abort_reason}")
    return datasets, weights_digest(sim.final_weights)


def federation(job: Job, config, datasets, pass_dir: Path, op: int) -> dict:
    """One loopback-TCP federation: run_server here, one run_client thread per site."""
    from fedrad import experiment as exp, wire
    from fedrad.fedproto import run_client, run_server
    from fedrad.learner import load_weights
    from fedrad.transport import TcpServerTransport, connect_tcp

    sites = config.site_ids
    params = exp.server_params(config, pass_dir / "checkpoints")
    listener = TcpServerTransport("127.0.0.1", 0)
    host, port = listener.address
    arrivals = {s: [] for s in sites}
    finals, errors = {}, {}

    def client(site: str) -> None:
        job.set_op(op)
        try:
            conn = connect_tcp(host, port)
            if job.tracer:
                conn = TracedConnection(job.tracer, conn, op)
            conn = RoundClock(conn, arrivals[site], (wire.RoundStart, wire.FinalModel))
            finals[site] = weights_digest(run_client(
                datasets[site], conn, expected_digest=config.digest,
                model_out=pass_dir / f"{site}.frwt"))
        except Exception as exc:  # reported as a failed federation
            errors[site] = repr(exc)

    job.set_op(op)
    server_listener = TracedListener(job.tracer, listener, op) if job.tracer else listener
    threads = [threading.Thread(target=client, args=(s,), daemon=True) for s in sites]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    try:
        final = weights_digest(run_server(params, server_listener))
    except Exception as exc:
        final, errors["server"] = None, repr(exc)
    finally:
        listener.close()
        for t in threads:
            t.join(timeout=30)
    wall = time.perf_counter() - t0
    errors.update({s: "client thread did not end" for s, t in zip(sites, threads)
                   if t.is_alive()})
    saved = {s: weights_digest(load_weights(pass_dir / f"{s}.frwt"))
             for s in sites if (pass_dir / f"{s}.frwt").exists()}
    clock = arrivals[sites[0]]
    return {"wall_s": wall, "server": final, "clients": finals, "saved": saved,
            "errors": errors, "arrivals": clock}


def cmd_tcp(args) -> int:
    import shutil
    job = Job(args.trace_out, -1)
    size = sizes("tcp", args.tiny)
    config = experiment_config(args.seed, size, "out")
    work = Path(args.dir)

    scaler = speed.Scaler(partial(speed.federation_reference_s, str(work)))
    setup_times = []
    for i in range(args.setups):
        job.set_op(-(i + 1))
        t0 = time.perf_counter()
        datasets, oracle = tcp_setup(config, work / f"setup{i}")
        setup_times.append((time.perf_counter() - t0) * scaler.scale())

    feds = []
    t_start = time.perf_counter()
    while len(feds) < args.min_passes or time.perf_counter() - t_start < args.seconds:
        pass_dir = work / f"fed{len(feds)}"
        pass_dir.mkdir()
        fed = federation(job, config, datasets, pass_dir, len(feds) * OP_STRIDE)
        fed["scale"] = scaler.scale()  # for the federation's wall and arrival times
        feds.append(fed)
        shutil.rmtree(pass_dir)
    job.finish(args.result, {"setup_s": setup_times, "kernel_s": scaler.samples,
                             "oracle": oracle, "rounds": config.rounds, "federations": feds})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="job", required=True)

    p = sub.add_parser("stage")
    p.add_argument("--trace-out", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("evalsetup")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--setups", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--tiny", action="store_true")
    p.set_defaults(func=cmd_evalsetup)

    p = sub.add_parser("evalpass")
    p.add_argument("--dir", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_evalpass)

    p = sub.add_parser("tcp")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--setups", type=int, required=True)
    p.add_argument("--min-passes", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--tiny", action="store_true")
    p.set_defaults(func=cmd_tcp)

    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
