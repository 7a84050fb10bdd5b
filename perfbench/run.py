#!/usr/bin/env python3
"""fedrad benchmark: three closed-loop workloads, each driven by one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. perfbench/README.md explains every workload and
metric. Scratch files go to ``.perfbench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
PYTHON = sys.executable
DEFAULT_SEED = 20240117
CHILD_TIMEOUT_S = 150.0
# Set-ups per run (setup_s is their median), and the fewest timed passes a
# run makes: two pipelines, so every seed's artifacts are compared between
# two runs of the program.
SETUPS = {"pipeline-3site": 3, "eval-6site": 3, "fed-tcp-2site": 9}
MIN_PASSES = {"pipeline-3site": 2, "eval-6site": 3, "fed-tcp-2site": 2}

# The end-to-end metrics every workload prints with --trace 0.
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s", "core_s": "s",
    "items_per_s": "1/s", "op_p50_ms": "ms",
}

WIRE_TYPES = ("Register", "FingerprintSubmit", "ConfigBroadcast", "RoundStart",
              "DeltaUpload", "CheckpointNotice", "FinalModel")
CLI_STAGES = ("gen", "validate", "train-sim", "evaluate", "rank", "characterize", "report")

# Traced spans and the statistics reported for each. "calls" counts spans,
# "us" is mean microseconds per call, "s" total seconds, "self_s" total
# seconds minus the time of traced calls made inside.
LAYER_STATS = (
    (("cli.import",) + tuple(f"cli.{s}" for s in CLI_STAGES), ("s",)),
    (("learner.loss_and_grad", "learner.forward", "learner.extract_features",
      "fedproto.checkpoint_save", "fedproto.aggregate", "wire.encode_frame",
      "wire.decode_frame", "transport.send"), ("calls", "us")),
    (("learner.ensemble_predict", "metrics.score_pair"), ("calls", "self_s")),
    (("metrics.edt", "siteio.load_site_dataset", "fingerprint.compute_fingerprint"),
     ("calls", "s")),
    (("learner.train_epochs",), ("self_s",)),
    (("simnet.run_simulated", "experiment.train_local_models", "evalrank.run_scenario",
      "siteio.save_site_dataset", "dataset.generate_site_dataset",
      "validation.validate_site_dir"), ("s",)),
)
STAT_UNITS = {"calls": "count", "us": "us", "s": "s", "self_s": "s"}
# metric name -> (span name, statistic)
PER_LAYER = {f"{span}.{stat}": (span, stat)
             for spans, stats in LAYER_STATS for span in spans for stat in stats}
PER_LAYER["transport.recv_wait_s"] = ("transport.recv", "s")
PER_LAYER_UNITS = {name: STAT_UNITS[stat] for name, (_, stat) in PER_LAYER.items()}
PER_LAYER_UNITS.update({f"wire.bytes.{t}": "B" for t in WIRE_TYPES})
# The traced run's pass_s and op_p95_ms: the tracing overhead is traced.pass_s
# minus pass_s. op_p95_ms is reported only here, without a bound: only the
# TCP workload has the 10 samples beyond p95 that it needs (README).
PER_LAYER_UNITS["traced.pass_s"] = "s"
PER_LAYER_UNITS["traced.op_p95_ms"] = "ms"


class Run:
    """Measurements and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.tiny = tiny
        self.dir = WORK / workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.trace_files: list[Path] = []
        self.setups = 0
        self.passes = 0
        self.peak_rss_mb = 0.0
        self.kernel_s: list[float] = []  # reference-kernel samples, for stderr
        self._jobs = 0

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(why)

    def trace_file(self) -> Path | None:
        if not self.trace:
            return None
        path = self.dir / f"spans-{len(self.trace_files)}.json"
        self.trace_files.append(path)
        return path

    def child(self, cmd: list[str], cwd: Path, *, pass_rss: bool) -> tuple[float, int]:
        """Run one process to completion; returns (wall seconds, exit code)."""
        self._jobs += 1
        log = self.dir / f"job-{self._jobs}.log"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT, env=env)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if pass_rss:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"{' '.join(cmd[-3:])}: exit {proc.returncode}: {tail}")
        return wall, proc.returncode


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    return {str(p.relative_to(out)): sha256(p)
            for pattern in patterns for p in sorted(out.glob(pattern))}


def check_digests(run: Run, found: dict, first: dict | None, ops: int) -> None:
    """Gate one pass: recorded digests at the default seed, else the first pass."""
    if run.seed == DEFAULT_SEED and not run.tiny:
        want, what = json.loads((HERE / "digests.json").read_text())[run.workload], "recorded"
    elif first is not None:
        want, what = first, "first pass's"
    else:
        return
    bad = sorted(k for k in set(found) | set(want) if found.get(k) != want.get(k))
    if bad:
        run.fail(ops, f"artifacts differ from the {what} digests: {bad}")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# pipeline-3site: the README's nine stages, each its own fedrad process.

PIPELINE_ARTIFACTS = ("models/*.frwt", "eval/*/metrics.csv", "eval/*/ranks.csv",
                      "eval/*/summary.json", "report.json")


def pipeline_config(seed: int, tiny: bool) -> dict:
    config = json.loads((ROOT / "configs" / "default.json").read_text())
    config["seed"] = seed
    config["train"]["seed"] = seed
    if tiny:
        config["rounds"] = 2
        config["train"].update(epochs=2, batches_per_epoch=3)
    return config


def sgd_steps(config: dict) -> int:
    """SGD steps of train-sim: local models, the federation, leave-one-out runs."""
    n, rounds = len(config["sites"]), config["rounds"]
    epochs, batches = config["train"]["epochs"], config["train"]["batches_per_epoch"]
    return n * epochs * batches + rounds * n * batches + n * rounds * (n - 1) * batches


def pipeline_stages(config: dict) -> list[list[str]]:
    out = config["output_dir"]
    cfg = "default.json"
    return ([["gen", "--config", cfg], ["validate", "--config", cfg],
             ["train-sim", "--config", cfg], ["evaluate", "--config", cfg]]
            + [["rank", "--in", f"{out}/eval/{s}/metrics.csv", "--scenario", s]
               for s in config["scenarios"]]
            + [["characterize", "--config", cfg], ["report", "--config", cfg]])


def run_pipeline(run: Run, seconds: float) -> dict:
    config = pipeline_config(run.seed, run.tiny)
    stages = pipeline_stages(config)
    fedrad = [PYTHON, "-m", "fedrad.cli"]

    # Every process's wall time is scaled by the kernel timed around it.
    scaler = speed.Scaler()
    # set-up: interpreter start plus imports, as `fedrad --help` pays them
    setup = [run.child(fedrad + ["--help"], run.dir, pass_rss=False)[0] * scaler.scale()
             for _ in range(SETUPS[run.workload])]

    passes, stage_walls, train_sim, first = [], [], [], None
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES[run.workload] or time.perf_counter() - t_start < seconds:
        k = len(passes)
        pdir = run.dir / f"pass{k}"
        pdir.mkdir()
        (pdir / "default.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        wall = 0.0
        failed_stage = False
        for i, argv in enumerate(stages):
            trace = run.trace_file()
            cmd = (fedrad + argv if trace is None else
                   [PYTHON, str(CHILD), "stage", "--trace-out", str(trace),
                    "--op", str(k * 100 + i), "--"] + argv)
            t, rc = run.child(cmd, pdir, pass_rss=True)
            t *= scaler.scale()
            run.attempted += 1
            wall += t
            stage_walls.append(t)
            if argv[0] == "train-sim":
                train_sim.append(t)
            if rc != 0:
                run.failed += 1
                failed_stage = True
        passes.append(wall)
        if not failed_stage:
            found = digests(pdir / config["output_dir"], PIPELINE_ARTIFACTS)
            check_digests(run, found, first, len(stages))
            first = first or found
        shutil.rmtree(pdir)
    run.setups, run.passes = 0, len(passes)
    run.kernel_s = scaler.samples
    return {"setup_s": statistics.median(setup), "pass_s": statistics.median(passes),
            "core_s": statistics.median(train_sim),
            "items_per_s": sgd_steps(config) / statistics.median(train_sim),
            "op_p50_ms": 1e3 * quantile(stage_walls, 50),
            "op_p95_ms": 1e3 * quantile(stage_walls, 95)}


# ---------------------------------------------------------------------------
# eval-6site: evaluate + rank of all scenarios, one fresh process per pass.

EVAL_ARTIFACTS = ("eval/*/metrics.csv",)


def predictions(metrics_csv: Path) -> int:
    """Distinct (model, site, sample) rows: one ensemble prediction each."""
    rows = set()
    for line in metrics_csv.read_text().splitlines():
        if line and not line.startswith(("#", "model,")):
            rows.add(tuple(line.split(",")[:3]))
    return len(rows)


def run_eval(run: Run, seconds: float) -> dict:
    result = run.dir / "setup.json"
    cmd = [PYTHON, str(CHILD), "evalsetup", "--seed", str(run.seed), "--dir", str(run.dir),
           "--setups", str(SETUPS[run.workload]), "--result", str(result)]
    trace = run.trace_file()
    cmd += ["--tiny"] * run.tiny + (["--trace-out", str(trace)] if trace else [])
    _, rc = run.child(cmd, run.dir, pass_rss=False)
    if rc != 0:
        raise SystemExit(f"eval-6site: set-up failed: {run.problems[-1]}")
    setup = json.loads(result.read_text())
    exp_dir = Path(setup["dir"])
    run.kernel_s = setup["kernel_s"]

    passes, evaluate, first, preds = [], [], None, None
    k = 0
    t_start = time.perf_counter()
    while k < MIN_PASSES[run.workload] or time.perf_counter() - t_start < seconds:
        k += 1
        result = run.dir / f"pass{k}.json"
        trace = run.trace_file()
        cmd = [PYTHON, str(CHILD), "evalpass", "--dir", str(exp_dir), "--op", str(k),
               "--result", str(result)] + (["--trace-out", str(trace)] if trace else [])
        _, rc = run.child(cmd, run.dir, pass_rss=True)
        run.attempted += 1
        done = json.loads(result.read_text()) if rc == 0 else {"calls": [], "kernel_s": []}
        run.kernel_s += done["kernel_s"]
        done = done["calls"]
        if rc != 0 or any(c["rc"] != 0 for c in done):
            run.fail(1, f"eval pass {k} failed")
            continue
        passes.append(sum(c["s"] for c in done))
        evaluate.append(done[0]["s"])
        out = exp_dir / "out"
        found = digests(out, EVAL_ARTIFACTS)
        if preds is None:
            preds = sum(predictions(p) for p in sorted(out.glob("eval/*/metrics.csv")))
        check_digests(run, found, first, 1)
        first = first or found
    run.setups, run.passes = SETUPS[run.workload], k
    if not passes:
        raise SystemExit("eval-6site: no pass completed")
    return {"setup_s": statistics.median(setup["setup_s"]),
            "pass_s": statistics.median(passes), "core_s": statistics.median(evaluate),
            "items_per_s": preds / statistics.median(evaluate),
            "op_p50_ms": 1e3 * quantile(passes, 50), "op_p95_ms": 1e3 * quantile(passes, 95)}


# ---------------------------------------------------------------------------
# fed-tcp-2site: run_server + one run_client thread per site over loopback TCP.

def run_tcp(run: Run, seconds: float) -> dict:
    result = run.dir / "tcp.json"
    cmd = [PYTHON, str(CHILD), "tcp", "--seed", str(run.seed), "--seconds", str(seconds),
           "--dir", str(run.dir), "--setups", str(SETUPS[run.workload]),
           "--min-passes", str(MIN_PASSES[run.workload]), "--result", str(result)]
    trace = run.trace_file()
    cmd += ["--tiny"] * run.tiny + (["--trace-out", str(trace)] if trace else [])
    _, rc = run.child(cmd, run.dir, pass_rss=True)
    if rc != 0:
        raise SystemExit(f"fed-tcp-2site: failed: {run.problems[-1]}")
    res = json.loads(result.read_text())
    rounds, oracle = res["rounds"], res["oracle"]
    walls, loops, intervals = [], [], []
    for k, fed in enumerate(res["federations"]):
        run.attempted += rounds
        ok = (not fed["errors"] and fed["server"] == oracle
              and set(fed["clients"].values()) == {oracle}
              and set(fed["saved"].values()) == {oracle}
              and len(fed["saved"]) == len(fed["clients"]) == 2
              and len(fed["arrivals"]) == rounds + 1)
        if not ok:
            run.fail(rounds, f"federation {k}: final weights differ from run_simulated "
                             f"or a site failed: {fed['errors']}")
            continue
        scale, arrivals = fed["scale"], fed["arrivals"]
        walls.append(fed["wall_s"] * scale)
        loops.append((arrivals[-1] - arrivals[0]) * scale)
        intervals.extend((b - a) * scale for a, b in zip(arrivals, arrivals[1:]))
    run.setups, run.passes = SETUPS[run.workload], len(res["federations"])
    run.kernel_s = res["kernel_s"]
    if not walls:
        raise SystemExit("fed-tcp-2site: no federation completed")
    return {"setup_s": statistics.median(res["setup_s"]), "pass_s": statistics.median(walls),
            "core_s": statistics.median(loops), "items_per_s": rounds / statistics.median(loops),
            "op_p50_ms": 1e3 * quantile(intervals, 50),
            "op_p95_ms": 1e3 * quantile(intervals, 95)}


WORKLOADS = {"pipeline-3site": run_pipeline, "eval-6site": run_eval, "fed-tcp-2site": run_tcp}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of every traced process

def per_layer(run: Run, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer values: timed-loop totals per pass plus set-up totals per set-up."""
    totals: dict[tuple[str, bool], list[float]] = {}  # (name, in setup) -> [calls, ns, self ns]
    wire: dict[tuple[str, bool], int] = {}
    missing: set[str] = set()
    for path in run.trace_files:
        dump = json.loads(path.read_text())
        missing.update(dump["missing"])
        names = dump["names"]
        child_ns: dict[int, int] = {}
        for _id, _ix, start, end, parent, _op in dump["spans"]:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        for span_id, ix, start, end, _parent, op in dump["spans"]:
            acc = totals.setdefault((names[ix], op < 0), [0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_ns.get(span_id, 0)
        for op, kind, nbytes in dump["wire_bytes"]:
            wire[(kind, op < 0)] = wire.get((kind, op < 0), 0) + nbytes

    def per_phase(values: dict, key: str, pick) -> float:
        total = 0.0
        for in_setup, count in ((False, run.passes), (True, run.setups)):
            if (key, in_setup) in values:
                total += pick(values[(key, in_setup)]) / count
        return total

    metrics = {}
    for metric, (span, stat) in PER_LAYER.items():
        if span in missing:
            continue
        if stat == "calls":
            value = per_phase(totals, span, lambda a: a[0])
        elif stat == "us":
            calls = sum(totals.get((span, s), [0, 0, 0])[0] for s in (False, True))
            ns = sum(totals.get((span, s), [0, 0, 0])[1] for s in (False, True))
            value = ns / calls / 1e3 if calls else 0.0
        elif stat == "s":
            value = per_phase(totals, span, lambda a: a[1]) / 1e9
        else:
            value = per_phase(totals, span, lambda a: a[2]) / 1e9
        metrics[metric] = {"value": value, "unit": STAT_UNITS[stat]}
    if "wire.encode_frame" not in missing:
        for kind in WIRE_TYPES:
            metrics[f"wire.bytes.{kind}"] = {"value": per_phase(wire, kind, lambda b: b),
                                             "unit": "B"}
    metrics["traced.pass_s"] = {"value": traced["pass_s"], "unit": "s"}
    metrics["traced.op_p95_ms"] = {"value": traced["op_p95_ms"], "unit": "ms"}
    return metrics, sorted(missing)


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    On a VM whose vCPUs the host also gives to others, a thread woken on the
    other vCPU waits for the host to run that vCPU, so the TCP federation's
    round trips timed the host's scheduler (README: One CPU and speed
    scaling). The other workloads are single-threaded.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedrad benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test only; skips the recorded digests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedrad" / "cli.py").is_file():
        print(f"perfbench: no fedrad sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    run = Run(args.workload, args.seed, bool(args.trace), args.tiny)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    e2e = WORKLOADS[args.workload](run, args.seconds)
    e2e["peak_rss_mb"] = run.peak_rss_mb
    print(f"perfbench: reference kernel median {statistics.median(run.kernel_s):.5f} s over "
          f"{len(run.kernel_s)} samples (nominal {speed.NOMINAL_S} s)", file=sys.stderr)

    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.trace:
        metrics, missing = per_layer(run, e2e)
        for name in missing:
            print(f"perfbench: traced function {name} no longer exists; "
                  f"its metrics are missing", file=sys.stderr)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
