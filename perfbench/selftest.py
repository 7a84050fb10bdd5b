#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the repository root:

    python3 perfbench/selftest.py

It runs every workload once untraced and once traced at the self-test size
(``--tiny``) and checks that:
  * the last output line has exactly the keys the contract names, the run
    is correct, and every metric BENCHMARK.json names is printed with its
    unit (and nothing else);
  * traced call counts equal the ones derived by hand from the workload's
    configuration (SGD steps = streams x epochs x batches, and so on);
  * a traced function that no longer exists is reported missing, not zero;
  * without the sources, the benchmark exits non-zero and prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
    return proc.returncode, proc.stdout


def check_output(workload: str, trace: int, declared: list[dict]) -> dict:
    rc, stdout = run_bench(workload, trace)
    tag = f"{workload} --trace {trace}"
    check(rc == 0, f"{tag}: exits 0")
    result = json.loads(stdout.strip().splitlines()[-1]) if stdout.strip() else {}
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result.get("correct") is True and result.get("failed") == 0
          and isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          f"{tag}: correct, nothing failed ({result.get('attempted')} attempted)")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        check(got is not None and got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float)) and math.isfinite(got["value"]),
              f"{tag}: {m['name']} printed in {m['unit']}")
    extra = set(metrics) - {m["name"] for m in declared}
    check(not extra, f"{tag}: no undeclared metrics {sorted(extra)}")
    return {k: v["value"] for k, v in metrics.items()}


def expected_counts(workload: str) -> dict[str, float]:
    """Per-pass (plus per-setup) call counts derived from the tiny configs."""
    scenarios_variants = lambda n: 5 + (n - 1 + 2) + 5  # noqa: E731  per eval site
    if workload == "pipeline-3site":
        config = bench.pipeline_config(SEED, tiny=True)
        n, r = len(config["sites"]), config["rounds"]
        n_test = round(20 * config["test_fraction"])
        preds = n * n_test * scenarios_variants(n)
        return {"learner.loss_and_grad.calls": bench.sgd_steps(config),
                "fedproto.checkpoint_save.calls": (r + 1) * (1 + n),
                "fedproto.aggregate.calls": r * (1 + n),
                "learner.ensemble_predict.calls": preds,
                "metrics.score_pair.calls": preds * 3,
                "siteio.save_site_dataset.s": None,
                "wire.encode_frame.calls": 0}
    import child
    size = child.TINY["eval" if workload == "eval-6site" else "tcp"]
    n, r = size["n_sites"], size["rounds"]
    if workload == "eval-6site":
        e, b = size["epochs"], size["batches_per_epoch"]
        preds = n * 4 * scenarios_variants(n)
        return {"learner.loss_and_grad.calls": n * e * b + r * n * b + n * r * (n - 1) * b,
                "fedproto.checkpoint_save.calls": (r + 1) * (1 + n),
                "learner.ensemble_predict.calls": preds,
                "metrics.score_pair.calls": preds * 3,
                "cli.evaluate.s": None}
    # fed-tcp-2site: one federation per pass plus the simulated oracle per set-up
    # per site: Register, FingerprintSubmit, r deltas up; ConfigBroadcast,
    # r RoundStart, r CheckpointNotice, FinalModel down
    frames = n * (2 + r) + n * (2 + 2 * r)
    return {"learner.loss_and_grad.calls": 2 * n * r,
            "fedproto.checkpoint_save.calls": 2 * (r + 1),
            "fedproto.aggregate.calls": 2 * r,
            "wire.encode_frame.calls": frames,
            "wire.decode_frame.calls": frames,
            "transport.send.calls": frames,
            "wire.bytes.RoundStart": n * r * (8 + 4 + 8 * 16),
            "metrics.edt.calls": 0}


def check_missing_reported() -> None:
    import tracer
    import fedrad.cli  # noqa: F401
    t = tracer.Tracer()
    tracer.install(t, tracer.FUNCTIONS + (("learner.gone", "fedrad.learner", "no_such_function"),))
    check(t.missing == ["learner.gone"], "a removed function is reported missing")
    dump = bench.WORK / "selftest-missing.json"
    dump.parent.mkdir(parents=True, exist_ok=True)
    t.missing.append("learner.loss_and_grad")
    t.dump(dump)
    run = bench.Run("pipeline-3site", SEED, trace=True, tiny=True)
    run.trace_files, run.passes = [dump], 1
    metrics, missing = bench.per_layer(run, {"pass_s": 1.0, "op_p95_ms": 1.0})
    check("learner.loss_and_grad" in missing and "learner.loss_and_grad.calls" not in metrics
          and "learner.forward.calls" in metrics,
          "metrics of a missing function are left out, not printed as 0")


def check_without_sources() -> None:
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, stdout = run_bench("eval-6site", 0, cwd=bare)
    shutil.rmtree(bare)
    check(rc != 0 and not stdout.strip(), "without the sources: non-zero exit, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json names the workloads run.py runs")
    for w in spec["workloads"]:
        check_output(w["name"], 0, spec["end_to_end"])
        traced = check_output(w["name"], 1, spec["per_layer"])
        for name, want in expected_counts(w["name"]).items():
            got = traced.get(name)
            if want is None:
                check(got is not None and got > 0, f"{w['name']}: {name} > 0")
            else:
                check(got == want, f"{w['name']}: {name} = {want} (got {got})")
    check_missing_reported()
    check_without_sources()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
