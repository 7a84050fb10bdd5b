"""Seeded mutations of the artifacts each stage reads, run through ``cli.main``.

Every case mutates one artifact of a finished 2-site, 2-round run: it flips
one to four bytes, truncates the file, or duplicates a span of it. Then it
runs a stage that reads the artifact. Whatever the mutation does, ``main``
returns 0, 1, 2 or 3 and lets no exception escape, and an exit 1 ends stderr
with the line ``fedrad <stage>: <reason>``, the reason naming the mutated file.
"""

import json
import shutil
from pathlib import Path

import pytest

from test_experiment import small_config

from fedrad import experiment as exp
from fedrad.cli import main
from fedrad.config import checkpoints_dir, eval_dir, models_dir, site_dir
from fedrad.fedproto import checkpoint_log
from fedrad.seeding import rng_from

SCENARIOS = ("personalization", "generalization_with_local")

# each artifact and the stages that read it; "resume" is train-sim --resume
READERS = {
    "manifest": ("validate", "characterize", "train-sim", "evaluate"),
    "test-volume": ("validate", "characterize", "train-sim", "evaluate"),
    "test-mask": ("validate", "characterize", "train-sim", "evaluate"),
    "models.json": ("evaluate",),
    "weights": ("evaluate",),
    "metrics.csv": ("rank", "report"),
    "summary.json": ("report",),
    "characteristics.json": ("report",),
    "timing.csv": ("report",),
    "checkpoint-log": ("resume",),
}
MUTATIONS = tuple((k, n) for k in ("flip", "truncate", "duplicate") for n in range(8))
CASES = [(artifact, stage, kind, seed) for artifact, stages in READERS.items()
         for stage in stages for kind, seed in MUTATIONS]


def mutate(raw: bytes, kind: str, rng) -> bytes:
    """``raw`` with one to four bytes flipped, cut short, or with a span of
    it inserted again at another offset."""
    if kind == "flip":
        out = bytearray(raw)
        for pos in rng.choice(len(raw), size=int(rng.integers(1, 5)), replace=False):
            out[pos] ^= int(rng.integers(1, 256))
        return bytes(out)
    if kind == "truncate":
        return raw[:int(rng.integers(0, len(raw)))]
    start = int(rng.integers(0, len(raw)))
    end = int(rng.integers(start + 1, len(raw) + 1))
    at = int(rng.integers(0, len(raw) + 1))
    return raw[:at] + raw[start:end] + raw[at:]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A run through every stage, and a copy of its output to restore from."""
    tmp = tmp_path_factory.mktemp("mutations")
    config = small_config(tmp, n_sites=2, rounds=2, scenarios=SCENARIOS)
    path = tmp / "exp.json"
    exp.save_config(config, path)
    out = Path(config.output_dir)
    for argv in (["gen"], ["train-sim"], ["evaluate"], ["characterize"]):
        assert main(argv + ["--config", str(path)]) == 0
    for scenario in SCENARIOS:
        assert main(["rank", "--in", str(eval_dir(out, scenario) / "metrics.csv"),
                     "--scenario", scenario]) == 0
    assert main(["report", "--config", str(path)]) == 0
    manifest = json.loads((site_dir(out, "s0") / "manifest.json").read_text())
    test_id = next(e["sample_id"] for e in manifest["samples"] if e["split"] == "test")
    artifacts = {
        "manifest": site_dir(out, "s0") / "manifest.json",
        "test-volume": site_dir(out, "s0") / f"{test_id}.vol.frvd",
        "test-mask": site_dir(out, "s0") / f"{test_id}.mask.frvd",
        "models.json": models_dir(out) / "models.json",
        "weights": models_dir(out) / "local_s0.frwt",
        "metrics.csv": eval_dir(out, SCENARIOS[0]) / "metrics.csv",
        "summary.json": eval_dir(out, SCENARIOS[0]) / "summary.json",
        "characteristics.json": out / "characteristics.json",
        "timing.csv": out / "timing.csv",
        "checkpoint-log": checkpoint_log(checkpoints_dir(out, "main")),
    }
    assert sorted(artifacts) == sorted(READERS)
    pristine = tmp / "pristine"
    shutil.copytree(out, pristine)
    return path, out, pristine, artifacts


def _argv(stage: str, config_path: Path, artifacts: dict) -> list[str]:
    if stage == "rank":
        return ["rank", "--in", str(artifacts["metrics.csv"]), "--scenario", SCENARIOS[0]]
    if stage == "resume":
        return ["train-sim", "--config", str(config_path),
                "--resume", str(artifacts["checkpoint-log"])]
    return [stage, "--config", str(config_path)]


def _run_case(finished_run, capsys, artifact, stage, kind, seed):
    """Mutate ``artifact`` of a fresh copy of the run and run ``stage``;
    returns the exit code, stderr, the mutated file and the argv run."""
    config_path, out, pristine, artifacts = finished_run
    shutil.rmtree(out)
    shutil.copytree(pristine, out)
    target = artifacts[artifact]
    rng = rng_from(seed, "mutate", artifact, stage, kind)
    target.write_bytes(mutate(target.read_bytes(), kind, rng))
    capsys.readouterr()

    argv = _argv(stage, config_path, artifacts)
    rc = main(argv)
    return rc, capsys.readouterr().err, target, argv


@pytest.mark.parametrize("artifact,stage,kind,seed", CASES,
                         ids=[f"{a}-{s}-{k}{n}" for a, s, k, n in CASES])
def test_mutated_artifact_ends_in_an_exit_code(finished_run, capsys, artifact, stage,
                                               kind, seed):
    rc, err, target, argv = _run_case(finished_run, capsys, artifact, stage, kind, seed)
    assert rc in (0, 1, 2, 3)
    if rc == 1:  # the reason names the file it refuses
        last = err.splitlines()[-1]
        assert last.startswith(f"fedrad {argv[0]}: ") and str(target) in last, err


def test_report_refuses_a_timing_csv_with_a_duplicated_span(finished_run, capsys):
    # report reads every row of timing.csv, so a span of it inserted again
    # is refused, naming the file, where reading the stamp alone let it pass
    rc, err, target, _ = _run_case(finished_run, capsys, "timing.csv", "report",
                                   "duplicate", 0)
    assert rc == 1
    assert err.startswith(f"fedrad report: {target}:"), err
