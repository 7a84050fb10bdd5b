"""Every fedrad name the benchmark uses must still exist under its name.

A renamed or moved target would otherwise show up only as a "missing"
per-layer metric or a failed workload in a benchmark run. And train-sim
must take, as calls of ``learner.loss_and_grad``, the SGD steps the
benchmark counts.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fedrad.simnet import SimResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize("name,module,path", _tracer_functions())
def test_traced_function_resolves(name, module, path):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target), name


def test_tracer_installs_every_hook():
    # install() rebinds module attributes, so it runs in its own interpreter;
    # the EDT hook needs the module-level ``ndimage`` name in fedrad.metrics
    code = ("import importlib.util, fedrad.cli\n"
            f"spec = importlib.util.spec_from_file_location('perfbench_tracer', {str(TRACER)!r})\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "t = tracer.Tracer()\n"
            "tracer.install(t)\n"
            "print(t.missing)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _perfbench_reads():
    """Dotted fedrad names the perfbench scripts import or read, and the
    attributes they read on a ``run_simulated`` result."""
    names, sim_reads = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> dotted fedrad name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fedrad":
                for a in node.names:
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.split(".")[0] == "fedrad")
            elif (isinstance(node, ast.Call) and node.args
                  and isinstance(node.args[0], ast.Constant)
                  and str(node.args[0].value).startswith("fedrad.")
                  and getattr(node.func, "attr", None) == "import_module"):
                names.add(node.args[0].value)
        names.update(aliases.values())
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            results = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
                       and isinstance(n.value, ast.Call)
                       and getattr(n.value.func, "id", None) == "run_simulated"
                       for t in n.targets if isinstance(t, ast.Name)}
            for n in ast.walk(fn):
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                    if n.value.id in aliases:
                        names.add(f"{aliases[n.value.id]}.{n.attr}")
                    if n.value.id in results:
                        sim_reads.add(n.attr)
    return sorted(names), sorted(sim_reads)


PERFBENCH_NAMES, SIM_RESULT_READS = _perfbench_reads()


def _resolve(dotted: str):
    parts = dotted.split(".")
    target = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            target = getattr(target, part)
        except AttributeError:  # a submodule not imported yet
            target = importlib.import_module(".".join(parts[:i]))
    return target


@pytest.mark.parametrize("dotted", PERFBENCH_NAMES)
def test_perfbench_name_resolves(dotted):
    _resolve(dotted)


def test_perfbench_sim_result_reads_are_fields():
    # the walk itself must keep finding what perfbench/child.py reads
    assert {"aborted", "abort_reason", "final_weights"} <= set(SIM_RESULT_READS)
    fields = {f.name for f in dataclasses.fields(SimResult)}
    assert set(SIM_RESULT_READS) <= fields


def test_train_sim_calls_the_traced_layers_once_per_model(tmp_path, monkeypatch, capsys):
    """The tracer times ``experiment.train_local_models`` and
    ``simnet.run_simulated`` by rebinding those module attributes, so
    train-sim must call them there: once per site's local model and once per
    federation, over the sites of each. Their spans then measure all the
    local training and every federation."""
    from test_experiment import small_config

    from fedrad import experiment, simnet
    from fedrad.cli import main
    from fedrad.config import Scenario

    config = small_config(tmp_path, n_sites=3, scenarios=[s.value for s in Scenario])
    path = tmp_path / "exp.json"
    experiment.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    train_local_models, run_simulated = experiment.train_local_models, simnet.run_simulated
    local_sites, federations = [], []

    def traced_local(config, datasets, fingerprints):
        local_sites.append(sorted(datasets))
        return train_local_models(config, datasets, fingerprints)

    def traced_federation(params, datasets, links, **kwargs):
        federations.append(params.config.site_ids)
        return run_simulated(params, datasets, links, **kwargs)

    monkeypatch.setattr(experiment, "train_local_models", traced_local)
    monkeypatch.setattr(simnet, "run_simulated", traced_federation)
    assert main(["train-sim", "--config", str(path)]) == 0
    assert local_sites == [["s0"], ["s1"], ["s2"]]
    assert federations == [("s0", "s1", "s2"), ("s1", "s2"), ("s0", "s2"), ("s0", "s1")]
    capsys.readouterr()


def test_train_sim_takes_the_sgd_steps_the_benchmark_counts(tmp_path, monkeypatch, capsys):
    """The benchmark reports ``perfbench/run.py``'s ``sgd_steps`` of its
    config as the ``learner.loss_and_grad`` calls of train-sim, so a run must
    make exactly that many calls: one per SGD step of every local model,
    the federation and each leave-out federation."""
    from test_experiment import small_config

    from fedrad import experiment, learner
    from fedrad.cli import main
    from fedrad.config import Scenario

    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports speed
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    config = small_config(tmp_path, n_sites=3, scenarios=[s.value for s in Scenario])
    path = tmp_path / "exp.json"
    experiment.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    calls = []
    step = learner.loss_and_grad

    def counted(*args):
        calls.append(len(args[2]))
        return step(*args)

    monkeypatch.setattr(learner, "loss_and_grad", counted)
    assert main(["train-sim", "--config", str(path)]) == 0
    steps = bench.sgd_steps(json.loads(path.read_text()))
    assert steps > 0 and len(calls) == steps
    assert set(calls) == {config.train.batch_size}
    capsys.readouterr()
