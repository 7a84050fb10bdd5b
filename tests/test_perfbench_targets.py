"""Every function the benchmark tracer wraps must still exist under its name.

A renamed or moved target would otherwise show up only as a "missing"
per-layer metric in a benchmark run.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
