"""The benchmark traces ssrmlab functions by name; every name must resolve,
and each workload's traced run must call what the workload expects.

``perfbench/tracer.py`` lists the traced functions in its ``TRACED``
table, and each workload in ``perfbench/workloads.py`` names the traced
functions one batch must call.  A rename, a deletion or a call that a
change stops making would otherwise surface only in the benchmark's
traced run.  The perfbench modules are loaded by path and not edited.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssrmlab

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = os.path.dirname(os.path.dirname(ssrmlab.__file__))


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path (registered first, as dataclasses need)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("layer,attr", perfbench_module("tracer").TRACED)
def test_traced_function_resolves(layer, attr):
    target = importlib.import_module(f"ssrmlab.{layer}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_traced_runner_imports_load_every_layer(tmp_path):
    # perfbench/traced_cli.py imports exactly these three modules before
    # Tracer.install, which raises for a layer that is not loaded; so a
    # layer that the CLI imports only lazily must still come in through them.
    code = (
        "import json, sys\n"
        "import ssrmlab.cli, ssrmlab.inverse_geometry, ssrmlab.smallball\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ssrmlab.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_env(), capture_output=True, text=True, check=True, timeout=120
    )
    tracer = perfbench_module("tracer")
    layers = set(tracer.LAYERS) | {layer for layer, _ in tracer.TRACED}
    loaded = set(json.loads(out.stdout))
    assert {f"ssrmlab.{layer}" for layer in layers} <= loaded


@pytest.mark.parametrize("name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_quick_run_calls_every_expected_function(name, tmp_path):
    # The workload's quick inputs at the self-test's seed, each invocation
    # traced once at workers 1, as perfbench's traced batch runs them.
    wl = perfbench_module("workloads").WORKLOADS[name](str(tmp_path), 7, quick=True)
    span_files = []
    for i, inv in enumerate(wl.invocations):
        spans = str(tmp_path / f"{i}-{inv.slot}.json")
        cmd = [sys.executable, str(PERFBENCH / "traced_cli.py"), spans, inv.slot, *inv.command(1)]
        subprocess.run(cmd, cwd=tmp_path, env=_env(), capture_output=True, check=True, timeout=120)
        span_files.append(spans)
    tracer = perfbench_module("tracer")
    tracer.require_calls(tracer.aggregate(span_files)["functions"], wl.expected)
