"""The benchmark traces ssrmlab functions by name; every name must resolve.

``perfbench/tracer.py`` lists the traced functions in its ``TRACED``
table.  A rename or deletion here would otherwise surface only in the
benchmark's traced run.
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

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("layer,attr", _tracer().TRACED)
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
    src = os.path.dirname(os.path.dirname(ssrmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=120
    )
    tracer = _tracer()
    layers = set(tracer.LAYERS) | {layer for layer, _ in tracer.TRACED}
    loaded = set(json.loads(out.stdout))
    assert {f"ssrmlab.{layer}" for layer in layers} <= loaded
