"""The benchmark traces ssrmlab functions by name; every name must resolve.

``perfbench/tracer.py`` lists the traced functions in its ``TRACED``
table.  A rename or deletion here would otherwise surface only in the
benchmark's traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("layer,attr", _traced())
def test_traced_function_resolves(layer, attr):
    target = importlib.import_module(f"ssrmlab.{layer}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
