"""Output bytes do not depend on the caller's BLAS thread count.

Every ``ssrmlab`` CLI process sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS to 1 before numpy loads, whatever its caller's
environment says.  These tests run the CLI in fresh interpreters, since
this one loaded numpy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssrmlab
from ssrmlab import harness

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = os.path.dirname(os.path.dirname(ssrmlab.__file__))

# At n = 500 numpy's and scipy's OpenBLAS split the LU and the reduction
# across threads, and distance-check's s_min moved in the 12th digit
# between one and two threads before every CLI process pinned one.
DISTANCE_CHECK_500 = """
[experiment]
kind = distance-check
trials = 6
seed = 1

[ensemble]
dist = rademacher

[grid]
n = 500
p = 0.1
eps = 2.0
"""


def _python(args: list[str], threads: int, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=120)


def _csv_at(threads: int, kind: str, config: Path, workdir: Path) -> bytes:
    out = workdir / f"{kind}-{threads}.csv"
    _python(["-m", "ssrmlab.cli", kind, "--config", str(config), "--out", str(out)], threads, workdir)
    return out.read_bytes()


@pytest.mark.parametrize("kind", harness.EXPERIMENT_KINDS)
def test_golden_csv_bytes_do_not_depend_on_thread_count(kind, tmp_path):
    config = GOLDEN / f"{kind}.ini"
    assert _csv_at(1, kind, config, tmp_path) == _csv_at(2, kind, config, tmp_path)


def test_distance_check_at_n500_does_not_depend_on_thread_count(tmp_path):
    config = tmp_path / "distance-check.ini"
    config.write_text(DISTANCE_CHECK_500, encoding="utf-8")
    kind = "distance-check"
    assert _csv_at(1, kind, config, tmp_path) == _csv_at(2, kind, config, tmp_path)


# Prints {getter: thread count} for every OpenBLAS getter found in the
# libraries this process has mapped, after {first} and after spectra has
# loaded scipy's OpenBLAS next to numpy's.
_PROBE = """
import ctypes, json
{first}
import ssrmlab.spectra
getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = sorted({{line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}})
counts = {{}}
for path in paths:
    lib = ctypes.CDLL(path)
    for name in getters:
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts[name] = getter()
print(json.dumps(counts))
"""


def _blas_threads(first: str, tmp_path: Path) -> dict:
    return json.loads(_python(["-c", _PROBE.format(first=first)], 2, tmp_path).stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps to find the loaded BLAS")
def test_cli_import_runs_both_openblas_pools_at_one_thread(tmp_path):
    control = _blas_threads("import numpy", tmp_path)
    if not control:
        pytest.skip("no OpenBLAS with a known thread-count getter is loaded")
    if set(control.values()) != {2}:
        pytest.skip(f"OpenBLAS ignores OPENBLAS_NUM_THREADS=2 here: {control}")
    pinned = _blas_threads("import ssrmlab.cli", tmp_path)
    assert pinned == {name: 1 for name in control}
