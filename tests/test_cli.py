import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ssrmlab
from ssrmlab import spectra
from ssrmlab.cli import _constants_from_args, build_parser, main
from ssrmlab.ensemble import load_matrix
from ssrmlab.structure import StructureConstants

CONFIG_TEXT = """
[experiment]
kind = tail-sweep
trials = 8
seed = 3
workers = 1
out = {out}

[ensemble]
dist = rademacher

[grid]
n = 16
p = 0.5
eps = 0.01,0.1
"""


def test_generate_round_trip(tmp_path):
    out = tmp_path / "m.txt"
    assert main(["generate", "-n", "10", "-p", "0.5", "--seed", "4", "--out", str(out)]) == 0
    A, header = load_matrix(str(out))
    assert header["n"] == 10 and header["p"] == 0.5 and header["seed"] == 4
    dense = A.to_dense()
    assert np.array_equal(dense, dense.T)


def test_generate_stdout(capsys):
    assert main(["generate", "-n", "4", "-p", "1.0", "--dist", "rademacher"]) == 0
    first = capsys.readouterr().out.splitlines()[0].split()
    assert first[0] == "4"


def test_spectra_subcommand(tmp_path, capsys):
    out = tmp_path / "m.txt"
    main(["generate", "-n", "12", "-p", "0.8", "--dist", "gaussian", "--out", str(out)])
    capsys.readouterr()
    assert main(["spectra", "--matrix", str(out)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["method"] == "dense-oracle"
    assert record["s_min"] >= 0.0
    assert record["s_max"] >= record["s_min"]


def test_lcd_subcommand(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("0.5 0.5 0.5 0.5\n")
    assert main(["lcd", "--vector", str(vec), "--scale-l", "1.0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == pytest.approx(1.4124, abs=1e-3)
    assert not record["capped"]


def test_structure_subcommand(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    n = 40
    vec.write_text(" ".join(["1.0"] * n))
    assert main(["structure", "--vector", str(vec), "--c-d", "0.5", "--c-oo", "0.025"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["comp_member"] is False
    assert record["spread_set"] == list(range(math.ceil(0.025 * n)))


def test_structure_flags_set_every_constant():
    flags = ["--c-s", "0.2", "--c-d", "0.3", "--c-oo", "0.05", "--lambda", "0.02", "--scale-l", "2", "--delta0", "0.2", "--c-p", "0.5"]
    args = build_parser().parse_args(["structure", "--vector", "v.txt", *flags])
    expected = StructureConstants(c_s=0.2, c_d=0.3, c_oo=0.05, lam=0.02, L=2.0, delta0=0.2, c_p=0.5)
    assert _constants_from_args(args) == expected


def test_tail_sweep_dry_run(tmp_path, capsys):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG_TEXT.format(out=out))
    assert main(["tail-sweep", "--config", str(cfg), "--dry-run"]) == 0
    assert "cells=1" in capsys.readouterr().out
    assert not out.exists()


def test_tail_sweep_runs(tmp_path):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG_TEXT.format(out=out))
    assert main(["tail-sweep", "--config", str(cfg)]) == 0
    assert out.exists()
    assert (tmp_path / "r.csv.meta.json").exists()


def test_bad_distribution_is_parameter_error(capsys):
    assert main(["generate", "-n", "4", "-p", "0.5", "--dist", "cauchy"]) == 2
    assert "error" in capsys.readouterr().err


def _one_line_error(captured) -> bool:
    return captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,text,where",
    [
        (["spectra", "--matrix"], "x 0.1 0 0\n0 0 1.0\n", "line 1"),
        (["spectra", "--matrix"], "3 0.1 0 0\n\n0 0 1.0\n0 a 1\n", "line 4"),
        (["spectra", "--matrix"], "3 0.1 0 0\n0 0\n", "line 2"),
        (["lcd", "--vector"], "0.5 0.5\nzz 0.5\n", "line 2"),
        (["structure", "--vector"], "0.5 0.5\n0.5 zz\n", "line 2"),
    ],
)
def test_malformed_input_file(tmp_path, capsys, argv, text, where):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_line_error(captured)
    assert str(path) in captured.err and where in captured.err


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
@pytest.mark.parametrize("command", ["lcd", "structure"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_vector_rejected(tmp_path, capsys, command, token):
    path = tmp_path / "v.txt"
    path.write_text(f"0.5 {token} 0.5 0.5\n")
    assert main([command, "--vector", str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_line_error(captured) and "finite" in captured.err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_spectra_bad_tol(tmp_path, capsys, tol):
    out = tmp_path / "m.txt"
    main(["generate", "-n", "6", "-p", "0.8", "--out", str(out)])
    assert main(["spectra", "--matrix", str(out), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert _one_line_error(captured) and "tol" in captured.err


def test_missing_vector_file(tmp_path, capsys):
    assert main(["lcd", "--vector", str(tmp_path / "nope.txt")]) == 1


@pytest.fixture
def failing_certificate(monkeypatch):
    """Shift the smallest-magnitude eigenvalue so its residual check fails."""
    real_dsterf = spectra.dsterf

    def shifted(d, e):
        evals, info = real_dsterf(d, e)
        evals[np.argmin(np.abs(evals))] += 1e-6 * np.abs(evals).max()
        return evals, info

    monkeypatch.setattr(spectra, "dsterf", shifted)


def _one_line_numerical_error(err: str) -> bool:
    return err.startswith("numerical error: ") and err.count("\n") == 1


def test_certificate_failure_in_sweep(tmp_path, capsys, failing_certificate):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG_TEXT.format(out=out))
    assert main(["tail-sweep", "--config", str(cfg), "--workers", "1"]) == 1
    assert _one_line_numerical_error(capsys.readouterr().err)
    assert not out.exists()
    assert not (tmp_path / "r.csv.meta.json").exists()


def test_certificate_failure_in_spectra(tmp_path, capsys, failing_certificate):
    out = tmp_path / "m.txt"
    main(["generate", "-n", "12", "-p", "0.8", "--dist", "gaussian", "--out", str(out)])
    capsys.readouterr()
    assert main(["spectra", "--matrix", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line_numerical_error(captured.err)


def test_spectra_non_finite_matrix_rejected(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3 0.5 1 0\n0 0 1.0\n0 1 nan\n2 2 2.0\n")
    assert main(["spectra", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_spectra_non_finite_file_fails_at_load(tmp_path, capsys, monkeypatch, value):
    def never(*args, **kwargs):
        raise AssertionError("spectra ran on a matrix that should not have loaded")

    monkeypatch.setattr("ssrmlab.spectra.spectral_summary", never)
    path = tmp_path / "m.txt"
    path.write_text(f"3 0.5 1 0\n0 0 1.0\n0 1 {value}\n2 2 2.0\n")
    assert main(["spectra", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stored values must be finite\n"


def _python(code: str, cwd) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter that imports ssrmlab from this checkout."""
    src = os.path.dirname(os.path.dirname(ssrmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return out.stdout.splitlines()[-1]


def _loaded_after_cli(argv: list[str], cwd) -> dict:
    """Exit status of ``ssrmlab ARGV`` in a fresh process and which heavy modules it loaded."""
    code = (
        "import json, sys\n"
        "from ssrmlab.cli import main\n"
        f"status = main({argv!r})\n"
        "print(json.dumps({'status': status, 'scipy': 'scipy' in sys.modules, 'spectra': 'ssrmlab.spectra' in sys.modules}))"
    )
    return json.loads(_python(code, cwd))


def test_cli_import_skips_scipy_spatial(tmp_path):
    # Every CLI process imports ssrmlab.cli; only the vector concentration
    # estimator needs scipy.spatial.
    assert _python("import sys, ssrmlab.cli; print('scipy.spatial' in sys.modules)", tmp_path) == "False"


def test_package_import_loads_no_submodule(tmp_path):
    code = "import sys, ssrmlab; print(sorted(m for m in sys.modules if m.startswith('ssrmlab.')))"
    assert _python(code, tmp_path) == "[]"


@pytest.mark.parametrize("module", ["ssrmlab", "ssrmlab.cli"])
def test_import_skips_scipy(tmp_path, module):
    assert _python(f"import sys, {module}; print('scipy' in sys.modules)", tmp_path) == "False"


def _kind_config(tmp_path, kind: str) -> str:
    cfg = tmp_path / f"{kind}.ini"
    cfg.write_text(CONFIG_TEXT.replace("tail-sweep", kind).format(out=tmp_path / f"{kind}.csv"))
    return str(cfg)


@pytest.mark.parametrize(
    "argv",
    [
        ["lcd", "--vector", "v.txt"],
        ["structure", "--vector", "v.txt"],
        ["generate", "-n", "20", "-p", "0.5", "--out", "m.txt"],
        ["smallball", "--config", "smallball.ini", "--workers", "1"],
        ["smallball", "--config", "smallball.ini", "--workers", "2"],
    ],
    ids=["lcd", "structure", "generate", "smallball-w1", "smallball-w2"],
)
def test_subcommand_skips_scipy(tmp_path, argv):
    (tmp_path / "v.txt").write_text("0.5 0.5 0.5 0.5 0.1 -0.3\n")
    _kind_config(tmp_path, "smallball")
    assert _loaded_after_cli(argv, tmp_path) == {"status": 0, "scipy": False, "spectra": False}


@pytest.mark.parametrize("kind", ["tail-sweep", "scaling", "norm-check", "distance-check", "smallball", "quadratic"])
def test_dry_run_skips_scipy(tmp_path, kind):
    argv = [kind, "--config", _kind_config(tmp_path, kind), "--dry-run"]
    assert _loaded_after_cli(argv, tmp_path) == {"status": 0, "scipy": False, "spectra": False}


def test_pooled_sweep_loads_spectra_before_forking(tmp_path):
    # The pool workers inherit spectra from the parent instead of each
    # importing scipy again.
    argv = ["tail-sweep", "--config", _kind_config(tmp_path, "tail-sweep"), "--workers", "2"]
    assert _loaded_after_cli(argv, tmp_path) == {"status": 0, "scipy": True, "spectra": True}
