import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ssrmlab
from ssrmlab import spectra
from ssrmlab.cli import main
from ssrmlab.ensemble import load_matrix

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

    monkeypatch.setattr("ssrmlab.cli.spectral_summary", never)
    path = tmp_path / "m.txt"
    path.write_text(f"3 0.5 1 0\n0 0 1.0\n0 1 {value}\n2 2 2.0\n")
    assert main(["spectra", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stored values must be finite\n"


def test_cli_import_skips_scipy_spatial():
    # Every CLI process imports ssrmlab.cli; only the vector concentration
    # estimator needs scipy.spatial.
    src = os.path.dirname(os.path.dirname(ssrmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ssrmlab.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
