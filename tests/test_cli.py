import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssrmlab
from in_child import in_child
from ssrmlab import cli, harness, inverse_geometry, spectra, structure
from ssrmlab.cli import _constants_from_args, build_parser, main
from ssrmlab.ensemble import Purpose, RngStream, load_matrix, sample_matrix, trial_stream
from ssrmlab.errors import EXIT_TABLE
from ssrmlab.model import EnsembleParams, EntryDistribution, parse_distribution
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
    A = load_matrix(str(out))
    n, p, seed, _ = out.read_text().splitlines()[0].split()
    assert int(n) == 10 and float(p) == 0.5 and int(seed) == 4
    dense = A.to_dense()
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
def test_generate_stream_is_a_trial_index(tmp_path, capsys, dist):
    # generate --seed S --stream T writes the matrix that trial T of cell
    # (n, p) draws in every kind; its spectra record is that matrix's
    # certified extremes, which the dsterf spectrum of tail-sweep and
    # scaling gives within the reduction's backward error, about n eps |A|.
    params, seed, t = EnsembleParams(40, 0.3, parse_distribution(dist)), 5, 3
    out = tmp_path / "m.txt"
    assert main(["generate", "-n", "40", "-p", "0.3", "--dist", dist, "--seed", str(seed), "--stream", str(t), "--out", str(out)]) == 0
    A = load_matrix(str(out))
    assert int(out.read_text().splitlines()[0].split()[3]) == t
    assert np.array_equal(A.to_dense(), sample_matrix(params, trial_stream(seed, Purpose.MATRIX, 40, 0.3, t)).to_dense())
    assert main(["spectra", "--matrix", str(out)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["s_min"] == inverse_geometry._distance_trial(seed, 0.1, 20, 0.1, params, t).s_min
    smin, smax = harness._extreme_values_for_trial(seed, params, t)
    band = 40 * np.finfo(np.float64).eps * smax
    assert abs(record["s_min"] - smin) <= band and abs(record["s_max"] - smax) <= band


@pytest.mark.parametrize("flag", ["--seed=-1", "--seed=18446744073709551616", "--stream=-1", "--stream=18446744073709551616"])
def test_generate_rejects_a_key_out_of_range(tmp_path, capsys, flag):
    # The seed and the trial index key Philox, so each lies in [0, 2^64);
    # generate checks its flags, and the stream it builds is not re-checked.
    out = tmp_path / "m.txt"
    assert main(["generate", "-n", "4", "-p", "0.5", flag, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    name, value = flag.split("=")
    assert captured.out == "" and captured.err == f"error: {name} must lie in [0, 2^64), got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "-p", "0.5", "-n", "1_0"],
        ["generate", "-n", "4", "-p", "0.5", "--seed", "١٢"],
        ["generate", "-n", "4", "-p", "0.5", "--stream", "1_0"],
        ["tail-sweep", "--config", "c.ini", "--seed", "1_0"],
        ["scaling", "--config", "c.ini", "--workers", "٢"],
    ],
    ids=["n-underscore", "seed-arabic-indic", "stream-underscore", "run-seed-underscore", "run-workers-arabic-indic"],
)
def test_integer_flag_takes_the_config_grammar(tmp_path, capsys, argv):
    # An integer flag parses as an integer config key does, an exact decimal
    # literal: int() would also take 1_0 and non-ASCII digits.
    out = tmp_path / "m.txt"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{argv[-1]!r} is not a decimal integer" in captured.err
    assert not out.exists()


# Past n = 2^30 - 1 an n x n float64 array is not addressable, and numpy
# fails with ValueError or OverflowError rather than MemoryError.
_PAST_ADDRESS_SPACE = "must be <= 1073741823 (an n x n float64 array must be addressable), got "


def test_generate_rejects_n_past_the_address_space(tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert main(["generate", "-n", "5000000000", "-p", "0.5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: n {_PAST_ADDRESS_SPACE}5000000000\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["5000000000 0.5 0 0\n", f"{10**20} 0.5 0 0\n", f"{10**20} 0.5 0 0\n0 1 1.0\n"], ids=["5e9", "1e20", "1e20-entry"]
)
def test_spectra_rejects_n_past_the_address_space(tmp_path, capsys, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert main(["spectra", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: matrix dimension {_PAST_ADDRESS_SPACE}{text.split()[0]}\n"


def test_spectra_n_too_large_to_allocate_is_a_memory_error(tmp_path, capsys):
    # Below the bound, an n x n array that cannot be allocated stays a memory error.
    path = tmp_path / "m.txt"
    path.write_text("1000000000 0.5 0 0\n")
    assert main(["spectra", "--matrix", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("memory error: ") and captured.err.count("\n") == 1


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
    assert set(record) == {"n", "s_min", "s_max", "condition_number", "residual"}
    assert 0.0 <= record["residual"] <= 1e-10 * record["s_max"] * 12
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
    flags = ["--c-s", "0.2", "--c-d", "0.3", "--c-oo", "0.05"]
    args = build_parser().parse_args(["structure", "--vector", "v.txt", *flags])
    expected = StructureConstants(c_s=0.2, c_d=0.3, c_oo=0.05)
    assert _constants_from_args(args) == expected


@pytest.mark.parametrize("flag", [["--delta0", "0.2"], ["--c-p", "0.5"], ["--lambda", "0.02"], ["--scale-l", "2"]])
def test_structure_rejects_unknown_constant_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["structure", "--vector", "v.txt", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_tail_sweep_dry_run(tmp_path, capsys):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG_TEXT.format(out=out))
    assert main(["tail-sweep", "--config", str(cfg), "--dry-run"]) == 0
    assert "cells=1" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize(
    "command,kind,edit,needle",
    [
        ("tail-sweep", "tail-sweep", ("dist = rademacher", "dist = rademacher\nc_op = 3.0"), "unknown config key ensemble.c_op"),
        ("smallball", "smallball", ("eps = 0.01,0.1", "eps = 0.01,0.1\n[params]\nc_op = 3.0"), "params.c_op for kind smallball"),
        ("distance-check", "distance-check", ("eps = 0.01,0.1", "eps = 0.01,0.1\n[params]\neps = 0.1"), "params.eps"),
        ("tail-sweep", "scaling", ("", ""), "subcommand tail-sweep does not match experiment.kind = scaling"),
        ("tail-sweep", "tail-sweep", ("n = 16", "n = 5000000000"), f"n {_PAST_ADDRESS_SPACE}5000000000"),
        ("smallball", "smallball", ("n = 16", f"n = {10**20}"), f"smallball needs grid.n >= 1 and <= 1073741823, got {10**20}"),
        # A repeated grid point would write its cells twice and count them twice in a fit.
        ("scaling", "scaling", ("n = 16", "n = 16,32,32"), "grid.n repeats the point 32"),
        ("tail-sweep", "tail-sweep", ("p = 0.5", "p = 0.5,0.3,0.50"), "grid.p repeats the point 0.5"),
        ("tail-sweep", "tail-sweep", ("eps = 0.01,0.1", "eps = 0.01,0.01,0.1,0.1"), "grid.eps repeats the point 0.01"),
        ("smallball", "smallball", ("eps = 0.01,0.1", "eps = 0,0.1,-0"), "grid.eps repeats the point -0.0"),
    ],
    ids=[
        "ensemble-c_op", "smallball-c_op", "distance-check-eps", "kind-mismatch", "n-past-address-space",
        "vector-n-past-address-space", "repeated-n", "repeated-p", "repeated-eps", "repeated-zero-eps",
    ],
)
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
def test_config_key_rejected(tmp_path, capsys, command, kind, edit, needle, dry_run):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG_TEXT.replace("tail-sweep", kind).replace(*edit).format(out=out))
    assert main([command, "--config", str(cfg), *(["--dry-run"] if dry_run else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert needle in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


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


def _vector_runs(text: str) -> list[tuple[int, str, str]]:
    """Exit status, stdout and stderr of ``lcd`` and then ``structure`` on a
    vector file holding ``text``, run in a child with a deadline.  No
    fixtures, so hypothesis can call it."""
    return in_child(_vector_runs_here, text)


def _vector_runs_here(text: str) -> list[tuple[int, str, str]]:
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("lcd", "structure"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command, "--vector", path])
            runs.append((status, out.getvalue(), err.getvalue()))
    return runs


_VECTORS = st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.booleans()), min_size=2, max_size=12
).map(lambda pairs: [-mag if neg else mag for mag, neg in pairs])


@pytest.mark.filterwarnings("error")
@settings(max_examples=50)
@given(x=_VECTORS, k=st.integers(-1000, 1000))
@example(x=[0.6, -0.8, 3.0], k=700)
@example(x=[0.6, -0.8, 3.0], k=-700)
@example(x=[1e-3, -1e3, 7.0, 0.25], k=1000)
@example(x=[1e-3, -1e3, 7.0, 0.25], k=-1000)
def test_vector_records_ignore_a_power_of_two_scale(x, k):
    # Scaling by 2^k is exact, so 2^k x must normalize to the same bits as x.
    base = _vector_runs(" ".join(map(repr, x)))
    assert all(status == 0 and err == "" for status, _, err in base)
    assert _vector_runs(" ".join(repr(math.ldexp(v, k)) for v in x)) == base


def _same_record(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        math.isclose(a[key], b[key], rel_tol=1e-15) if isinstance(a[key], float) else a[key] == b[key]
        for key in a
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("token", ["5e-324", "1e-200", "1e200", "1.7976931348623157e308"])
def test_extreme_magnitude_vector_normalized(token):
    # From the least subnormal to the largest float.  1e-200 and 1 differ in
    # their mantissa bits, so the floats agree only to rounding.
    runs = _vector_runs(f"{token} {token}\n")
    assert all(status == 0 and err == "" for status, _, err in runs)
    for (_, out, _), (_, ref, _) in zip(runs, _vector_runs("1 1\n")):
        assert _same_record(json.loads(out), json.loads(ref))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["lcd", "structure"])
def test_zero_vector_rejected(tmp_path, capsys, command):
    path = tmp_path / "v.txt"
    path.write_text("0 0 -0.0\n")
    assert main([command, "--vector", str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_line_error(captured) and "no nonzero numbers" in captured.err


def test_one_entry_vector(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("-3\n")
    assert main(["structure", "--vector", str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_line_error(captured) and "2 entries or more" in captured.err
    assert main(["lcd", "--vector", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 1


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_spectra_has_no_tol_flag(tmp_path, capsys, tol):
    out = tmp_path / "m.txt"
    main(["generate", "-n", "6", "-p", "0.8", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--matrix", str(out), "--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,word",
    [
        (["lcd", "--cap", "nan"], "theta_cap"),
        (["lcd", "--cap", "inf"], "theta_cap"),
        (["lcd", "--scale-l", "nan"], "L must"),
        (["lcd", "--scale-l", "inf"], "L must"),
        (["structure", "--c-s", "nan"], "c_s must"),
        (["structure", "--c-oo", "inf"], "c_oo must"),
    ],
)
def test_non_finite_flag_rejected(tmp_path, capsys, argv, word):
    # One error line and exit 2, never a scan that runs forever, a
    # traceback, or a record with NaN or Infinity in it.
    path = tmp_path / "v.txt"
    path.write_text(" ".join(["1.0"] * 250) + "\n")
    assert main([argv[0], "--vector", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert _one_line_error(captured) and word in captured.err


@pytest.mark.parametrize("alpha", ["-1", "0", "-inf", "1", "nan"])
def test_structure_alpha_outside_unit_interval_rejected(tmp_path, capsys, alpha):
    # With alpha <= 0 every vector with a nonzero tail would read "not dominated".
    path = tmp_path / "v.txt"
    path.write_text(" ".join(["1.0"] * 250) + "\n")
    assert main(["structure", "--vector", str(path), f"--alpha={alpha}"]) == 2
    captured = capsys.readouterr()
    assert _one_line_error(captured) and "alpha" in captured.err and captured.out == ""


def test_missing_vector_file(tmp_path, capsys):
    assert main(["lcd", "--vector", str(tmp_path / "nope.txt")]) == 1


@pytest.fixture
def failing_certificate(monkeypatch):
    """Move A v of the first certified eigenpair by 1e-6 |A v|, so its residual check fails."""
    real_dsymm = spectra.dsymm

    def perturbed(alpha, a, b, **kwargs):
        AV = real_dsymm(alpha, a, b, **kwargs)
        AV[:, 0] += 1e-6 * np.abs(AV).max()
        return AV

    monkeypatch.setattr(spectra, "dsymm", perturbed)


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


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports ssrmlab from this checkout."""
    src = os.path.dirname(os.path.dirname(ssrmlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_spectra_norm_overflow_is_one_line(tmp_path):
    # Every entry is finite, but the eigenvalue 2e308 of the leading 2 x 2
    # block is not: one line and exit 1, with no overflow warning and no
    # "Infinity" (not JSON) on stdout.  A fresh process, so that stderr
    # holds whatever a warning would print.
    path = tmp_path / "m.txt"
    path.write_text("3 0.5 0 0\n0 0 1e308\n1 1 1e308\n2 2 -1e308\n0 1 1e308\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ssrmlab.cli", "spectra", "--matrix", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert _one_line_numerical_error(proc.stderr) and "overflow" in proc.stderr


@pytest.mark.parametrize("scale_l", ["2e7", "1e9"])
def test_lcd_returns_past_float_resolution(tmp_path, scale_l):
    # L x is a lattice point, so the crossing sits at L, and past theta = 2^23
    # adjacent floats lie further apart than the bisection width.  A fresh
    # process with a timeout, so that a bisection that cannot end fails
    # this test instead of hanging the suite.
    path = tmp_path / "v.txt"
    path.write_text("0.6 0.8\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ssrmlab.cli", "lcd", "--vector", str(path), "--scale-l", scale_l],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    L, theta = float(scale_l), record["witness_theta"]
    assert not record["capped"] and record["value"] >= L and theta > L
    x = np.array([0.6, 0.8])
    y = theta * (x / np.linalg.norm(x))
    assert float(np.linalg.norm(y - np.round(y))) < L * math.sqrt(math.log(theta / L))


@pytest.mark.parametrize("flag", ["--scale-l", "--cap"])
def test_lcd_rejects_a_cap_past_float_resolution(tmp_path, flag):
    # Past theta_cap max|x_i| = 2^52 no breakpoint k + 1/2 is a float: the
    # scan used to run on without end at L = 1e50.  A fresh process with a
    # timeout, so that a scan that cannot end fails this test instead of
    # hanging the suite.
    path = tmp_path / "v.txt"
    path.write_text("0.6 -0.8 0.1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ssrmlab.cli", "lcd", "--vector", str(path), flag, "1e50"],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: theta_cap * max|x_i| must stay below 2^52")


def test_lcd_refuses_a_scan_past_its_budget(tmp_path, capsys, monkeypatch):
    # A scan that passes the breakpoint budget with no witness ends in one
    # error line naming the theta it reached; one that finds its witness
    # within the budget returns.  The budget is cut to about two windows.
    monkeypatch.setattr(structure, "_LCD_BUDGET", 2 * structure._LCD_WINDOW)
    path = tmp_path / "v.txt"
    # Capped at the default cap 10 n^1.5 = 8e4 with the full budget.
    path.write_text(" ".join(map(repr, np.random.default_rng(3).standard_normal(400).tolist())))
    assert main(["lcd", "--vector", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    head, theta = captured.err.split(" at theta = ")
    assert head == f"error: lcd passed {2 * structure._LCD_WINDOW:.0e} breakpoints"
    assert 1.0 < float(theta.split()[0]) < 8e4
    path.write_text("0.6 0.8\n")
    assert main(["lcd", "--vector", str(path)]) == 0
    assert not json.loads(capsys.readouterr().out)["capped"]


def test_lcd_has_no_tol_flag(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("0.6 0.8\n")
    with pytest.raises(SystemExit) as exc:
        main(["lcd", "--vector", str(path), "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_main_leaves_the_heap_unfrozen(tmp_path, capsys):
    # Only the program entry freezes the heap at its exit; main, which tests
    # and library callers run in their own process, leaves it as it was.
    assert main(["tail-sweep", "--config", _kind_config(tmp_path, "tail-sweep"), "--dry-run"]) == 0
    with pytest.raises(SystemExit):
        main(["tail-sweep"])
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv, status", [(["--dry-run"], 0), (["--bogus"], 2)], ids=["dry-run", "usage-error"])
def test_entry_freezes_the_heap_and_keeps_the_status(tmp_path, argv, status):
    # The module's __main__ block, as python -m runs it; an atexit handler
    # reads the freeze count once the entry has returned.
    argv = ["tail-sweep", "--config", _kind_config(tmp_path, "tail-sweep"), *argv]
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv = ['ssrmlab', *{argv!r}]\n"
        "runpy.run_module('ssrmlab.cli', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == status
    label, count = proc.stderr.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 0


@pytest.mark.parametrize("command", ["lcd", "structure"])
def test_closed_stdout_is_one_io_error(tmp_path, command):
    # The child's stdout is a pipe whose reader has already gone, and with
    # PYTHONUNBUFFERED unset the record waits in stdout's buffer until the
    # entry flushes it.  One line and status 1, not the interpreter's
    # "Exception ignored" pair and status 120.
    path = tmp_path / "v.txt"
    path.write_text("0.6 0.8\n")
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ssrmlab.cli", command, "--vector", str(path)],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1 and proc.stderr == "io error: [Errno 32] Broken pipe\n"


def test_generate_out_names_a_directory(tmp_path, capsys):
    # The rename over a directory fails: one io error line, no temporary
    # left beside it, and the directory as it was.
    out = tmp_path / "m"
    out.mkdir()
    (out / "inside.txt").write_text("kept\n")
    assert main(["generate", "-n", "4", "-p", "0.5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("io error: ") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m"]
    assert [p.name for p in out.iterdir()] == ["inside.txt"] and (out / "inside.txt").read_text() == "kept\n"


def test_spectra_rejects_a_header_generate_cannot_write(tmp_path, capsys):
    # The header's ranges themselves are checked in test_ensemble.py.
    path = tmp_path / "m.txt"
    path.write_text("3 nan -5 -7\n0 0 1.0\n1 1 1.0\n2 2 1.0\n")
    assert main(["spectra", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {str(path)!r} line 1: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["generate", "tail-sweep"])
@pytest.mark.parametrize("earlier", [False, True], ids=["new", "over-earlier"])
def test_write_past_the_file_size_limit_leaves_no_output(tmp_path, command, earlier):
    # The child may write at most 4096 bytes to a file (RLIMIT_FSIZE), with
    # SIGXFSZ ignored, so the longer write fails with EFBIG midway.  The
    # matrix file has 200 x 200 entries at p = 0.5; the CSV has 150 rows.
    out = tmp_path / "out.txt"
    if command == "generate":
        argv, outputs = ["generate", "-n", "200", "-p", "0.5", "--out", str(out)], [out]
    else:
        eps = ",".join(f"{k / 1000:g}" for k in range(1, 151))
        config = tmp_path / "c.ini"
        config.write_text(CONFIG_TEXT.replace("trials = 8", "trials = 2").replace("eps = 0.01,0.1", f"eps = {eps}").format(out=out))
        argv, outputs = ["tail-sweep", "--config", str(config)], [out, tmp_path / "out.txt.meta.json"]
    for path in outputs if earlier else ():
        path.write_text(f"earlier {path.name}\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    code = (
        "import resource, runpy, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
        f"sys.argv = ['ssrmlab', *{argv!r}]\n"
        "runpy.run_module('ssrmlab.cli', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("io error: ") and "File too large" in proc.stderr and proc.stderr.count("\n") == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_closed_fd_1_is_no_error(tmp_path):
    # A process started with fd 1 closed has sys.stdout None, and print
    # writes nothing: the entry has no stdout to flush, and the run succeeds.
    config = _kind_config(tmp_path, "tail-sweep")
    proc = subprocess.run(
        f"{shlex.quote(sys.executable)} -m ssrmlab.cli tail-sweep --config {shlex.quote(config)} --dry-run >&-",
        shell=True, env=_child_env(), stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""


def test_script_runs_the_main_block_entry():
    # The ssrmlab script and python -m ssrmlab.cli run one function.  A text
    # match, since tomllib is not in Python 3.10.
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        scripts = [line for line in fh if line.startswith("ssrmlab = ")]
    assert scripts == ['ssrmlab = "ssrmlab.cli:entry"\n']
    with open(cli.__file__, encoding="utf-8") as fh:
        assert fh.read().endswith('if __name__ == "__main__":\n    raise SystemExit(entry())\n')


def _python(code: str, cwd) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter that imports ssrmlab from this checkout."""
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=_child_env(), capture_output=True, text=True, check=True, timeout=120
    )
    return out.stdout.splitlines()[-1]


# Modules a CLI process loads only when its subcommand needs them: name in
# the result -> module name.  No run, pooled or not, loads the last two:
# run_trials forks its own workers, and the process pool's modules would
# add about 1.9 MB to every pooled parent and each worker it forks.
_WATCHED = {
    "numpy": "numpy",
    "numpy.random": "numpy.random",  # a first draw loads 16 modules; see _extreme_values
    "numpy.ma": "numpy.ma",  # np.median's NaN check loads it (about 19 ms); stats.median does not
    "scipy": "scipy",
    "scipy.linalg": "scipy.linalg",
    "spectra": "ssrmlab.spectra",
    "structure": "ssrmlab.structure",
    "stats": "ssrmlab.stats",
    "configparser": "configparser",
    "hashlib": "hashlib",
    "pool": "concurrent.futures.process",
    "multiprocessing": "multiprocessing",
    "dataclasses": "dataclasses",  # about 7 ms with inspect; every record is a NamedTuple
    "inspect": "inspect",  # numpy imports it, so every run that loads numpy lists it
    "json": "json",  # harness.json_text imports it, for a record or a sidecar
}


# So that --workers 2 forks two workers on any box.
_TWO_CPUS = "import os; os.sched_getaffinity = lambda pid: {0, 1}"


def _loaded_after_cli(argv: list[str], cwd) -> dict:
    """Exit status of ``ssrmlab ARGV`` in a fresh process and which of the watched modules it loaded."""
    code = (
        "import sys\n"
        "from ssrmlab.cli import main\n"
        f"{_TWO_CPUS}\n"
        "try:\n"
        f"    status = main({argv!r})\n"
        "except SystemExit as exc:  # argparse's exit after --help\n"
        "    status = exc.code\n"
        f"loaded = {{k: m in sys.modules for k, m in {_WATCHED!r}.items()}}\n"
        "import json  # only now: json is watched\n"
        "print(json.dumps({'status': status, **loaded}))"
    )
    return json.loads(_python(code, cwd))


def _only(*loaded: str) -> dict:
    """The result of a successful run that loaded exactly these watched modules."""
    return {"status": 0, **{k: k in loaded for k in _WATCHED}}


def test_cli_import_skips_scipy_spatial(tmp_path):
    # Every CLI process imports ssrmlab.cli, and nothing in the package
    # needs scipy.spatial.
    assert _python("import sys, ssrmlab.cli; print('scipy.spatial' in sys.modules)", tmp_path) == "False"


def test_cli_import_skips_process_pool(tmp_path):
    # Nothing in the package imports the process pool; see _WATCHED.
    assert _python("import sys, ssrmlab.cli; print('concurrent.futures.process' in sys.modules)", tmp_path) == "False"


def test_package_import_loads_no_submodule(tmp_path):
    code = "import sys, ssrmlab; print(sorted(m for m in sys.modules if m.startswith('ssrmlab.')))"
    assert _python(code, tmp_path) == "[]"


def test_help_holds_no_developer_notes():
    # --help describes the subcommands, not the cli module's docstring in reST.
    text = build_parser().format_help()
    assert "``" not in text


@pytest.mark.parametrize("module", ["ssrmlab", "ssrmlab.cli"])
def test_import_skips_scipy(tmp_path, module):
    assert _python(f"import sys, {module}; print('scipy' in sys.modules)", tmp_path) == "False"


def test_cli_import_skips_numpy(tmp_path):
    # The CLI, the harness and the config types need no numpy; only the
    # handlers and kernels that sample or read numbers import it.
    assert _python("import sys, ssrmlab.cli; print('numpy' in sys.modules)", tmp_path) == "False"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--help"], {"status": 0}),
        (["tail-sweep", "--config", "bad.ini"], {"status": 2, "configparser": True}),
        (["tail-sweep", "--config", "bad.ini", "--dry-run"], {"status": 2, "configparser": True}),
    ],
    ids=["help", "config-error", "config-error-dry-run"],
)
def test_help_and_config_error_skip_numpy(tmp_path, argv, loaded):
    (tmp_path / "bad.ini").write_text(CONFIG_TEXT.format(out="r.csv").replace("trials = 8", "trails = 8"))
    assert _loaded_after_cli(argv, tmp_path) == {**_only(), **loaded}
    assert not (tmp_path / "r.csv").exists()


def _kind_config(tmp_path, kind: str) -> str:
    cfg = tmp_path / f"{kind}.ini"
    cfg.write_text(CONFIG_TEXT.replace("tail-sweep", kind).format(out=tmp_path / f"{kind}.csv"))
    return str(cfg)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        # lcd and structure load structure itself, but no config parser,
        # sidecar hash or statistics.
        (["lcd", "--vector", "v.txt"], ["numpy", "inspect", "structure", "json"]),
        (["structure", "--vector", "v.txt"], ["numpy", "inspect", "structure", "json"]),
        (["generate", "-n", "20", "-p", "0.5", "--out", "m.txt"], ["numpy", "inspect", "numpy.random", "hashlib"]),  # it loads hashlib
        (
            ["smallball", "--config", "smallball.ini", "--workers", "1"],
            ["numpy", "inspect", "numpy.random", "structure", "configparser", "hashlib", "json"],
        ),
        (  # only the workers draw
            ["smallball", "--config", "smallball.ini", "--workers", "2"],
            ["numpy", "inspect", "structure", "configparser", "hashlib", "json"],
        ),
    ],
    ids=["lcd", "structure", "generate", "smallball-w1", "smallball-w2"],
)
def test_subcommand_skips_scipy(tmp_path, argv, loaded):
    (tmp_path / "v.txt").write_text("0.5 0.5 0.5 0.5 0.1 -0.3\n")
    _kind_config(tmp_path, "smallball")
    assert _loaded_after_cli(argv, tmp_path) == _only(*loaded)


@pytest.mark.parametrize("kind", ["tail-sweep", "scaling", "norm-check", "distance-check", "smallball", "quadratic"])
def test_dry_run_skips_scipy(tmp_path, kind):
    # A dry run parses the config and loads no kernel, structure and numpy
    # included, nor dataclasses, inspect or json.
    argv = [kind, "--config", _kind_config(tmp_path, kind), "--dry-run"]
    assert _loaded_after_cli(argv, tmp_path) == _only("configparser")


def test_pooled_sweep_loads_spectra_before_forking(tmp_path):
    # The forked workers inherit spectra and numpy.random from the parent
    # instead of each loading the LAPACK and random modules again.
    argv = ["tail-sweep", "--config", _kind_config(tmp_path, "tail-sweep"), "--workers", "2"]
    assert _loaded_after_cli(argv, tmp_path) == _only(
        "numpy", "inspect", "numpy.random", "spectra", "stats", "configparser", "hashlib", "json"
    )


def test_pooled_sweep_workers_load_no_module(tmp_path):
    # Each worker of a pooled tail-sweep or scaling run writes down the
    # modules its job loaded.  The parent loaded them all before forking,
    # the 16 of numpy.random's first draw included, so each list is empty.
    runs = [[kind, "--config", _kind_config(tmp_path, kind), "--workers", "2"] for kind in ("tail-sweep", "scaling")]
    code = (
        "import json, os, sys\n"
        "from ssrmlab import ensemble\n"
        "from ssrmlab.cli import main\n"
        f"{_TWO_CPUS}\n"
        "start, pids = ensemble._start_worker, []\n"
        "def recording(job):\n"
        "    def run():\n"
        "        before = set(sys.modules)\n"
        "        result = job()\n"
        "        with open(f'worker-{os.getpid()}.json', 'w') as out:\n"
        "            json.dump(sorted(set(sys.modules) - before), out)\n"
        "        return result\n"
        "    worker = start(run)\n"
        "    pids.append(worker[0])\n"
        "    return worker\n"
        "ensemble._start_worker = recording\n"
        f"status = [main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([status, [json.load(open(f'worker-{pid}.json')) for pid in pids]]))"
    )
    status, loaded = json.loads(_python(code, tmp_path))
    assert status == [0, 0]
    assert loaded == [[], [], [], []]


def test_quadratic_loads_no_structure(tmp_path):
    # quadratic shares inverse_geometry with distance-check, whose trial alone
    # reads structure: a pooled quadratic run loads it nowhere, and a pooled
    # distance-check run loads it in the parent, before its workers fork.
    runs = [[kind, "--config", _kind_config(tmp_path, kind), "--workers", "2"] for kind in ("quadratic", "distance-check")]
    code = (
        "import json, os, sys\n"
        "from ssrmlab import ensemble\n"
        "from ssrmlab.cli import main\n"
        f"{_TWO_CPUS}\n"
        "start, seen = ensemble._start_worker, []\n"
        "def recording(job):\n"
        "    def run():\n"
        "        before = 'ssrmlab.structure' in sys.modules\n"
        "        result = job()\n"
        "        with open(f'worker-{os.getpid()}.json', 'w') as out:\n"
        "            json.dump([before, 'ssrmlab.structure' in sys.modules], out)\n"
        "        return result\n"
        "    worker = start(run)\n"
        "    seen.append(worker[0])\n"
        "    return worker\n"
        "ensemble._start_worker = recording\n"
        "report = []\n"
        f"for argv in {runs!r}:\n"
        "    report.append([main(argv), 'ssrmlab.structure' in sys.modules])\n"
        "print(json.dumps([report, [json.load(open(f'worker-{pid}.json')) for pid in seen]]))"
    )
    report, workers = json.loads(_python(code, tmp_path))
    assert report == [[0, False], [0, True]]
    assert workers == [[False, False]] * 2 + [[True, True]] * 2


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["tail-sweep", "--workers", "1"], ["numpy.random", "stats", "configparser", "hashlib"]),
        (["scaling"], ["numpy.random", "stats", "configparser", "hashlib"]),
        (["norm-check"], ["numpy.random", "configparser", "hashlib"]),
        (["distance-check"], ["numpy.random", "structure", "stats", "configparser", "hashlib"]),
        (["quadratic"], ["numpy.random", "stats", "configparser", "hashlib"]),
        # Only the matrix sweeps load numpy.random before the fork: at
        # n = 500 the pooled parent of the other kinds is the largest process.
        (["quadratic", "--workers", "2"], ["stats", "configparser", "hashlib"]),
        (["spectra", "--matrix", "m.txt"], []),
    ],
    ids=["tail-sweep-w1", "scaling", "norm-check", "distance-check", "quadratic", "quadratic-w2", "spectra"],
)
def test_lapack_subcommand_skips_scipy_linalg(tmp_path, argv, loaded):
    # The kernels load scipy's two compiled LAPACK/BLAS modules, not the
    # scipy.linalg package (about 0.25 s and 500 modules of start-up) nor
    # the scipy package; the pooled sweep is checked above.
    if argv[0] == "spectra":
        assert main(["generate", "-n", "20", "-p", "0.5", "--seed", "1", "--out", str(tmp_path / "m.txt")]) == 0
    else:
        argv = [argv[0], "--config", _kind_config(tmp_path, argv[0]), *argv[1:]]
    assert _loaded_after_cli(argv, tmp_path) == _only("numpy", "inspect", "spectra", "json", *loaded)


def test_scipy_linalg_reuses_the_loaded_modules(tmp_path):
    # In a process where spectra loaded them first, a later import of the
    # package hands back the very routines spectra bound, so no second
    # _flapack or _fblas is ever loaded.
    code = (
        "import sys\n"
        "from ssrmlab import spectra\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg.blas, scipy.linalg.lapack\n"
        "names = ['dgetrf', 'dgetri', 'dgetri_lwork', 'dgtsv', 'dormqr', 'dstebz', 'dstein', 'dsterf', 'dsytrd',"
        " 'dsytrd_lwork']\n"
        "same = [getattr(scipy.linalg.lapack, n) is getattr(spectra, n) for n in names]\n"
        "same += [getattr(scipy.linalg.blas, n) is getattr(spectra, n) for n in ['dgemm', 'dsymm']]\n"
        "same.append(sys.modules['scipy.linalg._flapack'] is spectra._flapack)\n"
        "same.append(sys.modules['scipy.linalg._fblas'] is spectra._fblas)\n"
        "print(all(same))"
    )
    assert _python(code, tmp_path) == "True"


def test_singular_column_distances_skip_scipy_linalg(tmp_path):
    # A singular matrix's null block comes from spectra's dstebz and dstein,
    # and A + N N^T from its dgemm, so the package is never imported.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ssrmlab.inverse_geometry import all_column_distances\n"
        "from ssrmlab.ensemble import SparseSymmetricMatrix\n"
        "from ssrmlab.spectra import _certified_extremes\n"
        "row, col = np.triu_indices(4)\n"
        "A = SparseSymmetricMatrix(4, row, col, np.ones(row.size))  # the all-ones matrix\n"
        "all_column_distances(A, _certified_extremes(A, null=True).vectors[:, 2:])\n"
        "print('scipy.linalg' in sys.modules)"
    )
    assert _python(code, tmp_path) == "False"


def test_loader_fallback_gives_the_same_spectrum(tmp_path):
    # Only the loader's own finder (the import system caches its finders in
    # sys.path_importer_cache) finds nothing, so spectra falls back to the
    # ordinary import of scipy.linalg._flapack and _fblas.
    code = (
        "import hashlib, json, sys\n"
        "from importlib.machinery import FileFinder\n"
        "real = FileFinder.find_spec\n"
        "def find_spec(self, fullname, target=None):\n"
        "    cached = sys.path_importer_cache.get(self.path) is self\n"
        "    return real(self, fullname, target) if cached else None\n"
        "FileFinder.find_spec = find_spec\n"
        "from ssrmlab.ensemble import RngStream, sample_matrix\n"
        "from ssrmlab.model import EnsembleParams, EntryDistribution\n"
        "from ssrmlab.spectra import full_symmetric_spectrum\n"
        "A = sample_matrix(EnsembleParams(120, 0.2, EntryDistribution('rademacher')), RngStream(5, 0))\n"
        "digest = hashlib.sha256(full_symmetric_spectrum(A).tobytes()).hexdigest()\n"
        "print(json.dumps({'scipy.linalg': 'scipy.linalg' in sys.modules, 'digest': digest}))"
    )
    A = sample_matrix(EnsembleParams(120, 0.2, EntryDistribution("rademacher")), RngStream(5, 0))
    digest = hashlib.sha256(spectra.full_symmetric_spectrum(A).tobytes()).hexdigest()
    assert json.loads(_python(code, tmp_path)) == {"scipy.linalg": True, "digest": digest}


# Property tests: hypothesis-drawn flag values and malformed input files, each
# run in a child with a deadline (``in_child``).  Every size stays small (n <= 64 wherever a matrix is sampled
# or densified, trials = 2, at most 3 workers), so no example allocates more
# than a few MB or starts more than a few processes.
_STATUSES = {0} | {status for _, status, _ in EXIT_TABLE}


def _main_here(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s status and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def _ends_cleanly(argv: list[str], out: str | None = None) -> None:
    """Run ``main(argv)`` in a child with a deadline and check that its status
    is listed in EXIT_TABLE (or is 0), stderr holds one line at most and no
    traceback, and the CSV ``out`` and its sidecar both exist or neither does."""
    status, err = in_child(_main_here, argv)
    assert status in _STATUSES
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    assert status == 0 or err
    if out is not None:
        assert os.path.isfile(out) == os.path.isfile(out + ".meta.json")


@contextlib.contextmanager
def _scratch_dir():
    """A fresh temporary working directory, so relative --out paths stay in it."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        yield


def _flags(draw, strategies: dict) -> list[str]:
    """``--flag=value`` for a drawn subset of ``strategies`` (flag -> strategy of values)."""
    chosen = draw(st.lists(st.sampled_from(sorted(strategies)), unique=True))
    return [f"{flag}={draw(strategies[flag])}" for flag in chosen]


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1.0, 1.0, 2.0])
_ANY_FLOAT = st.one_of(_SPECIAL_FLOATS, st.floats())
_INTEGER = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
_OUT = st.text("ab./%-_", max_size=6)
_DIST = st.one_of(st.sampled_from(["rademacher", "gaussian", "two-point:0.3", "two-point:0", "cauchy"]), st.text(max_size=8))


@st.composite
def _generate_argv(draw) -> list[str]:
    required = [f"-n={draw(st.integers(-3, 64))}", f"-p={draw(st.one_of(st.floats(0, 1), _ANY_FLOAT))}"]
    return ["generate", *required, *_flags(draw, {"--dist": _DIST, "--seed": _INTEGER, "--stream": _INTEGER, "--out": _OUT})]


@settings(max_examples=60)
@given(_generate_argv())
def test_generate_flags_end_cleanly(argv):
    with _scratch_dir():
        _ends_cleanly(argv)


# Vector files: numbers (non-finite ones included) and a stray token now and then.
_VECTOR_TEXTS = st.one_of(
    _VECTORS.map(lambda x: list(map(repr, x))),
    st.lists(
        st.one_of(st.floats(-10, 10).map(repr), _SPECIAL_FLOATS.map(repr), st.sampled_from(["x", "1e", "--", "0x1p3"])),
        max_size=12,
    ),
).map(" ".join)
# lcd's L and cap stay <= 1e4: the scan's length grows with them.
_LCD_FLOAT = st.one_of(_SPECIAL_FLOATS, st.floats(-10, 1e4))


_VECTOR_FLAGS = {
    "lcd": {"--scale-l": _LCD_FLOAT, "--cap": _LCD_FLOAT},
    "structure": dict.fromkeys(["--alpha", "--c-s", "--c-d", "--c-oo"], st.one_of(st.floats(0, 1), _ANY_FLOAT)),
}


@st.composite
def _vector_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_VECTOR_FLAGS)))
    return [command, "--vector", "v.txt", *_flags(draw, _VECTOR_FLAGS[command])]


@settings(max_examples=80)
@given(argv=_vector_argv(), text=_VECTOR_TEXTS)
def test_vector_flags_and_files_end_cleanly(argv, text):
    with _scratch_dir():
        with open("v.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        _ends_cleanly(argv)


@st.composite
def _matrix_texts(draw) -> str:
    """A small matrix file, valid or broken by one or two of: a bad header,
    i > j, a duplicate, an index out of range, a stored zero, a non-finite
    value, a short line; or an empty file."""
    n = draw(st.integers(1, 8))
    header = f"{n} 0.5 0 0"
    index = st.integers(0, n - 1)
    cells = draw(st.lists(st.tuples(index, index).map(sorted).map(tuple), unique=True, max_size=12))
    entries = [f"{i} {j} {draw(st.floats(-1e3, 1e3).map(lambda v: v or 1.0))!r}" for i, j in cells]
    breaks = {
        "header": lambda: [draw(st.sampled_from(["", "x", f"{n} 0.5", f"{n} 0.5 0 0 9", f"{n}.5 0.5 0 0", "-1 0.5 0 0", "0 0.5 0 0"]))],
        "lower": lambda: [f"{n - 1} 0 1.0"],
        "duplicate": lambda: entries[:1] * 2 if entries else ["0 0 1.0", "0 0 2.0"],
        "range": lambda: [f"0 {n} 1.0"],
        "zero": lambda: ["0 0 0.0"],
        "non-finite": lambda: [f"0 0 {draw(st.sampled_from(['nan', 'inf', '-inf', '1e400']))}"],
        "short": lambda: ["0 0"],
    }
    lines = [header, *entries]
    for name in draw(st.lists(st.sampled_from(sorted(breaks) + ["empty"]), max_size=2)):
        if name == "empty":
            return ""
        if name == "header":
            lines[0:1] = breaks[name]()
        else:
            lines[1:1] = breaks[name]()
    return "\n".join(lines) + "\n"


@settings(max_examples=100)
@given(_matrix_texts())
def test_matrix_files_end_cleanly(text):
    with _scratch_dir():
        with open("m.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        _ends_cleanly(["spectra", "--matrix", "m.txt"])


@st.composite
def _run_argv(draw) -> list[str]:
    kind = draw(st.sampled_from(harness.EXPERIMENT_KINDS))
    flags = _flags(draw, {"--seed": _INTEGER, "--workers": st.integers(-1, 3), "--out": _OUT})
    return [kind, "--config", "config.ini", *flags, *draw(st.sampled_from([[], ["--dry-run"]]))]


@settings(max_examples=40)
@given(_run_argv())
@example(["tail-sweep", "--config", "config.ini", "--out="])  # the CSV's rename fails after the sidecar's
@example(["tail-sweep", "--config", "config.ini", "--out=."])
def test_run_flags_end_cleanly(argv):
    kind, flags = argv[0], argv[3:]
    out = next((flag.split("=", 1)[1] for flag in flags if flag.startswith("--out=")), "r.csv")
    with _scratch_dir():
        with open("config.ini", "w", encoding="utf-8") as fh:
            fh.write(CONFIG_TEXT.replace("tail-sweep", kind).replace("trials = 8", "trials = 2").format(out="r.csv"))
        _ends_cleanly(argv, out)
