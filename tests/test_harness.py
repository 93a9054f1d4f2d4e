import concurrent.futures
import configparser
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import string
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssrmlab
from in_child import in_child
from ssrmlab import spectra
from ssrmlab.ensemble import Purpose, sample_matrix, trial_stream
from ssrmlab.errors import EXIT_TABLE, ConfigError, ParameterError
from ssrmlab import harness
from ssrmlab.harness import (
    ARTIFACT_VERSION,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    TailRow,
    config_from_text,
    exponent_fit,
    run,
    scaling_consistency,
    tail_sweep,
)
from ssrmlab.model import EnsembleParams, EntryDistribution
from ssrmlab.stats import wilson_interval

RAD = EntryDistribution("rademacher")
GAUSS = EntryDistribution("standard-gaussian")


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        kind="tail-sweep",
        dist=RAD,
        eps_grid=(0.001, 0.01, 0.1),
        n_grid=(24,),
        p_grid=(0.5,),
        trials=16,
        seed=7,
        workers=1,
        out="out.csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIG_TEXT = """
[experiment]
kind = tail-sweep
trials = 16
seed = 7
workers = 1
out = out.csv

[ensemble]
dist = rademacher

[grid]
n = 24
p = 0.5
eps = 0.001,0.01,0.1
"""


def _kind_config(kind: str) -> str:
    """CONFIG_TEXT run as ``kind``; quadratic needs eps points its tail curve reaches."""
    text = CONFIG_TEXT.replace("tail-sweep", kind)
    if kind == "quadratic":
        text = text.replace("eps = 0.001,0.01,0.1", "eps = 0.01,0.1,1.0,3.0,10.0")
    return text


def _padded(value: float) -> str:
    """``repr(value)`` with trailing zeros in its mantissa: the same float, spelled otherwise."""
    mantissa, e, exponent = repr(value).partition("e")
    return mantissa + ("000" if "." in mantissa else ".000") + e + exponent


# Spellings of one float that parse back to it.
_SPELLINGS = {"repr": repr, ".17g": lambda value: format(value, ".17g"), "padded": _padded}


def _config_text(cfg: ExperimentConfig, spell=repr, params=None) -> str:
    """``cfg`` written as config text, key by key from ``harness._KEYS``, with
    each float spelled by ``spell`` and the [params] keys ``params`` (all of them
    by default)."""

    def text(value) -> str:
        return spell(value) if isinstance(value, float) else str(value)

    sections = {}
    for (section, key), (name, _, _) in harness._KEYS.items():
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(map(text, value))
        elif isinstance(value, EntryDistribution):
            value = value.kind if value.prob is None else f"two-point:{text(value.prob)}"
        sections.setdefault(section, {})[key] = value
    sections["params"] = {key: text(value) for key, value in cfg.params.items() if params is None or key in params}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())


# The kinds whose record reads grid.eps.
_EPS_KINDS = [k for k in EXPERIMENT_KINDS if harness._KINDS[k].reads_eps]


def test_versions_agree():
    # The version has one home, ssrmlab.__version__: the build reads it from
    # there and the sidecars' artifact string is bound to it.
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        declared = read_configuration(pyproject, expand=False)["project"]
        built = read_configuration(pyproject)["project"]
    assert "version" not in declared and built["version"] == ssrmlab.__version__
    assert ARTIFACT_VERSION is ssrmlab.__version__


class TestWilson:
    def test_basic_bounds(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and lo < 1.0

    def test_coverage_93_to_97(self):
        # 10^4 synthetic binomial repetitions at two (n, p) pairs.
        rng = np.random.default_rng(123)
        for n, p in ((100, 0.3), (400, 0.5)):
            ks = rng.binomial(n, p, size=10_000)
            cache = {}
            cover = 0
            for k in ks:
                if k not in cache:
                    cache[k] = wilson_interval(int(k), n)
                lo, hi = cache[k]
                cover += lo <= p <= hi
            assert 0.93 <= cover / 10_000 <= 0.97

    def test_interval_brackets_the_estimate(self):
        # 0 <= lo <= p_hat <= hi <= 1, within 1e-12, for every count up to 1000.
        for t in range(1, 1001):
            for s in range(t + 1):
                lo, hi = wilson_interval(s, t)
                assert 0.0 <= lo <= s / t + 1e-12 and s / t <= hi + 1e-12 and hi <= 1.0, (s, t)


class TestConfig:
    def test_round_trip_lossless(self):
        cfg = _config(kind="distance-check", params={"m": 12, "rho": 0.25})
        assert config_from_text(_config_text(cfg)) == cfg

    def test_parse_reference_text(self):
        cfg = config_from_text(CONFIG_TEXT)
        assert cfg.kind == "tail-sweep"
        assert cfg.n_grid == (24,)
        assert cfg.eps_grid == (0.001, 0.01, 0.1)
        assert cfg.dist.kind == "rademacher"

    def test_config_block_holds_every_field_but_out(self):
        # The artifact id hashes this block, so a field it lacked would drop
        # out of the id unseen.  perfbench reads kind, seed and trials from it.
        names = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"out"}
        assert set(harness._config_block(_config())) == names >= {"kind", "seed", "trials"}

    def test_params_hold_every_key_at_its_default(self):
        # An unset [params] key holds its default, so the sidecar says which
        # values ran; a key of another kind is rejected, through replace too.
        cfg = config_from_text(_kind_config("distance-check"))
        assert cfg.params == {"m": 12, "rho": 0.1}
        assert harness._config_block(cfg)["params"] == {"m": 12, "rho": 0.1}
        assert harness._config_block(cfg)["dist"] == {"kind": "rademacher", "prob": None}
        with pytest.raises(ConfigError, match="unknown config key params.m for kind norm-check"):
            dataclasses.replace(cfg, kind="norm-check")

    def test_missing_kind_named(self):
        with pytest.raises(ConfigError, match="experiment.kind"):
            config_from_text("[experiment]\ntrials = 3\n")

    def test_bad_trials_named(self):
        with pytest.raises(ConfigError, match="experiment.trials"):
            config_from_text(CONFIG_TEXT.replace("trials = 16", "trials = sixteen"))

    def test_bad_grid_named(self):
        with pytest.raises(ConfigError, match="grid.p"):
            config_from_text(CONFIG_TEXT.replace("p = 0.5", "p = half"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            config_from_text(CONFIG_TEXT.replace("tail-sweep", "frobnicate"))


class TestTailSweep:
    def test_infeasible_cell_rejected(self):
        # The config itself rejects the cell, before any sweep can start.
        with pytest.raises(ParameterError, match="infeasible"):
            tail_sweep(_config(n_grid=(10,), p_grid=(0.05,)))

    def test_eps_zero_continuous_never_singular(self):
        cfg = _config(dist=EntryDistribution("standard-gaussian"), eps_grid=(0.0,), trials=20)
        rows = tail_sweep(cfg)
        assert rows[0].p_hat == 0.0

    def test_huge_eps_matches_norm_event_frequency(self):
        cfg = _config(eps_grid=(1e3,), trials=20)
        rows = tail_sweep(cfg)
        # First event certain; p_hat equals the operator-norm event frequency.
        assert rows[0].p_hat >= 0.95

    def test_success_counts_nested_in_eps(self):
        cfg = _config(eps_grid=(0.001, 0.01, 0.1, 1.0, 10.0), trials=25)
        rows = tail_sweep(cfg)
        succ = [r.successes for r in rows]
        assert succ == sorted(succ)

    def test_grid_order_deterministic(self):
        cfg = _config(n_grid=(8, 12), p_grid=(0.5, 0.9), eps_grid=(0.1, 1.0), trials=3)
        rows = tail_sweep(cfg)
        keys = [(r.n, r.p, r.eps) for r in rows]
        assert keys == sorted(keys, key=lambda t: (cfg.n_grid.index(t[0]), cfg.p_grid.index(t[1]), cfg.eps_grid.index(t[2])))


def _tail_row(n: int, p: float, eps: float, successes: int, trials: int) -> TailRow:
    """The row ``tail_sweep`` writes for ``successes`` of ``trials``."""
    return TailRow(n, p, eps, successes, trials, successes / trials, *wilson_interval(successes, trials))


class TestExponentFit:
    def test_exact_linear_recovery(self):
        rows = [_tail_row(10, 0.5, eps, int(1000 * eps), 1000) for eps in (0.1, 0.2, 0.4, 0.8)]
        fit = exponent_fit(rows)
        assert fit is not None
        assert fit.slope == pytest.approx(1.0, abs=1e-9)

    def test_ninth_root_recovery(self):
        # p_hat = eps^(1/9) exactly, via explicit field construction.
        rows = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            phat = eps ** (1 / 9)
            trials = 10**6
            rows.append(TailRow(10, 0.5, eps, int(round(phat * trials)), trials, phat, phat / 2, min(1.0, phat * 1.5)))
        fit = exponent_fit(rows)
        assert fit is not None
        assert fit.slope == pytest.approx(1 / 9, abs=1e-9)

    def test_too_few_points(self):
        rows = [_tail_row(10, 0.5, 0.1, 5, 100)]
        assert exponent_fit(rows) is None

    def test_one_eps_value_no_fit(self):
        # Four cells solid at one eps point only: no slope, and no error.
        rows = [_tail_row(n, 0.5, eps, 4 if eps == 1.0 else 0, 6) for n in (8, 12, 16, 24) for eps in (0.1, 1.0)]
        assert exponent_fit(rows) is None

    def test_zero_rows_excluded(self):
        rows = [_tail_row(10, 0.5, eps, 0, 100) for eps in (0.1, 0.2, 0.4, 0.8)]
        assert exponent_fit(rows) is None


class TestScaling:
    def test_single_n_no_ratio(self):
        cfg = _config(kind="scaling", n_grid=(16,), trials=8)
        cells = scaling_consistency(cfg)
        assert cells[0].ratio_to_prev is None

    def test_two_point_grid(self):
        cfg = _config(kind="scaling", n_grid=(16, 32), trials=12)
        cells = scaling_consistency(cfg)
        assert len(cells) == 2
        ratio = cells[1].ratio_to_prev
        assert ratio is not None and 0.05 < ratio < 20
        for cell in cells:
            assert cell.median_cond_over_n > 0

    def test_trial_above_2048_reduces_once(self, monkeypatch):
        # One dsytrd per trial at every n, and the certified spectrum's extremes.
        calls = []
        real = spectra._tridiagonal
        monkeypatch.setattr(spectra, "_tridiagonal", lambda dense: calls.append(dense.shape) or real(dense))
        params = EnsembleParams(2049, 0.01, RAD)
        smin, smax = harness._extreme_values_for_trial(7, params, 0)
        assert calls == [(2049, 2049)]
        mags = np.abs(np.linalg.eigvalsh(sample_matrix(params, trial_stream(7, Purpose.MATRIX, 2049, 0.01, 0)).to_dense()))
        assert smin == pytest.approx(mags.min(), rel=1e-9) and smax == pytest.approx(mags.max(), rel=1e-12)

    def test_dense_regime_p_one(self):
        # p = 1 runs the same pipeline in the dense-matrix regime.
        cfg = _config(kind="scaling", n_grid=(24, 48), p_grid=(1.0,), trials=20)
        ratio = scaling_consistency(cfg)[1].ratio_to_prev
        assert ratio is not None and 1 / 3 <= ratio <= 3


class TestCellKeys:
    """A cell's draws are keyed by what the cell is, not by where it sits in the grid."""

    # The case that showed the old key by grid position: a Gaussian tail
    # sweep at seed 3, p = 0.3, 20 trials, eps 0.5 and 2, whose n = 60 cell
    # counted 8/20 and 20/20 in the grid n = 30,60 but 6/20 and 18/20 in n = 60.
    MEASURED = dict(dist=GAUSS, seed=3, p_grid=(0.3,), trials=20)

    def test_extending_a_sweep_keeps_its_rows(self):
        rows = {grid: tail_sweep(_config(n_grid=grid, eps_grid=(0.5, 2.0), **self.MEASURED)) for grid in [(30, 60), (60,)]}
        assert [row for row in rows[(30, 60)] if row.n == 60] == rows[(60,)]

    def test_extending_a_scaling_grid_keeps_its_medians(self):
        def medians(grid) -> dict:
            # Every column but ratio_to_prev, which compares with the cell before.
            return {cell.n: cell[:-1] for cell in scaling_consistency(_config(kind="scaling", n_grid=grid, eps_grid=(), **self.MEASURED))}

        assert medians((30, 60))[60] == medians((60,))[60]

    def test_sweep_kinds_fold_the_same_records(self, monkeypatch):
        folded = {}
        real = harness._extreme_values

        def record(cfg, cells):
            folded[cfg.kind] = dict(zip(cells, real(cfg, cells)))
            return list(folded[cfg.kind].values())

        monkeypatch.setattr(harness, "_extreme_values", record)
        grid = dict(n_grid=(16, 24), p_grid=(0.3, 0.5), trials=6)
        tail_sweep(_config(**grid))
        scaling_consistency(_config(kind="scaling", eps_grid=(), **grid))
        assert list(folded["tail-sweep"]) != list(folded["scaling"])  # n-major against p-major
        assert folded["tail-sweep"] == folded["scaling"]


class TestRun:
    def _write_config(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return str(path)

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        path = self._write_config(tmp_path, CONFIG_TEXT.replace("trials = 16", "trials = many"))
        assert run(path) == 2
        assert "experiment.trials" in capsys.readouterr().err

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        path = self._write_config(tmp_path, CONFIG_TEXT.replace("out.csv", str(out)))
        assert run(path, dry_run=True) == 0
        assert "cells=1" in capsys.readouterr().out
        assert not out.exists()

    def test_tail_sweep_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "r.csv"
        path = self._write_config(tmp_path, CONFIG_TEXT.replace("out.csv", str(out)))
        assert run(path) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ssrmlab tail-sweep v1")
        assert lines[1] == "n,p,eps,successes,trials,p_hat,wilson_lo,wilson_hi"
        assert len(lines) == 2 + 3  # three eps rows
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["config"]["seed"] == 7
        assert "structure_constants" not in meta
        assert meta["artifact"].startswith("ssrmlab-")

    def test_eps_points_with_one_log_give_no_fit(self, tmp_path):
        # The two eps points differ, but their logs round to one float, so
        # the solid cells fix no slope: the fit is null, not an error raised
        # after every trial has run.
        out = tmp_path / "r.csv"
        text = (
            CONFIG_TEXT.replace("out.csv", str(out)).replace("trials = 16", "trials = 20").replace("seed = 7", "seed = 5")
            .replace("n = 24", "n = 40,60").replace("p = 0.5", "p = 0.06")
            .replace("eps = 0.001,0.01,0.1", "eps = 1e-300,1.0000000000000002e-300")
        )
        assert run(self._write_config(tmp_path, text)) == 0
        assert len(out.read_text().splitlines()) == 2 + 4
        assert json.loads((tmp_path / "r.csv.meta.json").read_text())["results"] == {"exponent_fit": None}

    def test_grid_point_too_large_to_allocate(self, tmp_path, capsys):
        # At n = 10^7 the first draw asks numpy for about 364 TiB, more than
        # any address space holds, so it fails at once.
        out = tmp_path / "r.csv"
        path = self._write_config(tmp_path, CONFIG_TEXT.replace("n = 24", "n = 10000000").replace("out.csv", str(out)))
        assert run(path) == 1
        err = capsys.readouterr().err
        assert err.startswith("memory error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    @pytest.mark.parametrize("kind", ["tail-sweep", "scaling", "norm-check", "distance-check", "smallball", "quadratic"])
    def test_worker_count_does_not_change_csv(self, tmp_path, kind):
        out1 = tmp_path / "w1.csv"
        out8 = tmp_path / "w8.csv"
        path = self._write_config(tmp_path, _kind_config(kind))
        assert run(path, out=str(out1), workers=1) == 0
        assert run(path, out=str(out8), workers=8) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_artifact_id_ignores_output_and_workers(self, tmp_path):
        def artifact(sub, workers, text=CONFIG_TEXT):
            (tmp_path / sub).mkdir()
            out = tmp_path / sub / "r.csv"
            assert run(self._write_config(tmp_path / sub, text), out=str(out), workers=workers) == 0
            return json.loads((tmp_path / sub / "r.csv.meta.json").read_text())["artifact"]

        first = artifact("a", 1)
        assert artifact("b", 2) == first
        assert artifact("c", 1, CONFIG_TEXT.replace("seed = 7", "seed = 8")) != first

    def test_failed_sidecar_write_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        def failing(csv_path, cfg, extra=None):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "write_sidecar", failing)
        out = tmp_path / "r.csv"
        assert run(self._write_config(tmp_path, CONFIG_TEXT), out=str(out)) == 1
        assert capsys.readouterr().err == "io error: disk full\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]

    def test_rerun_replaces_both_outputs(self, tmp_path):
        out = tmp_path / "r.csv"
        path = self._write_config(tmp_path, CONFIG_TEXT)
        assert run(path, out=str(out), seed=1) == 0
        assert run(path, out=str(out), seed=2) == 0
        assert json.loads((tmp_path / "r.csv.meta.json").read_text())["config"]["seed"] == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "r.csv", "r.csv.meta.json"]

    def test_unreadable_config(self, tmp_path, capsys):
        assert run(str(tmp_path / "missing.ini")) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,first_columns",
        [
            ("scaling", "n,p,trials,median_smin_scaled"),
            ("norm-check", "trial,norm,norm_over_sqrt_pn,omega_event"),
            ("distance-check", "trial,s_min,minimizer_incompressible"),
            ("smallball", "eps,estimate,ci,bound_bracket,pass"),
            ("quadratic", "eps,p_hat_zero,p_hat_median"),
        ],
    )
    def test_every_runner_emits_csv_and_sidecar(self, tmp_path, kind, first_columns):
        out = tmp_path / f"{kind}.csv"
        path = self._write_config(tmp_path, _kind_config(kind).replace("out.csv", str(out)))
        assert run(path) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# ssrmlab {kind} v1"
        assert lines[1].startswith(first_columns)
        assert len(lines) > 2
        assert (tmp_path / f"{kind}.csv.meta.json").exists()

    def test_quadratic_eps_in_any_order(self, tmp_path):
        # One set of realizations serves every eps point, so a permuted grid
        # writes the same rows, permuted, and fits the same slopes (to a last
        # bit, which the order of the fit's sums may move).
        grid = "eps = 0.01,0.1,1.0,3.0,10.0"
        outputs = []
        for name, eps in (("sorted", grid), ("permuted", "eps = 3.0,0.01,10.0,1.0,0.1")):
            out = tmp_path / f"{name}.csv"
            path = self._write_config(tmp_path, _kind_config("quadratic").replace(grid, eps).replace("out.csv", str(out)))
            assert run(path) == 0
            meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
            outputs.append((out.read_text().splitlines(), meta["results"]))
        (lines, results), (permuted_lines, permuted_results) = outputs
        assert permuted_lines[:2] == lines[:2]
        assert permuted_lines[2:] == [lines[2 + k] for k in (3, 0, 4, 2, 1)]
        assert permuted_results["excluded_singular"] == results["excluded_singular"]
        for fit in ("slope_zero", "slope_median"):
            assert permuted_results[fit] == pytest.approx(results[fit], rel=1e-12)

    @pytest.mark.parametrize("kind", [k for k in EXPERIMENT_KINDS if k not in _EPS_KINDS])
    def test_eps_unset_is_empty(self, kind):
        # A kind that reads no eps takes an empty grid when none is written,
        # and its sidecar then shows none.
        text = "\n".join(line for line in _kind_config(kind).splitlines() if not line.startswith("eps ="))
        cfg = config_from_text(text)
        assert cfg.eps_grid == ()
        assert harness._config_block(cfg)["eps_grid"] == ()


class TestConfigRejected:
    """Each bad config ends in exit 2, one stderr line and no output, under --dry-run too."""

    def _assert_rejected(self, tmp_path, capsys, text, needle):
        out = tmp_path / "r.csv"
        path = tmp_path / "cfg.ini"
        path.write_text(text.replace("out.csv", str(out)))
        for dry_run in (True, False):
            assert run(str(path), dry_run=dry_run) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and needle in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind", [k for k in EXPERIMENT_KINDS if not harness._KINDS[k].sweeps])
    @pytest.mark.parametrize("grid", [("n = 24", "n = 24,32"), ("p = 0.5", "p = 0.5,0.2")])
    def test_single_cell_kind_rejects_grid(self, tmp_path, capsys, kind, grid):
        self._assert_rejected(tmp_path, capsys, _kind_config(kind).replace(*grid), "one (n, p) cell")

    def test_cbar_not_a_number(self, tmp_path, capsys):
        text = _kind_config("norm-check") + "\n[params]\ncbar = two\n"
        needle = "config error: bad value at params.cbar: 'two' (could not convert string to float: 'two')\n"
        self._assert_rejected(tmp_path, capsys, text, needle)

    def test_m_not_an_integer(self, tmp_path, capsys):
        text = _kind_config("distance-check") + "\n[params]\nm = 1.5\n"
        needle = "config error: bad value at params.m: '1.5' ('1.5' is not a decimal integer)\n"
        self._assert_rejected(tmp_path, capsys, text, needle)

    @pytest.mark.parametrize("key", ["experiment.trials", "experiment.seed", "experiment.workers", "grid.n", "params.m"])
    @pytest.mark.parametrize("value", ["3", "3.0", "3.5", "1e3"])
    def test_integer_keys_take_decimal_literals_only(self, tmp_path, capsys, key, value):
        # One parser for every integer key: grid.n used to take 3.0 and
        # the others to reject it with int()'s message.
        name = key.split(".")[1]
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", _kind_config("distance-check") + "\n[params]\nm = 2\n", flags=re.M)
        if value == "3":
            cfg = config_from_text(text)
            parsed = {"trials": cfg.trials, "seed": cfg.seed, "workers": cfg.workers, "n": cfg.n_grid[0], "m": cfg.params["m"]}
            assert parsed[name] == 3
        else:
            self._assert_rejected(tmp_path, capsys, text, f"config error: bad value at {key}: '{value}' ('{value}' is not a decimal integer)\n")

    def test_param_of_another_kind(self, tmp_path, capsys):
        text = _kind_config("distance-check") + "\n[params]\ncbar = 2.0\n"
        self._assert_rejected(tmp_path, capsys, text, "params.cbar")

    def test_fractional_n(self, tmp_path, capsys):
        for n in ("50.9", "5.5"):
            self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace("n = 24", f"n = {n}"), "grid.n")

    def test_misspelled_key(self, tmp_path, capsys):
        text = CONFIG_TEXT.replace("trials = 16", "trails = 2000")
        self._assert_rejected(tmp_path, capsys, text, "experiment.trails")

    def test_unknown_section(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace("[grid]", "[gird]"), "[gird]")

    @pytest.mark.parametrize("edit", [("seed = 7", "seed"), ("[experiment]", "n = 24\n[experiment]")], ids=["no-value", "no-header"])
    def test_unparseable_text_is_one_line(self, tmp_path, capsys, edit):
        # configparser's own message for these spans several lines.
        self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace(*edit, 1), "config error: unparseable config: ")

    @pytest.mark.parametrize(
        "kind,section",
        [("smallball", "l = 2"), ("distance-check", "c_d = 0.2"), ("tail-sweep", "c_s = 0.1"), ("scaling", "")],
    )
    def test_structure_section(self, tmp_path, capsys, kind, section):
        text = _kind_config(kind) + f"\n[structure]\n{section}\n"
        self._assert_rejected(tmp_path, capsys, text, "config error: unknown config section [structure]")

    def test_non_finite_value(self, tmp_path, capsys):
        text = _kind_config("norm-check") + "\n[params]\ncbar = nan\n"
        self._assert_rejected(tmp_path, capsys, text, "config error: bad value at params.cbar: 'nan' ('nan' is not finite)\n")

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_cbar_not_positive(self, tmp_path, capsys, value):
        text = _kind_config("norm-check") + f"\n[params]\ncbar = {value}\n"
        self._assert_rejected(tmp_path, capsys, text, "norm-check needs params.cbar > 0")

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_ensemble_c_op(self, tmp_path, capsys, kind):
        text = _kind_config(kind).replace("dist = rademacher", "dist = rademacher\nc_op = 3.0")
        self._assert_rejected(tmp_path, capsys, text, "config error: unknown config key ensemble.c_op")

    @pytest.mark.parametrize("value", ["3.0", "0"])
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_params_c_op(self, tmp_path, capsys, kind, value):
        # C_op is the constant spectra.C_OP, so no kind admits a key for it.
        text = _kind_config(kind) + f"\n[params]\nc_op = {value}\n"
        self._assert_rejected(tmp_path, capsys, text, f"unknown config key params.c_op for kind {kind}")

    @pytest.mark.parametrize("m", ["25", "20", "0"])
    def test_distance_check_m_out_of_range(self, tmp_path, capsys, m):
        text = _kind_config("distance-check").replace("n = 24", "n = 20") + f"\n[params]\nm = {m}\n"
        self._assert_rejected(tmp_path, capsys, text, "1 <= params.m < n")

    @pytest.mark.parametrize("kind", [k for k in EXPERIMENT_KINDS if not harness._KINDS[k].vectors])
    def test_sparsity_below_one_over_n(self, tmp_path, capsys, kind):
        text = _kind_config(kind).replace("n = 24", "n = 20").replace("p = 0.5", "p = 0.01")
        self._assert_rejected(tmp_path, capsys, text, "infeasible cell n=20, p=0.01")

    def test_sparsity_below_one_over_n_in_second_cell(self, tmp_path, capsys):
        text = _kind_config("scaling").replace("n = 24", "n = 24,400").replace("p = 0.5", "p = 0.5,0.002")
        self._assert_rejected(tmp_path, capsys, text, "infeasible cell n=24, p=0.002")

    @pytest.mark.parametrize("grid", [("n = 24", "n = 1"), ("p = 0.5", "p = 1.5")])
    def test_cell_outside_ensemble(self, tmp_path, capsys, grid):
        self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace(*grid), "(section [grid])")

    @pytest.mark.parametrize("value", ["0.9", "0", "-0.1"])
    def test_bvh_eps_out_of_range(self, tmp_path, capsys, value):
        text = _kind_config("norm-check") + f"\n[params]\nbvh_eps = {value}\n"
        self._assert_rejected(tmp_path, capsys, text, "params.bvh_eps in (0, 1/2]")

    @pytest.mark.parametrize("kind", _EPS_KINDS)
    def test_negative_eps(self, tmp_path, capsys, kind):
        text = _kind_config(kind).replace("eps = 0.001,0.01,0.1", "eps = -0.5,0.1").replace(
            "eps = 0.01,0.1,1.0,3.0,10.0", "eps = -0.5,0.1"
        )
        self._assert_rejected(tmp_path, capsys, text, f"{kind} needs grid.eps of one point or more, each >= 0, got eps=-0.5,0.1")

    @pytest.mark.parametrize("kind", _EPS_KINDS)
    def test_missing_eps(self, tmp_path, capsys, kind):
        # No silent default eps: a kind that reads grid.eps needs it written.
        text = "\n".join(line for line in _kind_config(kind).splitlines() if not line.startswith("eps ="))
        self._assert_rejected(tmp_path, capsys, text, f"{kind} needs grid.eps of one point or more, each >= 0, got eps=none")

    @pytest.mark.parametrize("params", ["eps = -1", "rho = 0", "rho = -0.5"])
    def test_distance_check_eps_rho(self, tmp_path, capsys, params):
        # distance-check's threshold is grid.eps alone: params.eps is unknown.
        text = _kind_config("distance-check") + f"\n[params]\n{params}\n"
        needle = "unknown config key params.eps" if params.startswith("eps") else "distance-check needs params.rho > 0"
        self._assert_rejected(tmp_path, capsys, text, needle)

    def test_distance_check_default_eps_from_grid(self, tmp_path, capsys):
        text = _kind_config("distance-check").replace("eps = 0.001,0.01,0.1", "eps = -0.1")
        self._assert_rejected(tmp_path, capsys, text, "got eps=-0.1")

    @pytest.mark.parametrize(
        "grid,needle",
        [(("n = 24", "n = 0"), "grid.n >= 1"), (("p = 0.5", "p = 0"), "grid.p in (0, 1]"), (("p = 0.5", "p = 1.5"), "grid.p in (0, 1]")],
    )
    def test_smallball_cell_out_of_range(self, tmp_path, capsys, grid, needle):
        self._assert_rejected(tmp_path, capsys, _kind_config("smallball").replace(*grid), needle)

    def test_smallball_runs_at_n_one(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        path = tmp_path / "cfg.ini"
        path.write_text(_kind_config("smallball").replace("n = 24", "n = 1"))
        assert run(str(path), out=str(out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace("seed = 7", f"seed = {seed}"), "experiment.seed")

    @pytest.mark.parametrize("trials", ["0", "4294967296", "4294967297"])
    def test_trials_out_of_range(self, tmp_path, capsys, trials):
        # A dry run only: were the check missing, a real run of 2^32 trials
        # would first build a task list of that length.
        path = tmp_path / "cfg.ini"
        path.write_text(CONFIG_TEXT.replace("trials = 16", f"trials = {trials}"))
        assert run(str(path), dry_run=True) == 2
        assert capsys.readouterr() == ("", f"config error: experiment.trials must lie in [1, 2^32), got {trials}\n")

    def test_seed_override_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(CONFIG_TEXT)
        assert run(str(path), dry_run=True, seed=-1) == 2
        assert capsys.readouterr().err.startswith("config error: experiment.seed must lie in [0, 2^64)")

    def test_smallball_samples_no_matrix(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        path = tmp_path / "cfg.ini"
        path.write_text(_kind_config("smallball").replace("n = 24", "n = 20").replace("p = 0.5", "p = 0.01"))
        assert run(str(path), out=str(out)) == 0
        assert out.exists()

    def test_percent_sign_in_output_path(self, tmp_path, capsys):
        out = tmp_path / "100%.csv"
        path = tmp_path / "cfg.ini"
        path.write_text(CONFIG_TEXT.replace("out.csv", str(out)))
        assert run(str(path), dry_run=True) == 0
        assert capsys.readouterr().out.endswith("-> " + str(out) + "\n")

    def test_kind_override_rechecks_params(self, tmp_path, capsys):
        # A subcommand never runs a config of another kind.
        path = tmp_path / "cfg.ini"
        path.write_text(_kind_config("norm-check") + "\n[params]\ncbar = 2.0\n")
        assert run(str(path), dry_run=True, kind="norm-check") == 0
        capsys.readouterr()
        needle = f"config error: subcommand distance-check does not match experiment.kind = norm-check in {str(path)!r}\n"
        for dry_run in (True, False):
            assert run(str(path), dry_run=dry_run, kind="distance-check") == 2
            assert capsys.readouterr() == ("", needle)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


def _finite_floats(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def _configs(draw) -> ExperimentConfig:
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    record = harness._KINDS[kind]
    cells = 3 if record.sweeps else 1
    n_grid = tuple(draw(st.lists(st.integers(2, 10**6), min_size=1, max_size=cells)))
    p_grid = tuple(draw(st.lists(_finite_floats(min_value=1.0 / min(n_grid), max_value=1.0), min_size=1, max_size=cells)))
    dist = draw(
        st.one_of(
            st.sampled_from(["rademacher", "standard-gaussian", "uniform-symmetric"]).map(EntryDistribution),
            _finite_floats(min_value=1e-6, max_value=1.0 - 1e-6).map(lambda prob: EntryDistribution("two-point-general", prob)),
        )
    )
    eps_grid = tuple(draw(st.lists(_finite_floats(), min_size=int(record.reads_eps), max_size=4)))
    if record.reads_eps:
        eps_grid = tuple(abs(e) for e in eps_grid)
    if kind == "norm-check":
        params = draw(st.dictionaries(st.just("cbar"), _finite_floats(min_value=0.0, exclude_min=True)))
        params.update(draw(st.dictionaries(st.just("bvh_eps"), _finite_floats(min_value=0.0, max_value=0.5, exclude_min=True))))
    elif kind == "distance-check":
        params = draw(st.dictionaries(st.just("rho"), _finite_floats(min_value=0.0, exclude_min=True)))
        params.update(draw(st.dictionaries(st.just("m"), st.integers(1, n_grid[0] - 1))))
    else:
        params = {}
    return ExperimentConfig(
        kind=kind,
        dist=dist,
        eps_grid=eps_grid,
        n_grid=n_grid,
        p_grid=p_grid,
        trials=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        workers=draw(st.integers(1, 64)),
        out=draw(st.text(string.ascii_letters + string.digits + "._-/%", min_size=1)),
        params=params,
    )


# Config text built from the sections and keys a config admits, with
# values that are right for the key, wrong for it, or arbitrary, plus at
# most one stray line, so that the fuzz reaches past the first parse error.
_ADMITTED = {
    "experiment": {"kind": list(EXPERIMENT_KINDS), "trials": ["8"], "seed": ["3"], "workers": ["2"], "out": ["r.csv"]},
    "ensemble": {"dist": ["rademacher", "gaussian", "two-point:0.3"]},
    "grid": {"n": ["24", "24,400"], "p": ["0.5", "0.5,1"], "eps": ["0.01,0.1"]},
    "params": {"cbar": ["2"], "bvh_eps": ["0.5"], "m": ["12"], "rho": ["0.1"]},
}
_WRONG = [
    "", "0", "-1", "1e-320", "1e400", "nan", "inf", "50.9", "1e300", ",", "x", "%", "%(kind)s", "%%",
    "two-point:0", "two-point:1e-320", "two-point:x", "cauchy",
]


@st.composite
def _config_texts(draw) -> str:
    lines = []
    for section, keys in _ADMITTED.items():
        if section != "experiment" and draw(st.integers(0, 3)) == 0:
            continue
        lines.append(f"[{section}]")
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
        if section == "experiment" and "kind" not in chosen:
            chosen.append("kind")
        for key in chosen:
            wrong = st.one_of(st.sampled_from(_WRONG), st.text(st.characters(exclude_characters="\r\n")))
            lines.append(f"{key} = {draw(st.one_of(st.sampled_from(keys[key]), wrong))}")
    for stray in draw(st.lists(st.sampled_from(["[gird]", "[params]", "trails = 2", "kind = scaling", "= 1", "n"]), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), stray)
    return "\n".join(lines) + "\n"


def _artifact_id(cfg: ExperimentConfig) -> str:
    """The artifact id by its recipe: the sidecar's config block without workers, hashed."""
    block = {key: value for key, value in harness._config_block(cfg).items() if key != "workers"}
    return f"ssrmlab-{ARTIFACT_VERSION}+cfg." + hashlib.sha1(json.dumps(block, sort_keys=True).encode()).hexdigest()[:12]


class TestConfigHypothesis:
    @settings(max_examples=200)
    @given(_configs())
    def test_text_round_trip(self, cfg):
        assert config_from_text(_config_text(cfg)) == cfg

    @settings(max_examples=200)
    @given(_configs(), _configs())
    def test_artifact_id_tells_configs_apart(self, a, b):
        # Configs that differ in any field but out and workers get different
        # ids: a against b, and against a with one field of b's.
        def hashed(cfg):
            return dataclasses.replace(cfg, out="", workers=1)

        fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("out", "workers")]
        others = [b]
        for name in fields:
            with contextlib.suppress(ConfigError):
                others.append(dataclasses.replace(a, **{name: getattr(b, name)}))
        assert harness.artifact_version_string(a) == _artifact_id(a)
        for other in others:
            if hashed(other) != hashed(a):
                assert harness.artifact_version_string(other) != harness.artifact_version_string(a)

    @settings(max_examples=200)
    @given(_configs(), st.sampled_from(sorted(_SPELLINGS)), st.data())
    def test_equal_configs_share_one_id(self, cfg, spelling, data):
        # The same config written with each float respelled, and with each
        # [params] key at its default either written or left out, parses to
        # the same values and so gets the same id; its sidecar holds every
        # [params] key of the kind.
        record = harness._KINDS[cfg.kind].params
        written = [key for key, value in cfg.params.items() if value != record[key].default(cfg.n_grid[0]) or data.draw(st.booleans())]
        texts = [_config_text(cfg), _config_text(cfg, _SPELLINGS[spelling], written)]
        configs = [config_from_text(text) for text in texts]
        assert configs == [cfg, cfg]
        assert {harness.artifact_version_string(c) for c in configs} == {harness.artifact_version_string(cfg)}
        assert set(harness._config_block(configs[1])["params"]) == set(record)

    @settings(max_examples=300)
    @given(st.one_of(st.text(), _config_texts()))
    def test_parses_or_raises_config_error(self, text):
        try:
            cfg = config_from_text(text)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)


# ---------------------------------------------------------------------------
# Every key a kind admits changes its result.

GOLDEN = Path(__file__).resolve().parent / "golden"

# For each kind, a changed value for each key it admits, applied to its
# golden config.  Each is chosen to move a result: trials, n, p and eps
# change what is drawn or a column that echoes them; the others gate an
# event in every trial (cbar = 1e-9 fails the row-count event; rho = 1e-9
# makes every minimizer incompressible; eps = 0 leaves no column distance
# below the threshold); seed and dist change every draw.
_CHANGED = {
    "tail-sweep": {
        "experiment.trials": "3", "experiment.seed": "6", "ensemble.dist": "rademacher",
        "grid.n": "24,40", "grid.p": "0.3,0.6", "grid.eps": "0.01,0.1,2.0",
    },
    "scaling": {
        "experiment.trials": "3", "experiment.seed": "6", "ensemble.dist": "rademacher",
        "grid.n": "16,32,48", "grid.p": "0.4",
    },
    "norm-check": {
        "experiment.trials": "3", "experiment.seed": "6", "ensemble.dist": "rademacher", "grid.n": "56",
        "grid.p": "0.4", "params.cbar": "1e-9", "params.bvh_eps": "0.5",
    },
    "distance-check": {
        "experiment.trials": "3", "experiment.seed": "6", "ensemble.dist": "gaussian", "grid.n": "48",
        "grid.p": "0.4", "grid.eps": "0", "params.m": "16", "params.rho": "1e-9",
    },
    "smallball": {
        "experiment.trials": "3", "experiment.seed": "6", "ensemble.dist": "rademacher",
        "grid.n": "72", "grid.p": "0.6", "grid.eps": "0.01,0.1,0.7",
    },
    "quadratic": {
        "experiment.trials": "3", "experiment.seed": "6", "ensemble.dist": "gaussian", "grid.n": "40",
        "grid.p": "0.6", "grid.eps": "0.01,0.1,1.0,3.0,20.0",
    },
}

# workers and out never change the CSV (the determinism contract); kind
# selects the experiment itself.
_NOT_VALUES = ("experiment.kind", "experiment.workers", "experiment.out")

# Known gaps: no scaling or norm-check result reads grid.eps, and
# distance-check reads its first point only, yet all three admit it.
_EPS_UNREAD = {kind: "0.5,0.7" for kind in EXPERIMENT_KINDS if kind not in _EPS_KINDS}
_EPS_GAP = pytest.mark.xfail(
    strict=True, reason="perfbench writes grid.eps for every kind, so rejecting it needs a benchmark-only change first"
)


def _admitted(kind: str) -> list[str]:
    keys = [f"{section}.{key}" for section, key in harness._KEYS]
    return [k for k in keys if k not in _NOT_VALUES] + [f"params.{key}" for key in harness._KINDS[kind].params]


_KEY_CASES = [
    pytest.param(kind, key, _EPS_UNREAD[kind], id=f"{kind}-{key}", marks=_EPS_GAP)
    if key == "grid.eps" and kind in _EPS_UNREAD
    else pytest.param(kind, key, _CHANGED[kind].get(key), id=f"{kind}-{key}")
    for kind in EXPERIMENT_KINDS
    for key in _admitted(kind)
] + [pytest.param("distance-check", "grid.eps", "2.0,5.0", id="distance-check-grid.eps-later-point", marks=_EPS_GAP)]


def _golden_result(tmp_path, kind: str, key: str | None = None, value: str | None = None) -> tuple[bytes, dict]:
    """CSV bytes and sidecar results of ``kind``'s golden config, with ``key`` set to ``value``."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(GOLDEN / f"{kind}.ini", encoding="utf-8")
    if key is not None:
        section, name = key.split(".")
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][name] = value
    name = "base" if key is None else "changed"
    path, out = tmp_path / f"{name}.ini", tmp_path / f"{name}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    assert run(str(path), out=str(out)) == 0
    return out.read_bytes(), json.loads((tmp_path / f"{name}.csv.meta.json").read_text()).get("results")


@pytest.fixture(scope="module")
def golden_base(tmp_path_factory):
    """``_golden_result`` of each kind's unchanged golden config, run once per kind."""
    cache = {}

    def base(kind: str) -> tuple[bytes, dict]:
        if kind not in cache:
            cache[kind] = _golden_result(tmp_path_factory.mktemp(kind), kind)
        return cache[kind]

    return base


@pytest.mark.parametrize("kind,key,value", _KEY_CASES)
def test_every_admitted_key_changes_a_result(tmp_path, golden_base, kind, key, value):
    assert value is not None, f"no changed value listed for {kind} {key}"
    assert _golden_result(tmp_path, kind, key, value) != golden_base(kind)


# ---------------------------------------------------------------------------
# Every golden config, mutated key by key, still ends cleanly.

_GOLDEN_CASES = sorted(path.stem for path in GOLDEN.glob("*.ini"))
_STATUSES = {0} | {status for _, status, _ in EXIT_TABLE}
_MUTATIONS = (
    "missing", "empty", "non-numeric", "nan", "inf", "negative", "zero", "repeated", "unordered",
    "unknown key", "no value", "unknown section", "duplicated section", "huge", "workers",
)


@st.composite
def _mutated_goldens(draw) -> str:
    """A golden config with one key's line mutated, or a stray line after it;
    or, as the "workers" mutation, run by a pool of two."""
    text = (GOLDEN / f"{draw(st.sampled_from(_GOLDEN_CASES))}.ini").read_text(encoding="utf-8")
    mutation = draw(st.sampled_from(_MUTATIONS))
    if mutation == "workers":  # no golden config sets workers, so only this one starts a pool
        return text.replace("[experiment]\n", "[experiment]\nworkers = 2\n")
    lines = text.splitlines()
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if "=" in line]))
    key, value = (part.strip() for part in lines[at].split("=", 1))
    points = value.split(",")
    header = next(line for line in reversed(lines[:at]) if line.startswith("["))
    mutated = {
        "missing": [],
        "empty": [f"{key} ="],
        "non-numeric": [f"{key} = x"],
        "nan": [f"{key} = nan"],
        "inf": [f"{key} = inf"],
        "negative": [f"{key} = " + ",".join("-" + v for v in points)],
        "zero": [f"{key} = 0"],
        "repeated": [f"{key} = " + ",".join(points + points)],
        "unordered": [f"{key} = " + ",".join(reversed(points))],
        "unknown key": [lines[at], "bogus = 1"],
        "no value": [lines[at], key],
        "unknown section": [lines[at], "[bogus]"],
        "duplicated section": [lines[at], header, lines[at]],
        "huge": [f"{key} = " + ",".join(str(10**30) for _ in points)],
    }[mutation]
    return "\n".join(lines[:at] + mutated + lines[at + 1 :]) + "\n"


def _ends_cleanly(path: str, out: str, dry_run: bool) -> tuple[int, str]:
    """``run``'s status and stderr, once checked: the status is listed, stderr
    holds one line at most and no traceback, no warning is raised, and the
    CSV and its sidecar both exist or neither does."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        status = run(path, dry_run=dry_run, out=out)
    assert status in _STATUSES
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue() and not caught, (err.getvalue(), caught)
    assert os.path.exists(out) == os.path.exists(out + ".meta.json") == (status == 0 and not dry_run)
    assert status == 0 or err.getvalue()
    return status, err.getvalue()


class _CountedPool(concurrent.futures.ProcessPoolExecutor):
    """A process pool that records the size each run asks of it."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


def _mutated_run(text: str) -> list[int]:
    """A config --dry-run accepts is run for real when it is small, and then
    must not end in a config error, nor start more processes than CPUs; the
    sizes of the pools it started."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.ini"), os.path.join(tmp, "r.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if _ends_cleanly(path, out, dry_run=True)[0] != 0:
            return []
        cfg = config_from_text(text)
        if max(cfg.n_grid) > 64 or cfg.trials > 50:
            return []
        _CountedPool.sizes.clear()
        with mock.patch("concurrent.futures.ProcessPoolExecutor", _CountedPool):
            assert not _ends_cleanly(path, out, dry_run=False)[1].startswith("config error:")
        assert all(size <= len(os.sched_getaffinity(0)) for size in _CountedPool.sizes)
        return _CountedPool.sizes


def test_mutated_golden_config_ends_cleanly():
    # Each example runs in a child with a deadline; some must start a pool,
    # or the CPU bound above checks nothing.
    sizes = []

    @settings(max_examples=140)
    @given(_mutated_goldens())
    def example(text):
        sizes.extend(in_child(_mutated_run, text))

    example()
    assert sizes, "no example started a pool"
