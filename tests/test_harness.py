import json
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssrmlab
from ssrmlab.ensemble import EntryDistribution
from ssrmlab.errors import ConfigError, ParameterError
from ssrmlab import harness
from ssrmlab.harness import (
    ARTIFACT_VERSION,
    EXPERIMENT_KINDS,
    SINGLE_CELL_KINDS,
    ExperimentConfig,
    TailEstimate,
    config_from_text,
    config_to_text,
    exponent_fit,
    run,
    scaling_consistency,
    tail_sweep,
)
from ssrmlab.stats import fit_loglog_slope, wilson_interval
from ssrmlab.structure import StructureConstants

RAD = EntryDistribution.rademacher()


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        kind="tail-sweep",
        dist=RAD,
        c_op=3.0,
        constants=StructureConstants(),
        eps_grid=(0.001, 0.01, 0.1),
        n_grid=(24,),
        p_grid=(0.5,),
        trials=16,
        master_seed=7,
        workers=1,
        out="out.csv",
        extras={},
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
c_op = 3.0

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


def test_versions_agree():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert ssrmlab.__version__ == ARTIFACT_VERSION == declared


class TestWilson:
    def test_basic_bounds(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and lo < 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            wilson_interval(5, 3)

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


class TestTailEstimate:
    def test_from_counts(self):
        r = TailEstimate.from_counts(10, 0.5, 0.1, 3, 100)
        assert r.p_hat == 0.03
        assert r.wilson_lo <= r.p_hat <= r.wilson_hi

    def test_invalid_counts(self):
        with pytest.raises(ParameterError):
            TailEstimate(10, 0.5, 0.1, 5, 3, 1.6, 0.0, 1.0)


class TestConfig:
    def test_round_trip_lossless(self):
        cfg = _config(kind="distance-check", extras={"eps": "0.25", "m": "12"})
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_parse_reference_text(self):
        cfg = config_from_text(CONFIG_TEXT)
        assert cfg.kind == "tail-sweep"
        assert cfg.n_grid == (24,)
        assert cfg.eps_grid == (0.001, 0.01, 0.1)
        assert cfg.dist.kind == "rademacher"

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

    def test_structure_section_round_trip(self):
        cfg = _config(constants=StructureConstants(c_s=0.2, c_d=0.15, c_oo=0.2, lam=0.05))
        assert config_from_text(config_to_text(cfg)).constants == cfg.constants


class TestTailSweep:
    def test_infeasible_cell_rejected(self):
        # The config itself rejects the cell, before any sweep can start.
        with pytest.raises(ParameterError, match="infeasible"):
            tail_sweep(_config(n_grid=(10,), p_grid=(0.05,)))

    def test_eps_zero_continuous_never_singular(self):
        cfg = _config(dist=EntryDistribution.standard_gaussian(), eps_grid=(0.0,), trials=20)
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


class TestExponentFit:
    def test_exact_linear_recovery(self):
        rows = [
            TailEstimate.from_counts(10, 0.5, eps, int(1000 * eps), 1000)
            for eps in (0.1, 0.2, 0.4, 0.8)
        ]
        fit = exponent_fit(rows)
        assert fit is not None
        assert fit.slope == pytest.approx(1.0, abs=1e-9)

    def test_ninth_root_recovery(self):
        # p_hat = eps^(1/9) exactly, via explicit field construction.
        rows = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            phat = eps ** (1 / 9)
            trials = 10**6
            rows.append(TailEstimate(10, 0.5, eps, int(round(phat * trials)), trials, phat, phat / 2, min(1.0, phat * 1.5)))
        fit = exponent_fit(rows)
        assert fit is not None
        assert fit.slope == pytest.approx(1 / 9, abs=1e-9)

    def test_too_few_points(self):
        rows = [TailEstimate.from_counts(10, 0.5, 0.1, 5, 100)]
        assert exponent_fit(rows) is None

    def test_zero_rows_excluded(self):
        rows = [TailEstimate.from_counts(10, 0.5, eps, 0, 100) for eps in (0.1, 0.2, 0.4, 0.8)]
        assert exponent_fit(rows) is None

    def test_loglog_needs_positive(self):
        with pytest.raises(ParameterError):
            fit_loglog_slope([1.0, 2.0], [0.0, 1.0])


class TestScaling:
    def test_single_n_no_ratio(self):
        cfg = _config(kind="scaling", n_grid=(16,), trials=8)
        rep = scaling_consistency(cfg)
        assert rep.cells[0].ratio_to_prev is None

    def test_two_point_grid(self):
        cfg = _config(kind="scaling", n_grid=(16, 32), trials=12)
        rep = scaling_consistency(cfg)
        assert len(rep.cells) == 2
        ratio = rep.cells[1].ratio_to_prev
        assert ratio is not None and 0.05 < ratio < 20
        for cell in rep.cells:
            assert cell.median_cond_over_n > 0

    def test_dense_regime_p_one(self):
        # p = 1 runs the same pipeline in the dense-matrix regime.
        cfg = _config(kind="scaling", n_grid=(24, 48), p_grid=(1.0,), trials=20)
        rep = scaling_consistency(cfg)
        ratio = rep.cells[1].ratio_to_prev
        assert ratio is not None and 1 / 3 <= ratio <= 3


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
        assert meta["structure_constants"]["c_s"] == 0.1
        assert meta["artifact"].startswith("ssrmlab-")

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
        assert capsys.readouterr().err == "cannot write output: disk full\n"
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

    @pytest.mark.parametrize("kind", ["norm-check", "distance-check", "smallball", "quadratic"])
    @pytest.mark.parametrize("grid", [("n = 24", "n = 24,32"), ("p = 0.5", "p = 0.5,0.2")])
    def test_single_cell_kind_rejects_grid(self, tmp_path, capsys, kind, grid):
        self._assert_rejected(tmp_path, capsys, _kind_config(kind).replace(*grid), "one (n, p) cell")

    def test_cbar_not_a_number(self, tmp_path, capsys):
        text = _kind_config("norm-check") + "\n[params]\ncbar = two\n"
        self._assert_rejected(tmp_path, capsys, text, "params.cbar")

    def test_m_not_an_integer(self, tmp_path, capsys):
        text = _kind_config("distance-check") + "\n[params]\nm = 1.5\n"
        self._assert_rejected(tmp_path, capsys, text, "params.m")

    def test_param_of_another_kind(self, tmp_path, capsys):
        text = _kind_config("distance-check") + "\n[params]\ncbar = 2.0\n"
        self._assert_rejected(tmp_path, capsys, text, "params.cbar")

    def test_fractional_n(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace("n = 24", "n = 50.9"), "grid.n")

    def test_misspelled_key(self, tmp_path, capsys):
        text = CONFIG_TEXT.replace("trials = 16", "trails = 2000")
        self._assert_rejected(tmp_path, capsys, text, "experiment.trails")

    def test_unknown_section(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace("[grid]", "[gird]"), "[gird]")

    def test_non_finite_value(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, CONFIG_TEXT.replace("c_op = 3.0", "c_op = nan"), "ensemble.c_op")

    @pytest.mark.parametrize("m", ["25", "20", "0"])
    def test_distance_check_m_out_of_range(self, tmp_path, capsys, m):
        text = _kind_config("distance-check").replace("n = 24", "n = 20") + f"\n[params]\nm = {m}\n"
        self._assert_rejected(tmp_path, capsys, text, "1 <= params.m < n")

    @pytest.mark.parametrize("kind", [k for k in EXPERIMENT_KINDS if k != "smallball"])
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

    def test_quadratic_eps_not_ascending(self, tmp_path, capsys):
        text = _kind_config("quadratic").replace("eps = 0.01,0.1,1.0,3.0,10.0", "eps = 1.0,0.1")
        self._assert_rejected(tmp_path, capsys, text, "grid.eps sorted ascending")

    @pytest.mark.parametrize("kind", ["quadratic", "smallball"])
    def test_negative_eps(self, tmp_path, capsys, kind):
        text = _kind_config(kind).replace("eps = 0.001,0.01,0.1", "eps = -0.5,0.1").replace(
            "eps = 0.01,0.1,1.0,3.0,10.0", "eps = -0.5,0.1"
        )
        self._assert_rejected(tmp_path, capsys, text, "grid.eps >= 0")

    @pytest.mark.parametrize("params", ["eps = -1", "rho = 0", "rho = -0.5"])
    def test_distance_check_eps_rho(self, tmp_path, capsys, params):
        text = _kind_config("distance-check") + f"\n[params]\n{params}\n"
        self._assert_rejected(tmp_path, capsys, text, "params.eps >= 0 and params.rho > 0")

    def test_distance_check_default_eps_from_grid(self, tmp_path, capsys):
        text = _kind_config("distance-check").replace("eps = 0.001,0.01,0.1", "eps = -0.1")
        self._assert_rejected(tmp_path, capsys, text, "got eps=-0.1")

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
        path = tmp_path / "cfg.ini"
        path.write_text(_kind_config("norm-check") + "\n[params]\ncbar = 2.0\n")
        assert run(str(path), dry_run=True) == 0
        capsys.readouterr()
        assert run(str(path), dry_run=True, kind="distance-check") == 2
        assert "params.cbar" in capsys.readouterr().err


def _finite_floats(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


def _open_unit():
    return _finite_floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def _configs(draw) -> ExperimentConfig:
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    cells = 1 if kind in SINGLE_CELL_KINDS else 3
    n_grid = tuple(draw(st.lists(st.integers(2, 10**6), min_size=1, max_size=cells)))
    p_grid = tuple(draw(st.lists(_finite_floats(min_value=1.0 / min(n_grid), max_value=1.0), min_size=1, max_size=cells)))
    dist = draw(
        st.one_of(
            st.sampled_from(
                [EntryDistribution.rademacher(), EntryDistribution.standard_gaussian(), EntryDistribution.uniform_symmetric()]
            ),
            _finite_floats(min_value=1e-6, max_value=1.0 - 1e-6).map(EntryDistribution.two_point),
        )
    )
    c_s, c_d = draw(_open_unit()), draw(_open_unit())
    c_oo = draw(_finite_floats(min_value=max(0.25 * c_s * c_d**2, 1e-6), max_value=0.25))
    constants = StructureConstants(
        c_s=c_s,
        c_d=c_d,
        c_oo=c_oo,
        lam=draw(_finite_floats(min_value=0.0, max_value=c_oo, exclude_min=True, exclude_max=True)),
        L=draw(_finite_floats(min_value=1.0, max_value=1e6)),
        delta0=draw(_open_unit()),
        c_p=draw(_open_unit()),
    )
    number = _finite_floats().map(repr)
    eps_grid = tuple(draw(st.lists(_finite_floats(), min_size=1, max_size=4)))
    if kind in ("distance-check", "smallball", "quadratic"):  # these read eps >= 0
        eps_grid = tuple(abs(e) for e in eps_grid)
    if kind == "quadratic":
        eps_grid = tuple(sorted(eps_grid))
    if kind == "norm-check":
        extras = draw(st.dictionaries(st.just("cbar"), number))
        extras.update(draw(st.dictionaries(st.just("bvh_eps"), _finite_floats(min_value=0.0, max_value=0.5, exclude_min=True).map(repr))))
    elif kind == "distance-check":
        extras = draw(st.dictionaries(st.just("eps"), _finite_floats(min_value=0.0).map(repr)))
        extras.update(draw(st.dictionaries(st.just("rho"), _finite_floats(min_value=0.0, exclude_min=True).map(repr))))
        extras.update(draw(st.dictionaries(st.just("m"), st.integers(1, n_grid[0] - 1).map(str))))
    else:
        extras = {}
    return ExperimentConfig(
        kind=kind,
        dist=dist,
        c_op=draw(_finite_floats(min_value=0.0, exclude_min=True)),
        constants=constants,
        eps_grid=eps_grid,
        n_grid=n_grid,
        p_grid=p_grid,
        trials=draw(st.integers(1, 10**9)),
        master_seed=draw(st.integers(-(2**70), 2**70)),
        workers=draw(st.integers(1, 64)),
        out=draw(st.text(string.ascii_letters + string.digits + "._-/%", min_size=1)),
        extras=extras,
    )


# Config text built from the sections and keys a config admits, with
# values that are right for the key, wrong for it, or arbitrary, plus at
# most one stray line, so that the fuzz reaches past the first parse error.
_ADMITTED = {
    "experiment": {"kind": list(EXPERIMENT_KINDS), "trials": ["8"], "seed": ["3"], "workers": ["2"], "out": ["r.csv"]},
    "ensemble": {"dist": ["rademacher", "gaussian", "two-point:0.3"], "c_op": ["3.0"]},
    "grid": {"n": ["24", "24,400"], "p": ["0.5", "0.5,1"], "eps": ["0.01,0.1"]},
    "structure": {k: ["0.02", "0.5", "2"] for k in ("c_s", "c_d", "c_oo", "lambda", "l", "delta0", "c_p")},
    "params": {"cbar": ["2"], "bvh_eps": ["0.5"], "eps": ["0.1"], "m": ["12"], "rho": ["0.1"]},
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


class TestConfigHypothesis:
    @settings(max_examples=200, deadline=None)
    @given(_configs())
    def test_text_round_trip(self, cfg):
        assert config_from_text(config_to_text(cfg)) == cfg

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _config_texts()))
    def test_parses_or_raises_config_error(self, text):
        try:
            cfg = config_from_text(text)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
