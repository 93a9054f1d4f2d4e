"""Experiment orchestration: config files, deterministic Monte Carlo sweeps,
CSV emission with a JSON metadata sidecar.

Determinism contract: every CSV is a pure function of (config, master
seed) at a fixed BLAS thread count, for every experiment kind.  All
trials run through ``ensemble.run_trials``: each draws only from the
``trial_stream`` keyed by its (cell, trial) (see ``ssrmlab.ensemble`` for
the lanes), records are folded in grid order, and float formatting is
fixed, so the CSV is byte-identical at any worker count.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .ensemble import (
    EnsembleParams,
    EntryDistribution,
    parse_distribution,
    run_trials,
    sample_matrix,
    sample_sparse_vector,
    trial_stream,
)
from .errors import ConfigError, NumericalError, ParameterError
from .stats import SlopeFit, fit_loglog_slope, wilson_interval
from .structure import StructureConstants

SCHEMA_VERSION = 1
ARTIFACT_NAME = "ssrmlab"
ARTIFACT_VERSION = "0.4.0"

EXPERIMENT_KINDS = (
    "tail-sweep",
    "scaling",
    "norm-check",
    "distance-check",
    "smallball",
    "quadratic",
)

# Kinds that run the first (n, p) cell only, so their grids hold one point.
SINGLE_CELL_KINDS = ("norm-check", "distance-check", "smallball", "quadratic")

# [structure] keys and the StructureConstants fields they set.
STRUCTURE_KEYS = {
    "c_s": "c_s", "c_d": "c_d", "c_oo": "c_oo", "lambda": "lam", "l": "L", "delta0": "delta0", "c_p": "c_p"
}

# The keys each section admits; [params] keys depend on the kind.
_SECTION_KEYS = {
    "experiment": ("kind", "trials", "seed", "workers", "out"),
    "ensemble": ("dist", "c_op"),
    "grid": ("n", "p", "eps"),
    "structure": tuple(STRUCTURE_KEYS),
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# [params] keys each kind reads, with their parsers; other kinds take none.
_PARAMS = {
    "norm-check": {"cbar": _finite, "bvh_eps": _finite},
    "distance-check": {"eps": _finite, "m": int, "rho": _finite},
}


@dataclass(frozen=True)
class TailEstimate:
    """One (n, p, eps) cell of a tail sweep."""

    n: int
    p: float
    eps: float
    successes: int
    trials: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ParameterError("successes must lie in [0, trials]")
        if not 0.0 <= self.wilson_lo <= self.p_hat + 1e-12 or not self.p_hat <= self.wilson_hi + 1e-12 <= 1.0 + 1e-12:
            raise ParameterError("interval must satisfy 0 <= lo <= p_hat <= hi <= 1")

    @classmethod
    def from_counts(cls, n: int, p: float, eps: float, successes: int, trials: int) -> "TailEstimate":
        lo, hi = wilson_interval(successes, trials)
        return cls(n, p, eps, successes, trials, successes / trials if trials else math.nan, lo, hi)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    dist: EntryDistribution
    c_op: float
    constants: StructureConstants
    eps_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    p_grid: tuple[float, ...]
    trials: int
    master_seed: int
    workers: int
    out: str
    extras: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r} (key experiment.kind)")
        if not self.n_grid or not self.p_grid or not self.eps_grid:
            raise ConfigError("grids must be nonempty (section [grid])")
        if self.trials < 1:
            raise ConfigError("experiment.trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("experiment.workers must be >= 1")
        if self.kind in SINGLE_CELL_KINDS and self.cell_count() > 1:
            raise ConfigError(f"{self.kind} runs one (n, p) cell: grid.n and grid.p must hold one value each")
        for key in self.extras:
            self.param(key)
        if self.kind != "smallball":  # every other kind samples matrices
            for n in self.n_grid:
                for p in self.p_grid:
                    try:
                        self.params_for(n, p)
                    except ParameterError as exc:
                        raise ConfigError(f"bad cell n={n}, p={p:g} (section [grid]): {exc}") from None
                    if p < 1.0 / n:
                        raise ConfigError(f"infeasible cell n={n}, p={p:g}: sparsity below 1/n leaves empty rows")
        if self.kind == "distance-check":
            n, (eps, m, rho) = self.n_grid[0], self.distance_params()
            if not 1 <= m < n:
                raise ConfigError(f"distance-check needs 1 <= params.m < n, got m={m}, n={n}")
            if eps < 0 or rho <= 0:
                raise ConfigError(f"distance-check needs params.eps >= 0 and params.rho > 0, got eps={eps:g}, rho={rho:g}")
        if self.kind == "norm-check" and not 0.0 < self.param("bvh_eps", 0.5) <= 0.5:
            raise ConfigError(f"norm-check needs params.bvh_eps in (0, 1/2], got {self.param('bvh_eps'):g}")
        if self.kind in ("smallball", "quadratic") and min(self.eps_grid) < 0:
            raise ConfigError(f"{self.kind} needs grid.eps >= 0, got {min(self.eps_grid):g}")
        if self.kind == "quadratic" and list(self.eps_grid) != sorted(self.eps_grid):
            raise ConfigError("quadratic needs grid.eps sorted ascending")

    def cell_count(self) -> int:
        return len(self.n_grid) * len(self.p_grid)

    def param(self, key: str, default=None):
        """[params] value ``key`` parsed for this kind, or ``default`` when unset."""
        parse = _PARAMS.get(self.kind, {}).get(key)
        if parse is None:
            raise ConfigError(f"unknown config key params.{key} for kind {self.kind}")
        try:
            return parse(self.extras[key]) if key in self.extras else default
        except ValueError:
            raise ConfigError(f"bad value at params.{key}: {self.extras[key]!r}") from None

    def distance_params(self) -> tuple[float, int, float]:
        """distance-check's (eps, m, rho); unset, they are grid.eps[0], n // 2 and structure.c_d."""
        return self.param("eps", self.eps_grid[0]), self.param("m", self.n_grid[0] // 2), self.param("rho", self.constants.c_d)

    def params_for(self, n: int, p: float) -> EnsembleParams:
        return EnsembleParams(n=n, p=p, dist=self.dist, c_op=self.c_op)


def _dist_to_text(dist: EntryDistribution) -> str:
    if dist.kind == "two-point-general":
        return f"two-point:{dist.prob:.17g}"
    return dist.kind


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a config to the flat key-value format (lossless round-trip)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["experiment"] = {
        "kind": cfg.kind,
        "trials": str(cfg.trials),
        "seed": str(cfg.master_seed),
        "workers": str(cfg.workers),
        "out": cfg.out,
    }
    cp["ensemble"] = {"dist": _dist_to_text(cfg.dist), "c_op": f"{cfg.c_op:.17g}"}
    cp["grid"] = {
        "n": ",".join(str(v) for v in cfg.n_grid),
        "p": ",".join(f"{v:.17g}" for v in cfg.p_grid),
        "eps": ",".join(f"{v:.17g}" for v in cfg.eps_grid),
    }
    cp["structure"] = {key: f"{getattr(cfg.constants, attr):.17g}" for key, attr in STRUCTURE_KEYS.items()}
    if cfg.extras:
        cp["params"] = dict(cfg.extras)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _get(cp: configparser.ConfigParser, section: str, key: str, default: str | None = None) -> str:
    try:
        return cp[section][key]
    except KeyError:
        if default is not None:
            return default
        raise ConfigError(f"missing config key {section}.{key}") from None


def _parse_floats(text: str, where: str) -> tuple[float, ...]:
    try:
        return tuple(_finite(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad numeric list at {where}: {text!r}") from exc


def config_from_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    for section in cp.sections():
        if section == "params":
            continue  # checked against the kind by ExperimentConfig
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    kind = _get(cp, "experiment", "kind")

    def _int(section: str, key: str, default: str) -> int:
        raw = _get(cp, section, key, default)
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer at {section}.{key}: {raw!r}") from exc

    trials = _int("experiment", "trials", "1")
    seed = _int("experiment", "seed", "0")
    workers = _int("experiment", "workers", "1")
    out = _get(cp, "experiment", "out", "out.csv")
    try:
        dist = parse_distribution(_get(cp, "ensemble", "dist", "rademacher"))
    except ParameterError as exc:
        raise ConfigError(f"bad value at ensemble.dist: {exc}") from exc
    try:
        c_op = _finite(_get(cp, "ensemble", "c_op", "3.0"))
    except ValueError as exc:
        raise ConfigError("bad float at ensemble.c_op") from exc
    n_grid_f = _parse_floats(_get(cp, "grid", "n", ""), "grid.n")
    if not all(v.is_integer() for v in n_grid_f):
        raise ConfigError(f"grid.n must hold integers: {cp['grid']['n']!r}")
    n_grid = tuple(int(v) for v in n_grid_f)
    p_grid = _parse_floats(_get(cp, "grid", "p", ""), "grid.p")
    eps_grid = _parse_floats(_get(cp, "grid", "eps", "0.001"), "grid.eps")
    kwargs = {}
    if cp.has_section("structure"):
        for key, attr in STRUCTURE_KEYS.items():
            if cp.has_option("structure", key):
                try:
                    kwargs[attr] = _finite(cp["structure"][key])
                except ValueError as exc:
                    raise ConfigError(f"bad float at structure.{key}") from exc
    try:
        constants = StructureConstants(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"invalid [structure] section: {exc}") from exc
    extras = dict(cp["params"]) if cp.has_section("params") else {}
    return ExperimentConfig(
        kind=kind,
        dist=dist,
        c_op=c_op,
        constants=constants,
        eps_grid=eps_grid,
        n_grid=n_grid,
        p_grid=p_grid,
        trials=trials,
        master_seed=seed,
        workers=workers,
        out=out,
        extras=extras,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return config_from_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Trial kernels for ensemble.run_trials (module level so they pickle).

def _extreme_values_for_trial(master_seed: int, params: EnsembleParams, c: int, t: int) -> tuple[float, float]:
    """(s_min, s_max) of the realization of trial t in cell c."""
    from .spectra import DENSE_CAP, full_symmetric_spectrum, is_singular, smallest_singular_value, spectral_norm

    dense = sample_matrix(params, trial_stream(master_seed, c, t)).to_dense()
    if params.n <= DENSE_CAP:
        evals = np.abs(full_symmetric_spectrum(dense))
        smin, smax = float(evals.min()), float(evals.max())
        return (0.0 if is_singular(smin, smax) else smin), smax
    return smallest_singular_value(dense), spectral_norm(dense)


def _extreme_values(cfg: ExperimentConfig, cells: list[tuple[int, float]]) -> list[list[tuple[float, float]]]:
    # Imported before run_trials forks its pool, so the workers inherit
    # spectra and scipy instead of each importing them again.
    from . import spectra  # noqa: F401

    params = [cfg.params_for(n, p) for n, p in cells]
    return run_trials(partial(_extreme_values_for_trial, cfg.master_seed), params, cfg.trials, cfg.workers)


def _smallball_sum(master_seed: int, p: float, dist: EntryDistribution, x: np.ndarray, c: int, t: int) -> float:
    return float(x @ sample_sparse_vector(x.size, p, dist, trial_stream(master_seed, c, t)))


def tail_sweep(cfg: ExperimentConfig) -> list[TailEstimate]:
    """Joint tail frequencies of {s_min <= eps sqrt(p/n)} and the norm event.

    One realization per (cell, trial) serves the whole eps grid, so
    success counts are exactly nondecreasing in eps within a cell.
    ``ExperimentConfig`` has already rejected cells with p < 1/n.
    """
    cells = [(n, p) for n in cfg.n_grid for p in cfg.p_grid]
    rows: list[TailEstimate] = []
    for (n, p), vals in zip(cells, _extreme_values(cfg, cells)):
        op_thr = cfg.c_op * math.sqrt(p * n)
        for eps in cfg.eps_grid:
            thr = eps * math.sqrt(p / n)
            successes = sum(1 for smin, smax in vals if smin <= thr and smax <= op_thr)
            rows.append(TailEstimate.from_counts(n, p, eps, successes, cfg.trials))
    return rows


@dataclass(frozen=True)
class ScalingCell:
    n: int
    p: float
    trials: int
    median_smin_scaled: float
    median_cond_over_n: float
    singular_count: int
    ratio_to_prev: float | None


@dataclass(frozen=True)
class ScalingReport:
    cells: tuple[ScalingCell, ...]


def scaling_consistency(cfg: ExperimentConfig) -> ScalingReport:
    """Medians of s_min sqrt(n/p) and of the condition number over n.

    Exactly singular realizations are counted separately, never folded
    into medians.  The ratio column compares consecutive n at fixed p.
    """
    cells = [(n, p) for p in cfg.p_grid for n in cfg.n_grid]
    out = []
    prev_by_p: dict[float, float] = {}
    for (n, p), vals in zip(cells, _extreme_values(cfg, cells)):
        smins = np.array([v[0] for v in vals])
        smaxs = np.array([v[1] for v in vals])
        nonsing = smins > 0
        singular_count = int((~nonsing).sum())
        med_smin = float(np.median(smins[nonsing]) * math.sqrt(n / p)) if nonsing.any() else math.nan
        conds = smaxs[nonsing] / smins[nonsing]
        med_cond = float(np.median(conds) / n) if nonsing.any() else math.nan
        ratio = None
        if p in prev_by_p and prev_by_p[p] > 0 and not math.isnan(med_smin):
            ratio = med_smin / prev_by_p[p]
        prev_by_p[p] = med_smin
        out.append(ScalingCell(n, p, cfg.trials, med_smin, med_cond, singular_count, ratio))
    return ScalingReport(tuple(out))


def exponent_fit(rows: list[TailEstimate]) -> SlopeFit | None:
    """Log-log slope of p_hat against eps over CI-solid cells.

    Returns None (the caller prints a diagnostic) when fewer than four
    eps points have p_hat > 0 with a Wilson interval excluding zero.
    """
    usable = [(r.eps, r.p_hat) for r in rows if r.p_hat > 0 and r.wilson_lo > 0 and r.eps > 0]
    return fit_loglog_slope(*zip(*usable)) if len(usable) >= 4 else None


# ---------------------------------------------------------------------------
# CSV + sidecar emission.

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".12g")
    return str(value)


def write_csv(path: str, schema: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {ARTIFACT_NAME} {schema} v{SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def artifact_version_string(cfg: ExperimentConfig) -> str:
    """Name, version and a hash of the config.  The output path and the
    worker count are left out of the hash: neither changes the CSV."""
    digest = hashlib.sha1(config_to_text(replace(cfg, out="", workers=1)).encode()).hexdigest()[:12]
    return f"{ARTIFACT_NAME}-{ARTIFACT_VERSION}+cfg.{digest}"


def write_sidecar(csv_path: str, cfg: ExperimentConfig, extra: dict | None = None) -> None:
    meta = {
        "artifact": artifact_version_string(cfg),
        "schema_version": SCHEMA_VERSION,
        "config": {
            "kind": cfg.kind,
            "dist": _dist_to_text(cfg.dist),
            "c_op": cfg.c_op,
            "n_grid": list(cfg.n_grid),
            "p_grid": list(cfg.p_grid),
            "eps_grid": list(cfg.eps_grid),
            "trials": cfg.trials,
            "seed": cfg.master_seed,
            "workers": cfg.workers,
            "extras": dict(cfg.extras),
        },
        "structure_constants": asdict(cfg.constants),
    }
    if extra:
        meta["results"] = extra
    with open(csv_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run(): dispatch a named experiment from a config file.  Each runner
# returns the CSV header, the CSV rows and the sidecar's results block.

_Table = tuple[list[str], list[list], dict]


def _run_tail_sweep(cfg: ExperimentConfig) -> _Table:
    rows = tail_sweep(cfg)
    fit = exponent_fit(rows)
    return (
        ["n", "p", "eps", "successes", "trials", "p_hat", "wilson_lo", "wilson_hi"],
        [[r.n, r.p, r.eps, r.successes, r.trials, r.p_hat, r.wilson_lo, r.wilson_hi] for r in rows],
        {"exponent_fit": None if fit is None else asdict(fit)},
    )


def _run_scaling(cfg: ExperimentConfig) -> _Table:
    report = scaling_consistency(cfg)
    return (
        ["n", "p", "trials", "median_smin_scaled", "median_cond_over_n", "singular_count", "ratio_to_prev"],
        [
            [c.n, c.p, c.trials, c.median_smin_scaled, c.median_cond_over_n, c.singular_count,
             "" if c.ratio_to_prev is None else _fmt(c.ratio_to_prev)]
            for c in report.cells
        ],
        {},
    )


def _run_norm_check(cfg: ExperimentConfig) -> _Table:
    from .spectra import norm_bound_experiment

    n, p = cfg.n_grid[0], cfg.p_grid[0]
    cbar, eps = cfg.param("cbar", 2.0), cfg.param("bvh_eps", 0.5)
    rep = norm_bound_experiment(cfg.params_for(n, p), cfg.trials, cfg.master_seed, cbar, eps, workers=cfg.workers)
    return (
        ["trial", "norm", "norm_over_sqrt_pn", "omega_event", "bvh_bound", "bvh_satisfied"],
        [[r.trial, r.norm, r.norm_over_sqrt_pn, r.omega_event, r.bvh_bound, r.bvh_satisfied] for r in rep.rows],
        {
            "n": n,
            "p": p,
            "mean_ratio": rep.mean_ratio,
            "violation_fraction": rep.violation_fraction,
            "omega_fraction": rep.omega_fraction,
            "bvh_fraction": rep.bvh_fraction,
        },
    )


def _run_distance_check(cfg: ExperimentConfig) -> _Table:
    from .inverse_geometry import invertibility_via_distance_experiment

    n, p = cfg.n_grid[0], cfg.p_grid[0]
    eps, M, rho = cfg.distance_params()
    rep = invertibility_via_distance_experiment(
        cfg.params_for(n, p), eps, M, rho, cfg.trials, cfg.master_seed, workers=cfg.workers
    )
    return (
        ["trial", "s_min", "minimizer_incompressible", "lhs_event", "rhs_value"],
        [[r.trial, r.s_min, r.minimizer_incompressible, r.lhs_event, r.rhs_value] for r in rep.rows],
        {
            "lhs_hat": rep.lhs_hat,
            "lhs_ci": list(rep.lhs_ci),
            "rhs_hat": rep.rhs_hat,
            "rhs_halfwidth": rep.rhs_halfwidth,
            "holds_within_slack": rep.holds_within_slack,
        },
    )


def _run_smallball(cfg: ExperimentConfig) -> _Table:
    from .smallball import lcd_smallball_bound, levy_concentration_scalar
    from .structure import lcd

    n, p = cfg.n_grid[0], cfg.p_grid[0]
    x = np.full(n, 1.0 / math.sqrt(n))
    d = lcd(x, cfg.constants.L)
    # One sample set serves the whole eps grid (monotone estimates).
    kernel = partial(_smallball_sum, cfg.master_seed, p, cfg.dist)
    sums = np.array(run_trials(kernel, [x], cfg.trials, cfg.workers)[0])
    rows, ratios = [], []
    for eps in cfg.eps_grid:
        est = levy_concentration_scalar(sums, eps * math.sqrt(p))
        bracket = lcd_smallball_bound(x, cfg.constants.L, p, eps, d.value)
        rows.append([eps, est.value, est.ci_halfwidth, bracket])
        if bracket > 0:
            ratios.append(est.value / bracket)
    c_hat = max(ratios) if ratios else math.nan
    rows = [row + [row[1] <= c_hat * row[3] + 1e-12] for row in rows]
    return (
        ["eps", "estimate", "ci", "bound_bracket", "pass"],
        rows,
        {"fitted_constant": c_hat, "lcd_value": d.value, "lcd_capped": d.capped},
    )


def _run_quadratic(cfg: ExperimentConfig) -> _Table:
    from .inverse_geometry import quadratic_smallball_experiment

    n, p = cfg.n_grid[0], cfg.p_grid[0]
    rep = quadratic_smallball_experiment(cfg.params_for(n, p), cfg.eps_grid, cfg.trials, cfg.master_seed, cfg.workers)
    return (
        ["eps", "p_hat_zero", "p_hat_median"],
        [list(row) for row in zip(rep.eps_grid, rep.p_hat_zero, rep.p_hat_median)],
        {
            "excluded_singular": rep.excluded_singular,
            "slope_zero": None if rep.slope_zero is None else asdict(rep.slope_zero),
            "slope_median": None if rep.slope_median is None else asdict(rep.slope_median),
        },
    )


_RUNNERS = {
    "tail-sweep": _run_tail_sweep,
    "scaling": _run_scaling,
    "norm-check": _run_norm_check,
    "distance-check": _run_distance_check,
    "smallball": _run_smallball,
    "quadratic": _run_quadratic,
}


def _write_outputs(cfg: ExperimentConfig, header: list[str], rows: list[list], extra: dict) -> None:
    """Write the CSV and its sidecar under temporary names beside
    ``cfg.out`` and rename both only once both are complete, so a failed
    write leaves neither file."""
    stage = f"{cfg.out}.{os.getpid()}.tmp"
    try:
        write_csv(stage, cfg.kind, header, rows)
        write_sidecar(stage, cfg, extra)
        os.replace(stage + ".meta.json", cfg.out + ".meta.json")
        os.replace(stage, cfg.out)
    finally:
        for path in (stage, stage + ".meta.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def run(
    config_path: str,
    dry_run: bool = False,
    seed: int | None = None,
    workers: int | None = None,
    out: str | None = None,
    kind: str | None = None,
) -> int:
    """Dispatch the experiment named in the config; returns an exit status.

    Writes the CSV and a JSON sidecar next to it, both or neither.  On any
    failed precondition the diagnostic goes to stderr and the status is
    nonzero.
    """
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg = replace(cfg, master_seed=seed)
        if workers is not None:
            cfg = replace(cfg, workers=workers)
        if out is not None:
            cfg = replace(cfg, out=out)
        if kind is not None and kind != cfg.kind:
            cfg = replace(cfg, kind=kind)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if dry_run:
        print(
            f"dry-run: kind={cfg.kind} cells={cfg.cell_count()} "
            f"trials/cell={cfg.trials} eps points={len(cfg.eps_grid)} -> {cfg.out}"
        )
        return 0
    try:
        _write_outputs(cfg, *_RUNNERS[cfg.kind](cfg))
    except ParameterError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0
