"""Experiment orchestration: config files, deterministic Monte Carlo sweeps,
CSV emission with a JSON metadata sidecar.

Determinism contract: every CSV is a pure function of (config, master
seed), for every experiment kind, as long as BLAS runs at one thread,
which every CLI process ensures (see ``ssrmlab.cli``).  A library caller
that loaded numpy first keeps its own thread count, and ``scaling`` and
``distance-check`` may then round differently in a last digit.  All
trials run through ``ensemble.run_trials`` and draw from
``ensemble.trial_stream``, so a cell's rows depend only on seed, law, n,
p and trials: extending a grid leaves its rows unchanged, and
``tail-sweep`` and ``scaling`` fold the same realizations.  Records are
folded in grid order and float formatting is fixed, so the CSV is
byte-identical at any worker count.  Tail-sweep and scaling trials read
(s_min, s_max) from the certified spectrum
(``spectra.full_symmetric_spectrum``), one reduction per trial at any n.
Each such trial holds one n x n array (8 n^2 bytes): it hands spectra
its sparse realization, which spectra densifies into a buffer of its own
and reduces in place.

Configs are parsed and checked without numpy: each kernel and runner
imports numpy, ``ensemble`` and the modules it runs where it runs.

Config schema: the [experiment], [ensemble] and [grid] keys of ``_KEYS``,
which also holds each key's field, parser and default, plus [params] with
the keys of the kind's record in ``_KINDS``.  Any other section or key is
a ConfigError.  ``ExperimentConfig`` holds parsed values only, with every
[params] key of the kind (an unset one at its default); the sidecar's
``config`` block (``_config_block``) is that record written whole, and
the artifact id hashes it, so configs that parse equal share one id.  C_op
of the event |A| <= C_op sqrt(pn) is the constant ``spectra.C_OP``, not a
key.  ``ExperimentConfig`` checks every rule of the record, so a runner
may assume: grid points distinct; one (n, p) cell unless the kind sweeps
the grid; every matrix cell in the ensemble, with p >= 1/n; a vector
kind's n in [1, MAX_N] and p in (0, 1]; one eps point or more, each >= 0,
if the kind reads eps; and every [params] value within its rule.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from . import __version__ as ARTIFACT_VERSION
from .errors import REPORTED, ConfigError, ParameterError, report
from .model import MAX_N, EnsembleParams, EntryDistribution, parse_distribution

if TYPE_CHECKING:  # for annotations; the code imports each where it runs, so lcd and structure skip them
    from collections.abc import Callable, Mapping

    from .stats import SlopeFit

SCHEMA_VERSION = 1
ARTIFACT_NAME = "ssrmlab"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _integer(text: str) -> int:
    """An exact decimal integer literal, for every integer key: a float would round seeds above 2^53."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"{text.strip()!r} is not a decimal integer")
    return int(text)


def _points(parse: Callable[[str], float]) -> Callable[[str], tuple]:
    """The parser of a comma-separated grid of ``parse``'s values."""
    return lambda text: tuple(parse(v) for v in text.split(",") if v.strip())


# Every key of [experiment], [ensemble] and [grid]: (section, key) ->
# (ExperimentConfig field, parser, default text, or None when required).
# [params] keys depend on the kind (``_KINDS``).
_KEYS = {
    ("experiment", "kind"): ("kind", str, None),
    ("experiment", "trials"): ("trials", _integer, "1"),
    ("experiment", "seed"): ("seed", _integer, "0"),
    ("experiment", "workers"): ("workers", _integer, "1"),
    ("experiment", "out"): ("out", str, "out.csv"),
    ("ensemble", "dist"): ("dist", parse_distribution, "rademacher"),
    ("grid", "n"): ("n_grid", _points(_integer), ""),
    ("grid", "p"): ("p_grid", _points(_finite), ""),
    ("grid", "eps"): ("eps_grid", _points(_finite), ""),
}


class _Param(NamedTuple):
    """A [params] key's parser, default and rule; n is the first grid.n point."""

    parse: Callable[[str], float]
    default: Callable[[int], float]
    holds: Callable[[float, int], bool]
    rule: str  # ``holds`` as the config error states it; ``{n}`` is n


class _Kind(NamedTuple):
    """An experiment kind; ``ExperimentConfig`` checks every rule here before its runner runs."""

    runner: Callable[[ExperimentConfig], _Table]
    sweeps: bool = False  # every (n, p) cell of the grid, else one
    vectors: bool = False  # samples vectors, not matrices
    reads_eps: bool = False  # grid.eps: one point or more, each >= 0, any order
    params: Mapping[str, _Param] = MappingProxyType({})


class _ExperimentConfigFields(NamedTuple):
    kind: str
    dist: EntryDistribution
    eps_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    p_grid: tuple[float, ...]
    trials: int
    seed: int
    workers: int
    out: str
    params: Mapping[str, float] = MappingProxyType({})  # the keys set; once checked, a new dict of every key of the kind


class ExperimentConfig(_ExperimentConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ConfigError(f"unknown experiment kind {self.kind!r} (key experiment.kind)")
        if not self.n_grid or not self.p_grid:
            raise ConfigError("grids must be nonempty (section [grid])")
        for key, grid in (("n", self.n_grid), ("p", self.p_grid), ("eps", self.eps_grid)):
            for k, point in enumerate(grid):
                if point in grid[:k]:  # it would write its cells twice, and a fit would count them twice
                    raise ConfigError(f"grid.{key} repeats the point {point}")
        if not 1 <= self.trials < 2**32:  # run_trials lists every (cell, trial) task first
            raise ConfigError(f"experiment.trials must lie in [1, 2^32), got {self.trials}")
        if self.workers < 1:
            raise ConfigError("experiment.workers must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"experiment.seed must lie in [0, 2^64), got {self.seed}")
        if not kind.sweeps and self.cell_count() > 1:
            raise ConfigError(f"{self.kind} runs one (n, p) cell: grid.n and grid.p must hold one value each")
        if kind.vectors:
            if not 1 <= self.n_grid[0] <= MAX_N:
                raise ConfigError(f"{self.kind} needs grid.n >= 1 and <= {MAX_N}, got {self.n_grid[0]}")
            if not 0.0 < self.p_grid[0] <= 1.0:
                raise ConfigError(f"{self.kind} needs grid.p in (0, 1], got {self.p_grid[0]:g}")
        else:
            for n in self.n_grid:
                for p in self.p_grid:
                    try:
                        EnsembleParams(n, p, self.dist)
                    except ParameterError as exc:
                        raise ConfigError(f"bad cell n={n}, p={p:g} (section [grid]): {exc}") from None
                    if p < 1.0 / n:
                        raise ConfigError(f"infeasible cell n={n}, p={p:g}: sparsity below 1/n leaves empty rows")
        for key in self.params:
            _param(self.kind, key)
        n = self.n_grid[0]
        params = {key: self.params.get(key, param.default(n)) for key, param in kind.params.items()}
        for key, param in kind.params.items():
            if not param.holds(params[key], n):
                raise ConfigError(f"{self.kind} needs {param.rule.format(n=n)}, got params.{key} = {params[key]:g}")
        if kind.reads_eps and not (self.eps_grid and min(self.eps_grid) >= 0):
            points = ",".join(f"{e:g}" for e in self.eps_grid) or "none"
            raise ConfigError(f"{self.kind} needs grid.eps of one point or more, each >= 0, got eps={points}")
        return self._replace(params=params)  # _replace builds the tuple without calling __new__ again

    def cell_count(self) -> int:
        return len(self.n_grid) * len(self.p_grid)


def _param(kind: str, key: str) -> _Param:
    params = _KINDS[kind].params
    if key not in params:
        raise ConfigError(f"unknown config key params.{key} for kind {kind}")
    return params[key]


def _parsed(section: str, key: str, parse: Callable[[str], object], raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value at {section}.{key}: {raw!r} ({exc})") from None


def config_from_text(text: str) -> ExperimentConfig:
    import configparser

    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:  # its message may span lines; the report is one
        raise ConfigError("unparseable config: " + " ".join(str(exc).split())) from exc
    for section in cp.sections():
        if section == "params":
            continue  # parsed below, by the kind's own keys
        if not any(section == known for known, _ in _KEYS):
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown config key {section}.{key}")
    values = {}
    for (section, key), (name, parse, default) in _KEYS.items():
        raw = cp.get(section, key, fallback=default)
        if raw is None:
            raise ConfigError(f"missing config key {section}.{key}")
        values[name] = _parsed(section, key, parse, raw)
    cfg = ExperimentConfig(**values)  # checked with each [params] key at its default, then with the set ones
    raws = cp["params"] if cp.has_section("params") else {}
    params = {key: _parsed("params", key, _param(cfg.kind, key).parse, raw) for key, raw in raws.items()}
    return ExperimentConfig(**values, params=params)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return config_from_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Trial kernels for ensemble.run_trials; their records must pickle, to come back from a forked worker.

def _extreme_values_for_trial(master_seed: int, params: EnsembleParams, t: int) -> tuple[float, float]:
    """(s_min, s_max) of trial t's realization in cell ``params``, from its certified spectrum."""
    from .ensemble import Purpose, sample_matrix, trial_stream
    from .spectra import full_symmetric_spectrum, singular_extremes

    # The sparse realization goes in whole: spectra densifies it into the one
    # n x n buffer the trial holds and reduces that buffer in place.
    A = sample_matrix(params, trial_stream(master_seed, Purpose.MATRIX, params.n, params.p, t))
    return singular_extremes(full_symmetric_spectrum(A))


def _extreme_values(cfg: ExperimentConfig, cells: list[tuple[int, float]]) -> list[list[tuple[float, float]]]:
    # Imported before run_trials forks its workers, so they inherit
    # spectra, scipy and numpy.random (whose first draw loads 16 modules)
    # instead of each importing them again.  The other pooled kinds leave
    # numpy.random to their workers: at n = 500 their parent is the
    # largest process, and it would grow by about 1.7 MB.
    import numpy.random  # noqa: F401

    from . import spectra  # noqa: F401
    from .ensemble import run_trials

    params = [EnsembleParams(n, p, cfg.dist) for n, p in cells]
    return run_trials(partial(_extreme_values_for_trial, cfg.seed), params, cfg.trials, cfg.workers)


class TailRow(NamedTuple):
    """One (n, p, eps) cell of a tail sweep; the fields, in order, are the CSV columns."""

    n: int
    p: float
    eps: float
    successes: int
    trials: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float


def tail_sweep(cfg: ExperimentConfig) -> list[TailRow]:
    """Joint tail frequencies of {s_min <= eps sqrt(p/n)} and the norm event.

    One realization per (cell, trial) serves the whole eps grid, so
    success counts are exactly nondecreasing in eps within a cell.
    """
    from .spectra import C_OP
    from .stats import wilson_interval

    cells = [(n, p) for n in cfg.n_grid for p in cfg.p_grid]
    rows = []
    for (n, p), vals in zip(cells, _extreme_values(cfg, cells)):
        op_thr = C_OP * math.sqrt(p * n)
        for eps in cfg.eps_grid:
            thr = eps * math.sqrt(p / n)
            hits = sum(1 for smin, smax in vals if smin <= thr and smax <= op_thr)
            rows.append(TailRow(n, p, eps, hits, cfg.trials, hits / cfg.trials, *wilson_interval(hits, cfg.trials)))
    return rows


class ScalingCell(NamedTuple):
    """One (n, p) cell of the scaling experiment; the fields, in order, are the CSV columns."""

    n: int
    p: float
    trials: int
    median_smin_scaled: float
    median_cond_over_n: float
    singular_count: int
    ratio_to_prev: float | None


def scaling_consistency(cfg: ExperimentConfig) -> list[ScalingCell]:
    """Medians of s_min sqrt(n/p) and of the condition number over n.

    Exactly singular realizations are counted separately, never folded
    into medians.  The ratio column compares consecutive n at fixed p.
    """
    import numpy as np

    from .stats import median

    cells = [(n, p) for p in cfg.p_grid for n in cfg.n_grid]
    out = []
    prev_by_p: dict[float, float] = {}
    for (n, p), vals in zip(cells, _extreme_values(cfg, cells)):
        smins = np.array([v[0] for v in vals])
        smaxs = np.array([v[1] for v in vals])
        nonsing = smins > 0
        singular_count = int((~nonsing).sum())
        med_smin = median(smins[nonsing]) * math.sqrt(n / p) if nonsing.any() else math.nan
        conds = smaxs[nonsing] / smins[nonsing]
        med_cond = median(conds) / n if nonsing.any() else math.nan
        ratio = None
        if p in prev_by_p and prev_by_p[p] > 0 and not math.isnan(med_smin):
            ratio = med_smin / prev_by_p[p]
        prev_by_p[p] = med_smin
        out.append(ScalingCell(n, p, cfg.trials, med_smin, med_cond, singular_count, ratio))
    return out


def exponent_fit(rows: list[TailRow]) -> SlopeFit | None:
    """Log-log slope of p_hat against eps over CI-solid cells.

    The points are the (cell, eps) pairs with eps > 0 and p_hat > 0 whose
    Wilson interval excludes zero; ``stats.determined_slope`` decides
    whether they fix a slope.
    """
    from .stats import determined_slope

    return determined_slope([(r.eps, r.p_hat) for r in rows if r.p_hat > 0 and r.wilson_lo > 0 and r.eps > 0])


# ---------------------------------------------------------------------------
# CSV + sidecar emission.

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(path: str, schema: str, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {ARTIFACT_NAME} {schema} v{SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _config_block(cfg: ExperimentConfig) -> dict:
    """The config as the sidecar writes it: every field but the output path, ``dist`` as an object."""
    return {key: value for key, value in {**cfg._asdict(), "dist": cfg.dist._asdict()}.items() if key != "out"}


def artifact_version_string(cfg: ExperimentConfig) -> str:
    """Name, version and a hash of the sidecar's config block without
    ``workers``, which never changes the CSV (nor does the output path,
    which the block leaves out)."""
    import hashlib

    block = {key: value for key, value in _config_block(cfg).items() if key != "workers"}
    digest = hashlib.sha1(json_text(block).encode()).hexdigest()[:12]
    return f"{ARTIFACT_NAME}-{ARTIFACT_VERSION}+cfg.{digest}"


def _json_safe(value):
    """``value`` with each named tuple as a dict of its fields, each NaN as
    None and each infinity as "inf" or "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else "inf" if value > 0 else "-inf"
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def json_text(value, indent: int | None = None) -> str:
    """The package's one JSON writer, for sidecars, the artifact id and the
    CLI's records: strict JSON (RFC 8259 has no NaN or Infinity), keys sorted.
    ``json`` is imported here, so that a dry run loads none."""
    import json

    return json.dumps(_json_safe(value), sort_keys=True, allow_nan=False, indent=indent)


def write_sidecar(path: str, cfg: ExperimentConfig, extra: dict | None = None) -> None:
    meta = {"artifact": artifact_version_string(cfg), "schema_version": SCHEMA_VERSION, "config": _config_block(cfg)}
    if extra:
        meta["results"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(meta, indent=2) + "\n")


@contextlib.contextmanager
def staged(*paths: str):
    """Yield a temporary name beside each of ``paths`` (``<path>.<pid>.tmp``);
    once the block ends, rename each over its path, in the order given.  A
    failed write leaves every path as it was, a failed rename removes the
    paths renamed before it, and no temporary outlives the block."""
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temps
        for k, (temp, path) in enumerate(zip(temps, paths)):
            try:
                os.replace(temp, path)
            except OSError:  # path names a directory, or nothing: take the earlier renames back
                for done in paths[:k]:
                    os.remove(done)
                raise
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


# ---------------------------------------------------------------------------
# run(): dispatch a named experiment from a config file.  Each runner
# returns the CSV header, the CSV rows and the sidecar's results block;
# a header is its row type's fields.

_Table = tuple[list[str], list, dict]


def _run_tail_sweep(cfg: ExperimentConfig) -> _Table:
    rows = tail_sweep(cfg)
    fit = exponent_fit(rows)
    return list(TailRow._fields), rows, {"exponent_fit": fit}


def _run_scaling(cfg: ExperimentConfig) -> _Table:
    return list(ScalingCell._fields), scaling_consistency(cfg), {}


def _run_norm_check(cfg: ExperimentConfig) -> _Table:
    from .spectra import NormBoundRow, norm_bound_experiment

    params = EnsembleParams(cfg.n_grid[0], cfg.p_grid[0], cfg.dist)
    return list(NormBoundRow._fields), *norm_bound_experiment(
        params, cfg.trials, cfg.seed, cfg.params["cbar"], cfg.params["bvh_eps"], cfg.workers
    )


def _run_distance_check(cfg: ExperimentConfig) -> _Table:
    from .inverse_geometry import DistanceExperimentRow, invertibility_via_distance_experiment

    params = EnsembleParams(cfg.n_grid[0], cfg.p_grid[0], cfg.dist)
    return list(DistanceExperimentRow._fields), *invertibility_via_distance_experiment(
        params, cfg.eps_grid[0], cfg.params["m"], cfg.params["rho"], cfg.trials, cfg.seed, cfg.workers
    )


def _run_smallball(cfg: ExperimentConfig) -> _Table:
    from .smallball import smallball_experiment

    return ["eps", "estimate", "ci", "bound_bracket", "pass"], *smallball_experiment(
        cfg.n_grid[0], cfg.p_grid[0], cfg.dist, cfg.eps_grid, cfg.trials, cfg.seed, cfg.workers
    )


def _run_quadratic(cfg: ExperimentConfig) -> _Table:
    from .inverse_geometry import QuadraticRow, quadratic_smallball_experiment

    params = EnsembleParams(cfg.n_grid[0], cfg.p_grid[0], cfg.dist)
    return list(QuadraticRow._fields), *quadratic_smallball_experiment(
        params, cfg.eps_grid, cfg.trials, cfg.seed, cfg.workers
    )


# One record per experiment kind, in the order ``--help`` lists their subcommands.
_KINDS = {
    "tail-sweep": _Kind(_run_tail_sweep, sweeps=True, reads_eps=True),
    "scaling": _Kind(_run_scaling, sweeps=True),
    "norm-check": _Kind(_run_norm_check, params={
        "cbar": _Param(_finite, lambda n: 2.0, lambda v, n: v > 0, "params.cbar > 0"),
        "bvh_eps": _Param(_finite, lambda n: 0.5, lambda v, n: 0 < v <= 0.5, "params.bvh_eps in (0, 1/2]"),
    }),
    "distance-check": _Kind(_run_distance_check, reads_eps=True, params={
        "m": _Param(_integer, lambda n: n // 2, lambda v, n: 1 <= v < n, "1 <= params.m < n = {n}"),
        "rho": _Param(_finite, lambda n: 0.1, lambda v, n: v > 0, "params.rho > 0"),
    }),
    "smallball": _Kind(_run_smallball, vectors=True, reads_eps=True),
    "quadratic": _Kind(_run_quadratic, reads_eps=True),
}

EXPERIMENT_KINDS = tuple(_KINDS)


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
    failed precondition one diagnostic line goes to stderr and the status
    is nonzero, as ``errors.EXIT_TABLE`` maps them; every config problem
    is a ConfigError, reported as ``config error: ...``, as is a ``kind``
    (the subcommand's) that differs from the config's ``experiment.kind``.
    """
    try:
        cfg = load_config(config_path)
        overrides = {key: v for key, v in {"seed": seed, "workers": workers, "out": out}.items() if v is not None}
        cfg = ExperimentConfig(**{**cfg._asdict(), **overrides})  # not _replace, which skips the checks
        if kind is not None and kind != cfg.kind:
            raise ConfigError(f"subcommand {kind} does not match experiment.kind = {cfg.kind} in {config_path!r}")
        if dry_run:
            print(
                f"dry-run: kind={cfg.kind} cells={cfg.cell_count()} "
                f"trials/cell={cfg.trials} eps points={len(cfg.eps_grid)} -> {cfg.out}"
            )
            return 0
        header, rows, extra = _KINDS[cfg.kind].runner(cfg)
        with staged(cfg.out + ".meta.json", cfg.out) as (meta, csv):  # the CSV's failed rename takes the sidecar back
            write_csv(csv, cfg.kind, header, rows)
            write_sidecar(meta, cfg, extra)
    except REPORTED as exc:
        return report(exc)
    return 0
