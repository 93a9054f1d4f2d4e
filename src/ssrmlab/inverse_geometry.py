"""Distance-to-subspace identities and the incompressible-vector experiments.

Every eigenvalue here comes from the one kernel in ``spectra``: its
``_extreme_singular_values`` for every singular check and the quadratic
trial's operator norm, its ``_certified_spectrum`` for the distance-check
trial's s_min and certified eigenvector.  Realizations singular to
working precision are excluded and counted, never silently folded into
averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv

from .ensemble import EnsembleParams, run_trials, sample_matrix, sample_sparse_vector, trial_stream
from .errors import NumericalError, ParameterError
from .spectra import _as_dense, _certified_spectrum, _extreme_singular_values
from .stats import SlopeFit, fit_loglog_slope, wilson_interval
from .structure import StructureConstants, regularized_lcd, sparse_tail_distance, spread_set


@dataclass(frozen=True)
class DistanceRecord:
    j: int
    geometric_distance: float
    quadratic_form_distance: float | None
    b_singular: bool


@dataclass(frozen=True)
class InverseImageStats:
    inv_hs_norm: float
    inv_image_norm: float
    ratio: float
    singular: bool = False


def _solve(dense: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs by LU (dgesv) on scipy's OpenBLAS, the one the spectra kernel uses: trials
    that alternated with numpy's OpenBLAS, whose idle threads spin, ran 2-5x slower at two."""
    _, _, x, info = dgesv(dense, rhs)
    if info != 0:
        raise NumericalError(f"dgesv met an exactly singular pivot (info={info})")
    return x


def distance_to_complement_span(A, j: int) -> float:
    """Euclidean distance from column j to the span of the other columns.

    Rank-revealing QR of the n x (n-1) block; the projection uses only
    the numerically independent columns, so rank-deficient spans are
    handled without error.
    """
    dense = _as_dense(A)
    n = dense.shape[0]
    if n < 2:
        raise ParameterError("need n >= 2")
    if not 0 <= j < n:
        raise ParameterError("column index out of range")
    block = np.delete(dense, j, axis=1)
    col = dense[:, j]
    Q, R, _ = scipy.linalg.qr(block, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return float(np.linalg.norm(col))
    rank = int(np.sum(diag > diag[0] * n * np.finfo(np.float64).eps))
    Qr = Q[:, :rank]
    return float(np.linalg.norm(col - Qr @ (Qr.T @ col)))


def quadratic_form_distance(A) -> DistanceRecord:
    """dist(A_1, H_1) through the quadratic-form identity, for column 0.

    With B the trailing minor and X the first column below the diagonal,
    the distance equals |<B^-1 X, X> - a_11| / sqrt(1 + |B^-1 X|^2).
    A singular minor is flagged rather than raised.
    """
    dense = _as_dense(A)
    if dense.shape[0] < 2:
        raise ParameterError("need n >= 2")
    geometric = distance_to_complement_span(dense, 0)
    B = dense[1:, 1:]
    X = dense[1:, 0]
    a11 = float(dense[0, 0])
    if _extreme_singular_values(B)[0] == 0.0:
        return DistanceRecord(0, geometric, None, True)
    y = _solve(B, X)
    value = abs(float(y @ X) - a11) / math.sqrt(1.0 + float(y @ y))
    return DistanceRecord(0, geometric, value, False)


def all_column_distances(A) -> np.ndarray:
    """dist(A_j, H_j) for every j.

    For invertible A the j-th distance is 1 / |(A^-1) e_j| (the inverse's
    rows are orthogonal to the complementary column spans); singular A
    falls back to per-column projections.
    """
    dense = _as_dense(A)
    n = dense.shape[0]
    if _extreme_singular_values(dense)[0] > 0.0:
        return 1.0 / np.linalg.norm(_solve(dense, np.eye(n)), axis=0)
    return np.array([distance_to_complement_span(dense, j) for j in range(n)])


def inverse_image_stats(A, X, p: float = 1.0) -> InverseImageStats:
    """Hilbert-Schmidt norm of the inverse and the size of A^-1 X."""
    dense = _as_dense(A)
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (dense.shape[0],):
        raise ParameterError("X dimension mismatch")
    if not 0.0 < p <= 1.0:
        raise ParameterError("p must lie in (0, 1]")
    if _extreme_singular_values(dense)[0] == 0.0:
        return InverseImageStats(math.nan, math.nan, math.nan, singular=True)
    inv = _solve(dense, np.eye(len(dense)))
    hs = float(np.linalg.norm(inv))
    img = float(np.linalg.norm(_solve(dense, X)))
    ratio = img / (math.sqrt(p) * hs) if hs > 0 else math.nan
    return InverseImageStats(hs, img, ratio)


@dataclass(frozen=True)
class InverseImageReport:
    matrices: int
    x_draws: int
    excluded_singular: int
    identity_mean: float
    freq_lower_abs: float
    freq_markov_upper: float
    freq_hs_lower: float
    eps: float
    c_bound: float


def _inverse_image_trial(master_seed: int, x_draws: int, params: EnsembleParams, c: int, t: int):
    """(|A^-1 X_k| over the draws, |A^-1|_HS), or None for a singular A."""
    dense = sample_matrix(params, trial_stream(master_seed, c, t)).to_dense()
    if _extreme_singular_values(dense)[0] == 0.0:
        return None
    inv = _solve(dense, np.eye(len(dense)))
    streams = [trial_stream(master_seed, 2, t * x_draws + k) for k in range(x_draws)]
    Xs = np.column_stack([sample_sparse_vector(params.n, params.p, params.dist, s) for s in streams])
    return np.linalg.norm(inv @ Xs, axis=0), np.linalg.norm(inv)


def inverse_image_experiment(
    params: EnsembleParams,
    eps: float,
    matrices: int,
    x_draws: int,
    master_seed: int,
    c_bound: float = 10.0,
) -> InverseImageReport:
    """Frequencies of the three inverse-image events plus the first-moment identity.

    identity_mean averages |A^-1 X|^2 / (p |A^-1|_HS^2) over fresh X; its
    population value is exactly 1.  The three frequencies correspond to
    |A^-1 X| >= 1/c_bound, the Markov-style upper bound
    |A^-1 X| <= sqrt(p) eps^{-1/2} |A^-1|_HS, and the lower bound
    |A^-1 X| >= sqrt(p) eps |A^-1|_HS.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    if matrices < 1 or x_draws < 1:
        raise ParameterError("need at least one matrix and one draw")
    records = run_trials(partial(_inverse_image_trial, master_seed, x_draws), [params], matrices)[0]
    kept = [r for r in records if r is not None]
    if not kept:
        raise ParameterError("all sampled matrices were singular")
    imgs = np.concatenate([img for img, _ in kept])
    hs = np.repeat([h for _, h in kept], x_draws)
    p = params.p
    return InverseImageReport(
        matrices=matrices,
        x_draws=x_draws,
        excluded_singular=matrices - len(kept),
        identity_mean=float(np.mean(imgs**2 / (p * hs * hs))),
        freq_lower_abs=float(np.mean(imgs >= 1.0 / c_bound)),
        freq_markov_upper=float(np.mean(imgs <= math.sqrt(p) * eps**-0.5 * hs)),
        freq_hs_lower=float(np.mean(imgs >= math.sqrt(p) * eps * hs)),
        eps=eps,
        c_bound=c_bound,
    )


@dataclass(frozen=True)
class DistanceExperimentRow:
    trial: int
    s_min: float
    minimizer_incompressible: bool
    lhs_event: bool
    rhs_value: float


@dataclass(frozen=True)
class DistanceExperimentReport:
    rows: tuple[DistanceExperimentRow, ...]
    eps: float
    M: int
    rho: float
    lhs_hat: float
    lhs_ci: tuple[float, float]
    rhs_hat: float
    rhs_halfwidth: float
    holds_within_slack: bool


def _distance_trial(
    master_seed: int, eps: float, M: int, rho: float, params: EnsembleParams, c: int, t: int
) -> DistanceExperimentRow:
    n, p = params.n, params.p
    dense = sample_matrix(params, trial_stream(master_seed, c, t)).to_dense()
    evals, _, vectors = _certified_spectrum(dense, cap=n)  # no size cap, unlike the dense oracle
    smin = float(np.abs(evals).min())
    dist, _ = sparse_tail_distance(vectors[:, 0], M)
    incomp = dist > rho
    lhs_event = (smin <= eps * math.sqrt(p / n)) and incomp
    dists = all_column_distances(dense)
    rhs_value = float(np.sum(dists <= math.sqrt(p) * eps)) / M
    return DistanceExperimentRow(t, smin, incomp, lhs_event, rhs_value)


def invertibility_via_distance_experiment(
    params: EnsembleParams,
    eps: float,
    M: int,
    rho: float,
    trials: int,
    master_seed: int = 0,
    workers: int = 1,
) -> DistanceExperimentReport:
    """Monte Carlo check of the invertibility-via-distance inequality.

    Left side: fraction of trials where s_min <= eps sqrt(p/n) AND the
    minimizing eigenvector is (M, rho)-incompressible.  Right side: mean
    over trials of (1/M) #{j : dist(A_j, H_j) <= sqrt(p) eps}.  The
    certified comparison allows one-sided CI slack on both estimates.
    """
    if not 1 <= M < params.n:
        raise ParameterError("need 1 <= M < n")
    if eps < 0 or rho <= 0:
        raise ParameterError("need eps >= 0 and rho > 0")
    if trials < 0:
        raise ParameterError("trials must be nonnegative")
    rows = run_trials(partial(_distance_trial, master_seed, eps, M, rho), [params], trials, workers)[0]
    if trials == 0:
        return DistanceExperimentReport((), eps, M, rho, math.nan, (0.0, 1.0), math.nan, math.nan, True)
    lhs_hits = sum(r.lhs_event for r in rows)
    lhs_hat = lhs_hits / trials
    lhs_ci = wilson_interval(lhs_hits, trials)
    rhs_arr = np.asarray([r.rhs_value for r in rows])
    rhs_hat = float(rhs_arr.mean())
    rhs_halfwidth = 1.96 * float(rhs_arr.std(ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf
    holds = lhs_ci[0] <= rhs_hat + rhs_halfwidth
    return DistanceExperimentReport(tuple(rows), eps, M, rho, lhs_hat, lhs_ci, rhs_hat, rhs_halfwidth, holds)


@dataclass(frozen=True)
class StructureTheoremReport:
    trials: int
    excluded_singular: int
    incompressible_fraction: float
    spread_undefined: int
    thresholds: tuple[float, ...]
    survival_fractions: tuple[float, ...]
    rlcd_values: tuple[float, ...]
    constants: StructureConstants


def _structure_trial(
    master_seed: int, u: np.ndarray, consts: StructureConstants, budget: int, params: EnsembleParams, c: int, t: int
):
    """None for a singular A, else (incompressible, regularized LCD or None)."""
    dense = sample_matrix(params, trial_stream(master_seed, c, t)).to_dense()
    if _extreme_singular_values(dense)[0] == 0.0:
        return None
    x0 = _solve(dense, u)
    x0 = x0 / np.linalg.norm(x0)
    dist, _ = sparse_tail_distance(x0, consts.sparsity_budget(params.n))
    if dist <= consts.c_d:
        return False, None
    if spread_set(x0, consts) is None:
        return True, None
    return True, regularized_lcd(x0, consts, budget, trial_stream(master_seed, 1, t)).lower_bound


def structure_theorem_experiment(
    params: EnsembleParams,
    u: np.ndarray,
    consts: StructureConstants,
    budget: int,
    trials: int,
    master_seed: int = 0,
    thresholds: tuple[float, ...] | None = None,
) -> StructureTheoremReport:
    """Incompressibility and regularized-LCD survival curve of A^-1 u.

    The theoretical threshold scale contains unknown constants, so the
    report sweeps a threshold schedule (default: sqrt(lambda n) times
    powers of two) and emits survival fractions rather than asserting
    any single cutoff.
    """
    u = np.asarray(u, dtype=np.float64)
    n, p = params.n, params.p
    if u.shape != (n,) or not np.any(u):
        raise ParameterError("u must be a nonzero vector of matching dimension")
    if p < n ** (-consts.c_p):
        raise ParameterError(f"need p >= n^(-c_p) = {n ** (-consts.c_p):.4g}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    if thresholds is None:
        base = math.sqrt(consts.lam * n)
        thresholds = tuple(base * 2.0**k for k in range(7))
    records = run_trials(partial(_structure_trial, master_seed, u, consts, budget), [params], trials)[0]
    kept = [r for r in records if r is not None]
    incomp_hits = sum(incomp for incomp, _ in kept)
    spread_undef = sum(incomp and value is None for incomp, value in kept)
    rlcd_values = [value for _, value in kept if value is not None]
    incomp_fraction = incomp_hits / len(kept) if kept else math.nan
    vals = np.asarray(rlcd_values)
    survival = tuple(float(np.mean(vals > thr)) if vals.size else math.nan for thr in thresholds)
    return StructureTheoremReport(
        trials=trials,
        excluded_singular=trials - len(kept),
        incompressible_fraction=incomp_fraction,
        spread_undefined=spread_undef,
        thresholds=tuple(thresholds),
        survival_fractions=survival,
        rlcd_values=tuple(float(v) for v in rlcd_values),
        constants=consts,
    )


@dataclass(frozen=True)
class QuadraticSmallballReport:
    eps_grid: tuple[float, ...]
    p_hat_zero: tuple[float, ...]
    p_hat_median: tuple[float, ...]
    trials: int
    excluded_singular: int
    slope_zero: SlopeFit | None
    slope_median: SlopeFit | None


def _quadratic_trial(master_seed: int, params: EnsembleParams, c: int, t: int):
    """(<A^-1 X, X>, sqrt(1 + |A^-1 X|^2), |A| <= C_op sqrt(pn)), or None for a singular A."""
    dense = sample_matrix(params, trial_stream(master_seed, c, t)).to_dense()
    smin, top = _extreme_singular_values(dense)
    if smin == 0.0:
        return None
    X = sample_sparse_vector(params.n, params.p, params.dist, trial_stream(master_seed, 1, t))
    y = _solve(dense, X)
    return float(y @ X), math.sqrt(1.0 + float(y @ y)), top <= params.c_op * math.sqrt(params.p * params.n)


def quadratic_smallball_experiment(
    params: EnsembleParams,
    eps_grid,
    trials: int,
    master_seed: int = 0,
    workers: int = 1,
) -> QuadraticSmallballReport:
    """Tail curve of the self-normalized quadratic form of the inverse.

    Per trial draws (A, X), computes q = <A^-1 X, X> and the normalizer
    sqrt(1 + |A^-1 X|^2), and counts |q - u| / normalizer <= eps sqrt(p)
    jointly with the operator-norm event, at u = 0 and at the empirical
    median of q.  Realizations are reused across the whole eps grid, so
    the curves are exactly monotone.
    """
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(e < 0 for e in eps_grid) or not eps_grid:
        raise ParameterError("eps grid must be nonempty and nonnegative")
    if sorted(eps_grid) != list(eps_grid):
        raise ParameterError("eps grid must be sorted ascending")
    if trials < 1:
        raise ParameterError("need at least one trial")
    records = run_trials(partial(_quadratic_trial, master_seed), [params], trials, workers)[0]
    kept = [r for r in records if r is not None]
    if not kept:
        raise ParameterError("all sampled matrices were singular")
    qs_arr, dens_arr, eops_arr = (np.asarray(col) for col in zip(*kept))
    sqrt_p = math.sqrt(params.p)

    def curve(center: float) -> tuple[float, ...]:
        stat = np.abs(qs_arr - center) / dens_arr
        return tuple(float(np.mean((stat <= e * sqrt_p) & eops_arr)) for e in eps_grid)

    p_zero = curve(0.0)
    p_med = curve(float(np.median(qs_arr)))

    def try_fit(phats) -> SlopeFit | None:
        points = [(e, q) for e, q in zip(eps_grid, phats) if q > 0 and e > 0]
        return fit_loglog_slope(*zip(*points)) if len(points) >= 4 else None

    return QuadraticSmallballReport(
        eps_grid=eps_grid,
        p_hat_zero=p_zero,
        p_hat_median=p_med,
        trials=trials,
        excluded_singular=trials - len(kept),
        slope_zero=try_fit(p_zero),
        slope_median=try_fit(p_med),
    )
