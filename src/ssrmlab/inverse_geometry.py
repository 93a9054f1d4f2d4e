"""The distance-check and quadratic experiments: column distances to the
complementary spans, and the quadratic form of the inverse.

Every eigenvalue here comes from ``spectra._certified_extremes``, the
package's one route to certified extreme values, at any n, and each trial
reduces its matrix once.  The distance-check trial reads s_min (0 by the
package's one singular rule), the certified eigenvector of s_min and the
null block, which ``all_column_distances`` takes to give every distance by
one rule, singular or not.  The quadratic trial reads its operator norm,
its singular verdict and its solve A^-1 X; its singular realizations are
excluded and counted, never folded into averages.  The LAPACK and BLAS
routines are spectra's, so nothing here imports the scipy.linalg package.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from functools import partial
from typing import NamedTuple

import numpy as np

from .ensemble import Purpose, run_trials, sample_matrix, sample_sparse_vector, trial_stream
from .errors import NumericalError, ParameterError
from .model import EnsembleParams
from .spectra import (
    C_OP,
    _as_dense,
    _certified_extremes,
    dgemm,
    dgetrf,
    dgetri,
    dgetri_lwork,
)
from .stats import Z95, determined_slope, median, wilson_interval
from .structure import sparse_tail_distance

# Leverage |N_j|^2 above which column j lies in the span of the others.
_LEVERAGE_FLOOR = np.finfo(np.float64).eps


def _inverse(dense: np.ndarray) -> np.ndarray:
    """A^-1 by LU (dgetrf) and dgetri with its queried workspace, in place.

    ``dense`` must be a Fortran-ordered float64 buffer that the caller owns
    and no longer needs: it is overwritten with the inverse, which is
    returned, so no identity, LU copy or second n x n array is made.  (Any
    other layout is copied by the wrappers first, and left unchanged.)
    """
    lu, piv, info = dgetrf(dense, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"dgetrf met an exactly singular pivot (info={info})")
    inv, info = dgetri(lu, piv, lwork=int(dgetri_lwork(len(dense))[0]), overwrite_lu=1)
    if info != 0:
        raise NumericalError(f"dgetri failed with info={info}")
    return inv


def all_column_distances(A, null: np.ndarray) -> np.ndarray:
    """dist(A_j, H_j) for every j, given an orthonormal basis ``null`` of A's
    numerical null space (n x k, k >= 0: the columns of
    ``_certified_extremes(A, null=True).vectors`` after the first two).

    One rule, singular or not: with N = ``null``, (A + N N^T)^-1 = A^+ + N N^T,
    whose j-th column has norm 1 / dist(A_j, H_j) when row j of N is zero;
    when it is not, a null vector writes A_j in the other columns, and the
    distance is 0.  Row j counts as nonzero when its leverage |N_j|^2 exceeds
    ``_LEVERAGE_FLOOR`` = eps: v = N N_j^T / |N_j|^2 has v_j = 1, so A_j lies
    within |A N| / |N_j|, about n eps |A| / sqrt(eps), of the span of the
    others.  A row zero in exact arithmetic has a rounding-level leverage,
    about (n eps |A| / gap)^2 for the null block's spectral gap, which adds
    to |A^+ e_j|^2 no more than that.  (Singular draws at n = 60 to 200,
    p = log n / n and 1.5 / n, had leverages above 2e-8 or below 1e-20.)
    A + N N^T (dgemm) is inverted in this call's own copy of A.
    """
    dense = _as_dense(A)
    dense = dgemm(1.0, null, null, beta=1.0, c=dense, trans_b=1, overwrite_c=1)
    inv = _inverse(dense)
    # The column norms, squared in the inverse's own buffer: no n x n temporary.
    dists = 1.0 / np.sqrt(np.add.reduce(np.square(inv, out=inv), axis=0))
    dists[np.einsum("ij,ij->i", null, null) > _LEVERAGE_FLOOR] = 0.0
    return dists


class DistanceExperimentRow(NamedTuple):
    """One distance-check trial; the fields, in order, are the CSV columns."""

    trial: int
    s_min: float
    minimizer_incompressible: bool
    lhs_event: bool
    rhs_value: float


def _distance_trial(master_seed: int, eps: float, M: int, rho: float, params: EnsembleParams, t: int) -> DistanceExperimentRow:
    n, p = params.n, params.p
    A = sample_matrix(params, trial_stream(master_seed, Purpose.MATRIX, n, p, t))
    smin, _, _, vectors, _ = _certified_extremes(A, null=True)
    incomp = sparse_tail_distance(vectors[:, 0], M) > rho
    lhs_event = (smin <= eps * math.sqrt(p / n)) and incomp
    dists = all_column_distances(A, vectors[:, 2:])
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
) -> tuple[list[DistanceExperimentRow], dict]:
    """Monte Carlo check of the invertibility-via-distance inequality.

    Left side: fraction of trials where s_min <= eps sqrt(p/n) AND the
    minimizing eigenvector is (M, rho)-incompressible.  Right side: mean
    over trials of (1/M) #{j : dist(A_j, H_j) <= sqrt(p) eps}.  The
    certified comparison allows one-sided CI slack on both estimates.
    Returns the rows and the sidecar's summary of both sides.  Needs
    eps >= 0, rho > 0, trials >= 1 and 1 <= M < n (all checked by
    ``harness``).
    """
    rows = run_trials(partial(_distance_trial, master_seed, eps, M, rho), [params], trials, workers)[0]
    lhs_hits = sum(r.lhs_event for r in rows)
    lhs_ci = wilson_interval(lhs_hits, trials)
    rhs_arr = np.asarray([r.rhs_value for r in rows])
    rhs_hat = float(rhs_arr.mean())
    rhs_halfwidth = Z95 * float(rhs_arr.std(ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf
    return rows, {
        "lhs_hat": lhs_hits / trials,
        "lhs_ci": list(lhs_ci),
        "rhs_hat": rhs_hat,
        "rhs_halfwidth": rhs_halfwidth,
        "holds_within_slack": lhs_ci[0] <= rhs_hat + rhs_halfwidth,
    }


class QuadraticRow(NamedTuple):
    """One eps point of the quadratic experiment; the fields, in order, are the CSV columns."""

    eps: float
    p_hat_zero: float
    p_hat_median: float


def _quadratic_trial(master_seed: int, params: EnsembleParams, t: int):
    """(<A^-1 X, X>, sqrt(1 + |A^-1 X|^2), |A| <= C_OP sqrt(pn)), or None for a singular A."""
    n, p = params.n, params.p
    A = sample_matrix(params, trial_stream(master_seed, Purpose.MATRIX, n, p, t))
    X = sample_sparse_vector(n, p, params.dist, trial_stream(master_seed, Purpose.QUADRATIC_X, n, p, t))
    # One reduction gives the norm, the singular verdict and A^-1 X; the
    # sparse realization goes in whole, densified into spectra's one buffer.
    _, top, _, _, y = _certified_extremes(A, X)
    if y is None:
        return None
    return float(y @ X), math.sqrt(1.0 + float(y @ y)), top <= C_OP * math.sqrt(p * n)


def quadratic_smallball_experiment(
    params: EnsembleParams,
    eps_grid,
    trials: int,
    master_seed: int = 0,
    workers: int = 1,
) -> tuple[list[QuadraticRow], dict]:
    """Tail curve of the self-normalized quadratic form of the inverse.

    Per trial draws (A, X), computes q = <A^-1 X, X> and the normalizer
    sqrt(1 + |A^-1 X|^2), and counts |q - u| / normalizer <= eps sqrt(p)
    jointly with the operator-norm event |A| <= C_OP sqrt(pn), at u = 0
    and at the empirical median of q.  Realizations are reused across the
    whole eps grid, in any order, so the curves are exactly monotone in eps.
    Returns one row per eps point and the sidecar's summary: the singular
    realizations excluded and the log-log slope of each curve.
    Needs eps points >= 0, one or more, and trials >= 1 (checked by ``harness``).
    """
    records = run_trials(partial(_quadratic_trial, master_seed), [params], trials, workers)[0]
    kept = [r for r in records if r is not None]
    if not kept:
        raise ParameterError("all sampled matrices were singular")
    qs_arr, dens_arr, eops_arr = (np.asarray(col) for col in zip(*kept))
    sqrt_p = math.sqrt(params.p)

    def curve(center: float) -> list[float]:
        stat = np.abs(qs_arr - center) / dens_arr
        return [float(np.mean((stat <= e * sqrt_p) & eops_arr)) for e in eps_grid]

    def fit(phats) -> dict | None:
        slope = determined_slope([(e, q) for e, q in zip(eps_grid, phats) if q > 0 and e > 0])
        return None if slope is None else asdict(slope)

    p_zero, p_med = curve(0.0), curve(median(qs_arr))
    rows = [QuadraticRow(*row) for row in zip(eps_grid, p_zero, p_med)]
    return rows, {"excluded_singular": trials - len(kept), "slope_zero": fit(p_zero), "slope_median": fit(p_med)}
