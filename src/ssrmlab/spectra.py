"""Eigenvalues, extreme singular values, and operator-norm experiments.

The dense oracle is one LAPACK tridiagonalization (dsytrd) followed by
dsterf for every eigenvalue, with a residual certificate on the two
eigenpairs callers read: the smallest and the largest in magnitude.  The
iterative paths (Python Householder reduction with Sturm-count bisection
for the smallest singular value, power iteration for the spectral norm)
are independent implementations so the two routes can cross-check each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dormqr, dsterf, dsytrd, dsytrd_lwork

from .ensemble import EnsembleParams, SparseSymmetricMatrix, run_trials, sample_matrix, trial_stream
from .errors import CapabilityError, NumericalError, ParameterError

DENSE_CAP = 2048

# s_min below this multiple of eps * |A| is reported as exactly 0.
_SINGULAR_FLOOR = 1e3 * np.finfo(np.float64).eps


def is_singular(smin: float, smax: float) -> bool:
    """The singular rule: s_min below the floor times s_max, or A = 0."""
    return smin < _SINGULAR_FLOOR * smax or smax == 0.0


def _as_dense(A) -> np.ndarray:
    dense = A.to_dense() if isinstance(A, SparseSymmetricMatrix) else np.asarray(A, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ParameterError("expected a square matrix")
    if not np.isfinite(dense).all():
        raise ParameterError("matrix entries must be finite")
    return dense


@dataclass(frozen=True)
class MaskProfile:
    """Row-norm and entry-magnitude summary of a variance mask b_ij."""

    sigma: float
    sigma_star: float

    def __post_init__(self):
        if self.sigma < 0 or self.sigma_star < 0:
            raise ParameterError("mask profile norms must be nonnegative")
        if self.sigma_star > self.sigma + 1e-12:
            raise ParameterError("sigma_star cannot exceed sigma")

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "MaskProfile":
        mask = np.asarray(mask, dtype=np.float64)
        if mask.size == 0:
            return cls(0.0, 0.0)
        sigma = float(np.sqrt((mask**2).sum(axis=1).max()))
        return cls(sigma, float(np.abs(mask).max()))


@dataclass(frozen=True)
class SpectralSummary:
    s_min: float
    s_max: float
    condition_number: float
    method: str
    residual: float


def full_symmetric_spectrum(A, cap: int = DENSE_CAP) -> np.ndarray:
    """All eigenvalues, ascending, via the dense oracle.

    dsytrd reduces the lower triangle to T = Q^T A Q and dsterf returns
    every eigenvalue of T.  Before returning, the eigenvalues of smallest
    and largest magnitude are certified: each gets an eigenvector z of T
    by inverse iteration, v = Q z, and ||Av - lambda v|| / ||v|| must stay
    within the contract 1e-10 * |A| * n.  By the residual theorem each of
    the two then lies within its residual of an eigenvalue of A.
    """
    dense = _as_dense(A)
    n = dense.shape[0]
    if n > cap:
        raise CapabilityError(f"dense oracle capped at n={cap}, got n={n}")
    if n <= 1:
        return dense.diagonal().copy()
    # The queried workspace enables the blocked reduction; the default
    # lwork=n runs the unblocked one at about half the speed.
    lwork = int(dsytrd_lwork(n, lower=1)[0])
    reflectors, diag, off, tau, info = dsytrd(dense, lower=1, lwork=lwork)
    if info != 0:
        raise NumericalError(f"dsytrd failed with info={info}")
    evals, info = dsterf(diag, off)
    if info != 0:
        raise NumericalError(f"dsterf left {info} off-diagonal entries unconverged")
    norm = float(max(-evals[0], evals[-1]))
    picks = [int(np.argmin(np.abs(evals))), 0 if -evals[0] >= evals[-1] else n - 1]
    try:
        Z = np.column_stack(
            [eigh_tridiagonal(diag, off, select="i", select_range=(k, k))[1][:, 0] for k in picks]
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigenvector failed: {exc}") from exc
    # dormtr for UPLO='L': Q = diag(1, Q'), Q' the QR-form product of the
    # reflectors stored below the first subdiagonal.
    V = Z.copy()
    V[1:], _, info = dormqr("L", "N", reflectors[1:, : n - 1], tau, Z[1:], lwork=2)
    if info != 0:
        raise NumericalError(f"dormqr failed with info={info}")
    residuals = np.linalg.norm(dense @ V - V * evals[picks], axis=0) / np.linalg.norm(V, axis=0)
    worst = float(residuals.max())
    if norm > 0 and not worst <= 1e-10 * norm * n:
        raise NumericalError(f"eigenpair residual {worst:g} out of contract")
    return evals


def _tridiagonalize(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction of a symmetric matrix to tridiagonal form.

    Returns (diagonal, off-diagonal).  Only the lower triangle of the
    working copy is referenced through symmetric updates.
    """
    T = np.array(dense, dtype=np.float64, copy=True)
    n = T.shape[0]
    for k in range(n - 2):
        x = T[k + 1 :, k].copy()
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        alpha = -math.copysign(nx, x[0] if x[0] != 0.0 else 1.0)
        v = x.copy()
        v[0] -= alpha
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        sub = T[k + 1 :, k + 1 :]
        u = sub @ v
        w = u - (v @ u) * v
        sub -= 2.0 * np.outer(v, w)
        sub -= 2.0 * np.outer(w, v)
        T[k + 1 :, k + 1 :] = sub
        T[k + 1, k] = T[k, k + 1] = alpha
        T[k + 2 :, k] = 0.0
        T[k, k + 2 :] = 0.0
    diag = np.diag(T).copy()
    off = np.diag(T, k=-1).copy() if n > 1 else np.zeros(0)
    return diag, off


def _count_below(diag: np.ndarray, off: np.ndarray, t: float) -> int:
    """Sturm count: number of eigenvalues of the tridiagonal matrix < t."""
    tiny = np.finfo(np.float64).tiny
    count = 0
    d = 1.0
    for i in range(diag.size):
        e2 = off[i - 1] * off[i - 1] if i > 0 else 0.0
        d = diag[i] - t - e2 / d
        if d == 0.0:
            d = -tiny
        if d < 0.0:
            count += 1
    return count


def smallest_singular_value(A, tol: float = 1e-10) -> float:
    """min |eigenvalue| by inertia bisection on the tridiagonalized matrix.

    The bracket [lo, hi] shrinks until it is below the hybrid target
    tol * max(1, |A|) and, away from zero, below ~1e-13 relative.
    Matrices singular to working precision return 0.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    dense = _as_dense(A)
    n = dense.shape[0]
    if n == 1:
        return abs(float(dense[0, 0]))
    diag, off = _tridiagonalize(dense)
    hi = float(np.max(np.abs(diag)) + 2.0 * (np.max(np.abs(off)) if off.size else 0.0))
    if hi == 0.0:
        return 0.0
    norm_bound = hi

    def eigs_inside(t: float) -> int:
        return _count_below(diag, off, t) - _count_below(diag, off, -t)

    lo = 0.0
    abs_goal = tol * max(1.0, norm_bound)
    floor_abs = _SINGULAR_FLOOR * norm_bound
    for _ in range(3000):
        width = hi - lo
        if lo == 0.0:
            # Either the matrix is singular (bracket collapses onto 0) or
            # the first sub-s_min midpoint has not been probed yet.
            if hi <= 0.25 * floor_abs:
                break
        elif width <= abs_goal and width <= 1e-13 * hi:
            break
        if width <= 4.0 * np.finfo(np.float64).eps * hi:
            break
        mid = 0.5 * (lo + hi)
        if eigs_inside(mid) >= 1:
            hi = mid
        else:
            lo = mid
    result = 0.5 * (lo + hi)
    if result < floor_abs:
        return 0.0
    return result


def spectral_norm(A, tol: float = 1e-9, max_iter: int = 100_000) -> float:
    """max |eigenvalue| by power iteration on A^2.

    Convergence is declared when the geometric-tail error estimate drops
    below tol * max(1, estimate).
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    dense = _as_dense(A)
    n = dense.shape[0]
    if not np.any(dense):
        return 0.0
    # Deterministic start vector, keyed by the dimension only.
    rng = np.random.Generator(np.random.Philox(key=np.array([0xD1CE, n], dtype=np.uint64)))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est_prev = 0.0
    diff_prev = math.inf
    for _ in range(max_iter):
        w = dense @ v
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return 0.0
        v = dense @ w
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return est
        v /= nv
        diff = abs(est - est_prev)
        if diff_prev > 0 and diff_prev < math.inf:
            ratio = min(diff / diff_prev, 0.999)
            tail = diff * ratio / (1.0 - ratio)
        else:
            tail = diff
        if diff <= tol * max(1.0, est) and tail <= tol * max(1.0, est):
            return est
        est_prev, diff_prev = est, diff
    raise NumericalError("power iteration did not converge")


def spectral_summary(A, tol: float = 1e-10, cap: int = DENSE_CAP) -> SpectralSummary:
    """s_min, s_max and condition number, dense under the cap else iterative."""
    dense = _as_dense(A)
    n = dense.shape[0]
    if n <= cap:
        evals = full_symmetric_spectrum(dense, cap=cap)
        smin = float(np.abs(evals).min())
        smax = float(np.abs(evals).max())
        if is_singular(smin, smax):
            smin = 0.0
        method = "dense-oracle"
        residual = float(np.finfo(np.float64).eps * max(smax, 1.0) * n)
    else:
        smin = smallest_singular_value(dense, tol=tol)
        smax = spectral_norm(dense, tol=tol)
        method = "iterative"
        residual = tol * max(1.0, smax)
    cond = smax / smin if smin > 0 else math.inf
    return SpectralSummary(smin, smax, cond, method, residual)


def operator_norm_event(A, params: EnsembleParams, tol: float = 1e-9) -> bool:
    """True iff |A| <= C_op * sqrt(p n)."""
    return spectral_norm(A, tol=tol) <= params.c_op * math.sqrt(params.p * params.n)


def bvh_bound(profile: MaskProfile, n: int, eps: float) -> float:
    """Gaussian comparison bound (1+eps)(2 sigma + 6 sigma* sqrt(log n) / sqrt(log(1+eps))).

    eps up to and including 0.5 is accepted; experiments evaluate at the
    endpoint.
    """
    if not 0.0 < eps <= 0.5:
        raise ParameterError("eps must lie in (0, 1/2]")
    if n < 1:
        raise ParameterError("n must be >= 1")
    star_term = 6.0 / math.sqrt(math.log1p(eps)) * profile.sigma_star * math.sqrt(math.log(n)) if n > 1 else 0.0
    return (1.0 + eps) * (2.0 * profile.sigma + star_term)


@dataclass(frozen=True)
class NormBoundRow:
    trial: int
    norm: float
    norm_over_sqrt_pn: float
    omega_event: bool
    bvh_bound: float
    bvh_satisfied: bool


@dataclass(frozen=True)
class NormBoundReport:
    rows: tuple[NormBoundRow, ...]
    cbar: float
    eps: float
    c_op: float

    @property
    def mean_ratio(self) -> float:
        return float(np.mean([r.norm_over_sqrt_pn for r in self.rows])) if self.rows else math.nan

    @property
    def violation_fraction(self) -> float:
        """Fraction of trials with |A| > C_op sqrt(pn)."""
        if not self.rows:
            return math.nan
        return float(np.mean([r.norm_over_sqrt_pn > self.c_op for r in self.rows]))

    @property
    def omega_fraction(self) -> float:
        return float(np.mean([r.omega_event for r in self.rows])) if self.rows else math.nan

    @property
    def bvh_fraction(self) -> float:
        return float(np.mean([r.bvh_satisfied for r in self.rows])) if self.rows else math.nan


def _norm_bound_trial(
    master_seed: int, cbar: float, eps: float, norm_tol: float, params: EnsembleParams, c: int, t: int
) -> NormBoundRow:
    n, p = params.n, params.p
    dense = sample_matrix(params, trial_stream(master_seed, c, t)).to_dense()
    norm = spectral_norm(dense, tol=norm_tol)
    mask = (dense != 0.0).astype(np.float64)
    row_counts = mask.sum(axis=1)
    omega = bool(row_counts.max(initial=0.0) <= cbar * p * n)
    # Gaussian comparison on the same realized mask.
    g = trial_stream(master_seed, 1, t).generator().standard_normal((n, n))
    g = np.triu(g) + np.triu(g, k=1).T
    W = mask * g
    wnorm = spectral_norm(W, tol=norm_tol) if np.any(W) else 0.0
    bound = bvh_bound(MaskProfile.from_mask(mask), n, eps)
    scale = math.sqrt(p * n) if p > 0 else 1.0
    return NormBoundRow(t, norm, norm / scale, omega, bound, wnorm <= bound)


def norm_bound_experiment(
    params: EnsembleParams,
    trials: int,
    master_seed: int,
    cbar: float = 2.0,
    eps: float = 0.5,
    norm_tol: float = 1e-7,
    workers: int = 1,
) -> NormBoundReport:
    """Per-trial spectral norms plus the Gaussian comparison check.

    Each trial samples one ensemble realization A, records |A|/sqrt(pn)
    and the row-sparsity event (max row mask count <= cbar * p * n), then
    reuses A's mask for a Gaussian matrix W and compares |W| against the
    comparison bound of the realized mask profile.
    """
    if not params.dist.is_subgaussian:
        raise CapabilityError("norm bound experiment requires a sub-gaussian entry law")
    if trials < 0:
        raise ParameterError("trials must be nonnegative")
    kernel = partial(_norm_bound_trial, master_seed, cbar, eps, norm_tol)
    rows = run_trials(kernel, [params], trials, workers)[0]
    return NormBoundReport(tuple(rows), cbar, eps, params.c_op)
