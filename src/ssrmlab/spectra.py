"""Eigenvalues, extreme singular values, and operator-norm experiments.

Every spectrum starts from one kernel, the LAPACK tridiagonalization
T = Q^T A Q (dsytrd, blocked).  The dense oracle follows it with dsterf
for every eigenvalue (implicit QL/QR) and a residual certificate on the
two eigenpairs callers read, the smallest and the largest in magnitude.
The extreme values alone (``spectral_norm``, ``smallest_singular_value``)
come from dstebz bisection on T for single eigenvalues, a different
eigenvalue algorithm, so the two routes still cross-check each other.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dormqr, dstebz, dsterf, dsytrd, dsytrd_lwork

from .ensemble import EnsembleParams, SparseSymmetricMatrix, run_trials, sample_matrix, trial_stream
from .errors import CapabilityError, NumericalError, ParameterError

DENSE_CAP = 2048

# s_min below this multiple of eps * |A| is reported as exactly 0.
_SINGULAR_FLOOR = 1e3 * np.finfo(np.float64).eps

# dstebz's most accurate absolute tolerance (twice the underflow threshold).
_STEBZ_ABSTOL = 2.0 * np.finfo(np.float64).tiny


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


def _tridiagonal(dense: np.ndarray):
    """dsytrd on the lower triangle: (reflectors, diagonal, off-diagonal, tau)."""
    # The queried workspace enables the blocked reduction; the default
    # lwork=n runs the unblocked one at about half the speed.
    lwork = int(dsytrd_lwork(dense.shape[0], lower=1)[0])
    reflectors, diag, off, tau, info = dsytrd(dense, lower=1, lwork=lwork)
    if info != 0:
        raise NumericalError(f"dsytrd failed with info={info}")
    return reflectors, diag, off, tau


def _certified_spectrum(dense: np.ndarray, cap: int) -> tuple[np.ndarray, float]:
    """(ascending eigenvalues, worst residual of the two certified eigenpairs)."""
    n = dense.shape[0]
    if n > cap:
        raise CapabilityError(f"dense oracle capped at n={cap}, got n={n}")
    if n <= 1:
        return dense.diagonal().copy(), 0.0
    reflectors, diag, off, tau = _tridiagonal(dense)
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
    return evals, worst


def full_symmetric_spectrum(A, cap: int = DENSE_CAP) -> np.ndarray:
    """All eigenvalues, ascending, via the dense oracle.

    dsytrd reduces the lower triangle to T = Q^T A Q and dsterf returns
    every eigenvalue of T.  Before returning, the eigenvalues of smallest
    and largest magnitude are certified: each gets an eigenvector z of T
    by inverse iteration, v = Q z, and ||Av - lambda v|| / ||v|| must stay
    within the contract 1e-10 * |A| * n.  By the residual theorem each of
    the two then lies within its residual of an eigenvalue of A.
    """
    return _certified_spectrum(_as_dense(A), cap)[0]


def _eigenvalue(diag: np.ndarray, off: np.ndarray, k: int) -> float:
    """The k-th smallest eigenvalue (1-based) of the tridiagonal (diag, off), by dstebz."""
    found, w, _, _, info = dstebz(diag, off, 2, 0.0, 0.0, k, k, _STEBZ_ABSTOL, "E")
    if info != 0 or found != 1:
        raise NumericalError(f"dstebz failed with info={info} for eigenvalue {k}")
    return float(w[0])


def smallest_singular_value(A, tol: float = 1e-10) -> float:
    """min |eigenvalue|, within tol * max(1, |A|), or 0 when A is singular.

    One dsytrd, then dstebz bisection for single eigenvalues, run to
    dstebz's full accuracy, which meets tol for any tol above the
    reduction's backward error (about n eps |A|).  The result goes through
    ``is_singular`` against |A| = max(-lambda_1, lambda_n).
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    dense = _as_dense(A)
    n = dense.shape[0]
    if n == 1:
        return abs(float(dense[0, 0]))
    _, diag, off, _ = _tridiagonal(dense)
    eigenvalue = partial(_eigenvalue, diag, off)
    # The inertia nu (count of negative eigenvalues) by binary search over
    # the index; min |lambda| is then -lambda_nu or lambda_{nu+1}.
    nu = bisect.bisect_left(range(1, n + 1), 0.0, key=eigenvalue)
    smin = min(abs(eigenvalue(k)) for k in (nu, nu + 1) if 1 <= k <= n)
    return 0.0 if is_singular(smin, max(-eigenvalue(1), eigenvalue(n))) else smin


def spectral_norm(A, tol: float = 1e-9) -> float:
    """max |eigenvalue| = max(-lambda_1, lambda_n), within tol * max(1, |A|).

    One dsytrd and two dstebz bisections at indices 1 and n, run to
    dstebz's full accuracy, which meets tol for any tol above the
    reduction's backward error (about n eps |A|).
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    dense = _as_dense(A)
    n = dense.shape[0]
    if n <= 1 or not np.any(dense):
        return float(np.abs(dense).max(initial=0.0))
    _, diag, off, _ = _tridiagonal(dense)
    return max(-_eigenvalue(diag, off, 1), _eigenvalue(diag, off, n))


def spectral_summary(A, tol: float = 1e-10, cap: int = DENSE_CAP) -> SpectralSummary:
    """s_min, s_max and condition number, dense under the cap else iterative.

    ``residual`` is measured on the dense route: the larger of
    ||Av - lambda v|| / ||v|| over the two reported eigenpairs.  Above the
    cap no eigenvector is formed, and it is the bound tol * max(1, s_max)
    that both extreme values meet.
    """
    dense = _as_dense(A)
    n = dense.shape[0]
    if n <= cap:
        evals, residual = _certified_spectrum(dense, cap)
        smin = float(np.abs(evals).min())
        smax = float(np.abs(evals).max())
        if is_singular(smin, smax):
            smin = 0.0
        method = "dense-oracle"
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
    wnorm = spectral_norm(W, tol=norm_tol)
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
