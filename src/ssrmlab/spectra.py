"""Eigenvalues, extreme singular values, solves, and operator-norm experiments.

Every eigenvalue in the package starts from one kernel, the LAPACK
reduction T = Q^T A Q (dsytrd, ``_tridiagonal``), at every n.  One engine,
``_certified_extremes``, serves every caller that reads (s_min, s_max):
``smallest_singular_value``, ``spectral_norm``, ``spectral_summary`` and
the distance-check and quadratic trials.  It counts the eigenvalues <= 0 by
Sturm sequences, runs dstebz at the four indices where the extremes can
lie and certifies the two it reports by their eigenvectors' residuals, so
every extreme value the package reports carries a measured residual.  It
also gives the null block when asked (the eigenvectors of every eigenvalue
the singular rule, ``singular_extremes``, calls zero) and, given b, solves
A y = b from the same reduction unless A is singular.
``full_symmetric_spectrum`` alone returns every eigenvalue, by dsterf, with
the same certificate on its two extremes; it serves the tail-sweep and
scaling trials.

Ownership: every call takes a ``SparseSymmetricMatrix``, a kind's sparse
realization (norm-check's also its Gaussian comparison) or a checked
matrix file, and densifies it once, by ``to_dense``, into the
Fortran-ordered buffer that dsytrd reduces in place.  So a call holds one
n x n array and never writes to the caller's: the certificate saves the
diagonal, applies Q panel by panel to its vectors (``_apply_q``),
restores the diagonal and forms A V from the untouched upper triangle.

Every LAPACK and BLAS routine in the package is bound here, from scipy's
two compiled modules ``scipy.linalg._flapack`` and ``_fblas``, which
``_compiled_linalg`` loads without the scipy.linalg package; the
certified eigenvectors come from dstebz and dstein directly.
``inverse_geometry`` takes dgetrf and dgetri from here for its inverse,
and dgemm for the update A + N N^T by the null block.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np

from .ensemble import Purpose, SparseSymmetricMatrix, run_trials, sample_matrix, trial_stream
from .errors import NumericalError
from .model import EnsembleParams


def _compiled_linalg(name: str):
    """scipy's compiled module ``scipy.linalg.<name>`` without the scipy.linalg package.

    The package costs about 0.25 s and 500 modules of start-up, and the
    scipy package alone about 15 ms; the extension module loads in
    milliseconds.  It is registered in ``sys.modules`` under its real
    name, so a later ``import scipy.linalg`` reuses this very module.  If
    the file is not found, the ordinary import gives the same module,
    only slower.
    """
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    # Where scipy is installed, without importing the scipy package itself.
    scipy_dir = find_spec("scipy").submodule_search_locations[0]
    finder = FileFinder(os.path.join(scipy_dir, "linalg"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(full)
    if spec is None:
        return importlib.import_module(full)
    module = module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


_flapack, _fblas = _compiled_linalg("_flapack"), _compiled_linalg("_fblas")
dgetrf, dgetri, dgetri_lwork, dgtsv = _flapack.dgetrf, _flapack.dgetri, _flapack.dgetri_lwork, _flapack.dgtsv
dormqr, dstebz, dstein, dsterf = _flapack.dormqr, _flapack.dstebz, _flapack.dstein, _flapack.dsterf
dsytrd, dsytrd_lwork = _flapack.dsytrd, _flapack.dsytrd_lwork
dgemm, dsymm = _fblas.dgemm, _fblas.dsymm

# C_op of the operator-norm event |A| <= C_op sqrt(pn).
C_OP = 3.0

# s_min below this multiple of eps * |A| is reported as exactly 0.
_SINGULAR_FLOOR = 1e3 * np.finfo(np.float64).eps

# dstebz's most accurate absolute tolerance (twice the underflow threshold).
_STEBZ_ABSTOL = 2.0 * np.finfo(np.float64).tiny

# LAPACK dsyevx's safe range for max |a_ij|.  Outside it the squares in
# dstebz's Sturm counts and in the residual norms under- or overflow.
_SAFE_MIN = math.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_SAFE_MAX = min(1.0 / _SAFE_MIN, np.finfo(np.float64).tiny ** -0.25)

# Reflectors per dormqr call when Q or Q^T is applied to a few vectors.
_PANEL = 64


def is_singular(smin: float, smax: float) -> bool:
    """The singular rule: s_min below the floor times s_max, or A = 0."""
    return smin < _SINGULAR_FLOOR * smax or smax == 0.0


def singular_extremes(evals: np.ndarray) -> tuple[float, float]:
    """(s_min, s_max) from eigenvalues that include the smallest and largest
    in magnitude; s_min is 0 when ``is_singular``."""
    mags = np.abs(evals)
    smin, smax = float(mags.min(initial=math.inf)), float(mags.max(initial=0.0))
    return (0.0 if is_singular(smin, smax) else smin), smax


class SpectralSummary(NamedTuple):
    s_min: float
    s_max: float
    condition_number: float
    residual: float


def _balance(work: np.ndarray) -> int:
    """Scale work by 2^-shift in place, exactly, and return shift; shift = 0
    unless max |a_ij| is outside the safe range."""
    peak = max(float(work.max()), -float(work.min()))  # no n x n temporary
    shift = 0 if peak == 0.0 or _SAFE_MIN <= peak <= _SAFE_MAX else math.frexp(peak)[1]
    if shift:
        np.ldexp(work, -shift, out=work)
    return shift


def _scale_back(values, shift: int) -> np.ndarray:
    """2^shift times eigenvalues after ``_balance``, exactly; NumericalError if one overflows."""
    if math.frexp(float(np.abs(values).max(initial=0.0)))[1] + shift > sys.float_info.max_exp:
        raise NumericalError("the spectral norm overflows float64")
    return np.ldexp(values, shift)


def _tridiagonal(work: np.ndarray):
    """dsytrd on the lower triangle of an owned Fortran-ordered buffer, in place:
    (reflectors, diagonal, off-diagonal, tau).  The diagonal and below are
    overwritten; the strict upper triangle is not touched."""
    # The queried workspace enables the blocked reduction; the default
    # lwork=n runs the unblocked one at about half the speed.
    lwork = int(dsytrd_lwork(work.shape[0], lower=1)[0])
    reflectors, diag, off, tau, info = dsytrd(work, lower=1, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"dsytrd failed with info={info}")
    return reflectors, diag, off, tau


def _apply_q(reflectors: np.ndarray, tau: np.ndarray, V: np.ndarray, trans: str) -> np.ndarray:
    """Q V (trans "N") or Q^T V ("T"), in place in V, for the Q of ``_tridiagonal``.

    dormtr for UPLO='L': Q = diag(1, Q'), Q' = H_0 ... H_{n-2} the QR-form
    product of the reflectors stored below the first subdiagonal.  H_k
    touches rows k.. of Q', so each panel of reflectors acts on a tail of
    V: Q takes the last panel first, Q^T the first.  Only the panel, not
    the (n-1)^2 block, is copied.
    """
    n = V.shape[0]
    panels = range(0, n - 1, _PANEL)
    for k in reversed(panels) if trans == "N" else panels:
        end = min(k + _PANEL, n - 1)
        V[k + 1 :], _, info = dormqr("L", trans, reflectors[k + 1 :, k:end], tau[k:end], V[k + 1 :], lwork=V.shape[1])
        if info != 0:
            raise NumericalError(f"dormqr failed with info={info}")
    return V


def _tridiagonal_eigenvectors(diag: np.ndarray, off: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Unit eigenvectors, as columns, of the lo-th to (hi-1)-th smallest eigenvalues
    (0-based) of the tridiagonal (diag, off): dstebz by bisection over the index
    range, then one dstein by inverse iteration, which reorthogonalizes clusters."""
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, lo + 1, hi, 0.0, "B")
    if info != 0 or m != hi - lo:
        raise NumericalError(f"dstebz gave {m} eigenvalues with info={info} for indices {lo + 1} to {hi}")
    z, info = dstein(diag, off, w[:m], iblock, isplit)
    if info != 0:
        raise NumericalError(f"dstein failed with info={info} for eigenvalues {lo + 1} to {hi}")
    return z[:, np.argsort(w[:m], kind="stable")]  # ascending, not by split block


def _count_at_most(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """The number of eigenvalues <= x (|x| within the Gershgorin bound) of the
    tridiagonal (diag, off): one dstebz Sturm count over (-g, x], g above that
    bound, whose absolute tolerance g stops it before it refines any interval."""
    g = 2.0 * (float(np.abs(diag).max()) + 2.0 * float(np.abs(off).max(initial=0.0)))
    found, _, _, _, info = dstebz(diag, off, 1, -g, x, 0, 0, g, "B")
    if info != 0:
        raise NumericalError(f"dstebz failed with info={info} counting eigenvalues <= {x:g}")
    return int(found)


def _eigenvalue(diag: np.ndarray, off: np.ndarray, k: int) -> float:
    """The k-th smallest eigenvalue (1-based) of the tridiagonal (diag, off), by dstebz."""
    found, w, _, _, info = dstebz(diag, off, 2, 0.0, 0.0, k, k, _STEBZ_ABSTOL, "E")
    if info != 0 or found != 1:
        raise NumericalError(f"dstebz failed with info={info} for eigenvalue {k}")
    return float(w[0])


def _certify(work, saved, reflectors, tau, diag, off, ranges, values) -> tuple[float, np.ndarray]:
    """(worst residual, unit eigenvectors v = Q z of A as columns) for the index
    ranges of ``_tridiagonal_eigenvectors``; ||A v - lambda v|| / ||v||, lambda
    the column's entry of ``values``, must stay within 1e-10 |A| n, |A| the
    second column's |lambda|.  By the residual theorem each lambda then lies
    within its residual of an eigenvalue of A.  A V comes from the upper
    triangle, which dsytrd left as it was, with the saved diagonal put back,
    on scipy's BLAS like dsytrd (numpy's own OpenBLAS pool contends with it)."""
    V = _apply_q(reflectors, tau, np.hstack([_tridiagonal_eigenvectors(diag, off, *r) for r in ranges]), "N")
    lengths = np.linalg.norm(V, axis=0)
    np.fill_diagonal(work, saved)
    AV = dsymm(1.0, work, V)
    worst = float((np.linalg.norm(AV - V * values, axis=0) / lengths).max())
    norm = abs(float(values[1]))
    if norm > 0 and not worst <= 1e-10 * norm * work.shape[0]:
        raise NumericalError(f"eigenpair residual {worst:g} out of contract")
    return worst, V / lengths


def full_symmetric_spectrum(A: SparseSymmetricMatrix) -> np.ndarray:
    """All eigenvalues, ascending: dsytrd reduces the lower triangle to
    T = Q^T A Q and dsterf returns every eigenvalue of T; the two of smallest
    and largest magnitude are certified by ``_certify``."""
    work = A.to_dense()
    n = work.shape[0]
    if n <= 1:
        return work.diagonal().copy()
    shift = _balance(work)
    saved = work.diagonal().copy()
    reflectors, diag, off, tau = _tridiagonal(work)
    evals, info = dsterf(diag, off)
    if info != 0:
        raise NumericalError(f"dsterf left {info} off-diagonal entries unconverged")
    picks = [int(np.argmin(np.abs(evals))), 0 if -evals[0] >= evals[-1] else n - 1]
    _certify(work, saved, reflectors, tau, diag, off, [(k, k + 1) for k in picks], evals[picks])
    return _scale_back(evals, shift)


class _Extremes(NamedTuple):
    """s_min (0 when ``is_singular``), s_max, the certified eigenpairs' worst residual, their unit
    eigenvectors (the s_min pick, the s_max pick, the null block), and A^-1 b or None."""

    s_min: float
    s_max: float
    residual: float
    vectors: np.ndarray
    y: np.ndarray | None


def _certified_extremes(A: SparseSymmetricMatrix, b=None, null: bool = False) -> _Extremes:
    """The package's one route to (s_min, s_max), certified, with the solve and null block.

    One dsytrd, then dstebz to its full accuracy at indices 1 and n for s_max
    and at nu and nu + 1 for s_min, nu the count of eigenvalues <= 0: within
    the reduction's backward error, about n eps |A|.  ``_certify`` checks both
    picks.  Given ``null`` and a singular A, the null block holds the
    eigenvectors of every eigenvalue in (-cut, cut), cut = the singular floor
    times s_max, indexed by two Sturm counts and certified against 0, so the
    residual bounds |A N|.  Given b, y = 2^-shift Q T^-1 Q^T b from the same
    reduction A = 2^shift Q T Q^T, T by dgtsv (LU with partial pivoting); an
    exactly zero pivot raises NumericalError."""
    work = A.to_dense()
    n = work.shape[0]
    if n <= 1 or not work.any():  # 1 x 1 or zero: the unit vectors are eigenvectors
        smin, smax = singular_extremes(work.diagonal())
        vectors = np.eye(n)[:, [0, 0, *range(n if null and smax == 0.0 else 0)]]
        y = None if b is None or smin == 0.0 else np.asarray(b, dtype=np.float64) / work[0, 0]
        return _Extremes(smin, smax, 0.0, vectors, y)
    shift = _balance(work)
    saved = work.diagonal().copy()
    reflectors, diag, off, tau = _tridiagonal(work)
    nu = _count_at_most(diag, off, 0.0)
    value = {k: _eigenvalue(diag, off, k) for k in {1, nu, nu + 1, n} if 1 <= k <= n}
    small = min((k for k in (nu, nu + 1) if k in value), key=lambda k: abs(value[k]))
    large = max((1, n), key=lambda k: abs(value[k]))
    smin, smax = singular_extremes(np.array([value[small], value[large]]))
    ranges, values = [(small - 1, small), (large - 1, large)], [value[small], value[large]]
    if null and smin == 0.0:
        cut = _SINGULAR_FLOOR * smax
        lo, hi = _count_at_most(diag, off, -cut), _count_at_most(diag, off, math.nextafter(cut, 0.0))
        ranges.append((lo, hi))
        values += [0.0] * (hi - lo)
    y = None
    if b is not None and smin != 0.0:
        rhs = _apply_q(reflectors, tau, np.array(b, dtype=np.float64).reshape(n, 1), "T")
        _, _, _, x, info = dgtsv(off, diag, off, rhs)
        if info != 0:
            raise NumericalError(f"dgtsv met an exactly singular pivot (info={info})")
        y = np.ldexp(_apply_q(reflectors, tau, x, "N")[:, 0], -shift)
    worst, vectors = _certify(work, saved, reflectors, tau, diag, off, ranges, values)
    smin, smax = _scale_back((smin, smax), shift).tolist()
    return _Extremes(smin, smax, math.ldexp(worst, shift), vectors, y)


def smallest_singular_value(A: SparseSymmetricMatrix) -> float:
    """min |eigenvalue|, within about n eps |A|; 0 when singular."""
    return _certified_extremes(A).s_min


def spectral_norm(A: SparseSymmetricMatrix) -> float:
    """max |eigenvalue|, within about n eps |A|."""
    return _certified_extremes(A).s_max


def spectral_summary(A: SparseSymmetricMatrix) -> SpectralSummary:
    """s_min, s_max and condition number from ``_certified_extremes``.

    ``residual`` is measured: the larger of ||Av - lambda v|| / ||v|| over
    the two reported eigenpairs.
    """
    smin, smax, residual, _, _ = _certified_extremes(A)
    cond = smax / smin if smin > 0 else math.inf
    return SpectralSummary(smin, smax, cond, residual)


def bvh_bound(sigma: float, sigma_star: float, n: int, eps: float) -> float:
    """Gaussian comparison bound (1+eps)(2 sigma + 6 sigma* sqrt(log n) / sqrt(log(1+eps))).

    sigma is the largest row norm of a variance mask b_ij and sigma* its
    largest entry magnitude.  Needs 0 <= sigma* <= sigma, n >= 1 and eps in
    (0, 1/2] (``harness`` checks it as norm-check's ``params.bvh_eps``).
    """
    star_term = 6.0 / math.sqrt(math.log1p(eps)) * sigma_star * math.sqrt(math.log(n))
    return (1.0 + eps) * (2.0 * sigma + star_term)


class NormBoundRow(NamedTuple):
    """One norm-check trial; the fields, in order, are the CSV columns."""

    trial: int
    norm: float
    norm_over_sqrt_pn: float
    omega_event: bool
    bvh_bound: float
    bvh_satisfied: bool


def _norm_bound_trial(master_seed: int, cbar: float, eps: float, params: EnsembleParams, t: int) -> NormBoundRow:
    n, p = params.n, params.p
    A = sample_matrix(params, trial_stream(master_seed, Purpose.MATRIX, n, p, t))
    norm = spectral_norm(A)
    # The 0/1 mask's profile: sigma = sqrt(max row count), row i counting its
    # stored (i, j) and, off the diagonal, its (j, i); sigma* = 1 unless A = 0.
    max_count = int((np.bincount(A.row, minlength=n) + np.bincount(A.col[A.col != A.row], minlength=n)).max())
    omega = max_count <= cbar * p * n
    # Gaussian comparison W on A's pattern: one normal per stored (i, j), i <= j,
    # in A's stored order; all of A's pattern, as views, unless standard_normal
    # returned an exact 0.0.
    g = trial_stream(master_seed, Purpose.NORM_CHECK_W, n, p, t).generator().standard_normal(A.nnz_upper)
    keep = slice(None) if g.all() else g != 0.0
    wnorm = spectral_norm(SparseSymmetricMatrix(n, A.row[keep], A.col[keep], g[keep]))
    bound = bvh_bound(math.sqrt(max_count), float(A.nnz_upper > 0), n, eps)
    return NormBoundRow(t, norm, norm / math.sqrt(p * n), omega, bound, wnorm <= bound)


def norm_bound_experiment(
    params: EnsembleParams,
    trials: int,
    master_seed: int,
    cbar: float,
    eps: float,
    workers: int = 1,
) -> tuple[list[NormBoundRow], dict]:
    """Per-trial spectral norms plus the Gaussian comparison check.

    Each trial samples one ensemble realization A, records |A|/sqrt(pn)
    and the row-sparsity event (max row mask count <= cbar * p * n), then
    reuses A's mask for a Gaussian matrix W and compares |W| against the
    comparison bound of the realized mask profile.  Returns the rows and
    the sidecar's summary, whose ``violation_fraction`` counts the trials
    with |A| > C_OP sqrt(pn).  Needs cbar > 0, eps in (0, 1/2], p >= 1/n
    and trials >= 1 (checked by ``harness``).
    """
    kernel = partial(_norm_bound_trial, master_seed, cbar, eps)
    rows = run_trials(kernel, [params], trials, workers)[0]
    return rows, {
        "n": params.n,
        "p": params.p,
        "mean_ratio": float(np.mean([r.norm_over_sqrt_pn for r in rows])),
        "violation_fraction": float(np.mean([r.norm_over_sqrt_pn > C_OP for r in rows])),
        "omega_fraction": float(np.mean([r.omega_event for r in rows])),
        "bvh_fraction": float(np.mean([r.bvh_satisfied for r in rows])),
    }
