"""The lemma checks of acceptance criteria 1, 4, 6, 10 and 11, and the
column-distance reference.

No CLI kind or benchmark runs them: each is one pass/fail check on an
identity or inequality of the paper's argument, not a table that a grid
sweeps.  They are built from ssrmlab's public functions and numpy, take
their arguments unchecked (only tests call them), and return named
tuples.  A singular verdict is the package's one rule,
``smallest_singular_value(A) == 0.0``.  ``sparse_of`` gives a test's
symmetric array the one matrix type that spectra takes.
``distance_to_complement_span``,
one pivoted QR (``scipy.linalg.qr``) per column, is criterion 1's
geometric side and the reference that ``all_column_distances`` is tested
against.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from ssrmlab.ensemble import Purpose, SparseSymmetricMatrix, sample_entries, sample_matrix, sample_sparse_vector, trial_stream
from ssrmlab.smallball import ConcentrationEstimate, levy_concentration_scalar
from ssrmlab.spectra import smallest_singular_value
from ssrmlab.structure import lcd, spread_set


def sparse_of(dense) -> SparseSymmetricMatrix:
    """The matrix of an exactly symmetric array: its upper triangle's nonzeros, row by row."""
    dense = np.asarray(dense, dtype=np.float64)
    assert dense.ndim == 2 and np.array_equal(dense, dense.T), "not an exactly symmetric matrix"
    row, col = np.nonzero(np.triu(dense))
    return SparseSymmetricMatrix(dense.shape[0], row, col, dense[row, col])


def stored_in_order(A: SparseSymmetricMatrix, order: str, scale: float = 1.0) -> SparseSymmetricMatrix:
    """``scale * A`` in new arrays, its entries stored row by row ("C") or column by column ("F")."""
    perm = np.lexsort((A.col, A.row)) if order == "C" else np.lexsort((A.row, A.col))
    return SparseSymmetricMatrix(A.n, A.row[perm], A.col[perm], scale * A.val[perm])


def distance_to_complement_span(A, j: int) -> float:
    """Euclidean distance from column j to the span of the other columns.

    Rank-revealing QR of the n x (n-1) block (``scipy.linalg.qr``, economic,
    with pivoting); the projection uses only the columns whose |R_ii| exceed
    n eps |R_00|, so rank-deficient spans are handled without error.
    """
    import scipy.linalg  # the reference only; ssrmlab never loads the package

    A = np.asarray(A, dtype=np.float64)
    n, col = A.shape[0], A[:, j]
    Q, R, _ = scipy.linalg.qr(np.delete(A, j, axis=1), mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * n * np.finfo(np.float64).eps)) if diag[0] > 0 else 0
    return float(np.linalg.norm(col - Q[:, :rank] @ (Q[:, :rank].T @ col)))


class DistanceRecord(NamedTuple):
    geometric_distance: float
    quadratic_form_distance: float | None
    b_singular: bool


def quadratic_form_distance(A) -> DistanceRecord:
    """dist(A_1, H_1) through the quadratic-form identity, for column 0.

    With B the trailing minor and X the first column below the diagonal,
    the distance equals |<B^-1 X, X> - a_11| / sqrt(1 + |B^-1 X|^2).  A
    singular minor is flagged, with no quadratic-form value.
    """
    A = np.asarray(A, dtype=np.float64)
    geometric = distance_to_complement_span(A, 0)
    B, X = A[1:, 1:], A[1:, 0]
    if smallest_singular_value(sparse_of(B)) == 0.0:
        return DistanceRecord(geometric, None, True)
    y = np.linalg.solve(B, X)
    return DistanceRecord(geometric, abs(float(y @ X) - float(A[0, 0])) / math.sqrt(1.0 + float(y @ y)), False)


class RegularizedLcdResult(NamedTuple):
    lower_bound: float
    witness_subset: tuple[int, ...]
    exact: bool


def regularized_lcd(x, consts, lam: float, budget: int, stream) -> RegularizedLcdResult:
    """max D_1(x_I / |x_I|) over subsets I of spread(x) with |I| = ceil(lam n),
    each D_1 from ``lcd`` at scale L = 1 and its default cap.

    Exact (full enumeration) when the subset count fits in ``budget`` and
    no subset's scan is capped; otherwise the best of ``budget`` uniformly
    sampled subsets, a certified lower bound.  Sampling draws one subset
    at a time from ``stream``, so a larger budget extends a smaller one's
    candidate list.  x must be incompressible (spread set defined), with
    0 < lam < c_oo.
    """
    spread = spread_set(x, consts)
    k = math.ceil(lam * x.size)
    enumerated = math.comb(spread.size, k) <= budget
    if enumerated:
        subsets = itertools.combinations(spread.tolist(), k)
    else:
        rng = stream.generator()
        subsets = (np.sort(spread[rng.choice(spread.size, size=k, replace=False)]) for _ in range(budget))
    best, witness, capped = -math.inf, None, False
    for subset in subsets:
        sub = x[list(subset)]
        res = lcd(sub / np.linalg.norm(sub), 1.0)
        capped |= res.capped
        if res.value > best:
            best, witness = res.value, tuple(int(i) for i in subset)
    return RegularizedLcdResult(best, witness, enumerated and not capped)


class InverseImageReport(NamedTuple):
    excluded_singular: int
    identity_mean: float


def inverse_image_experiment(params, matrices: int, x_draws: int, master_seed: int) -> InverseImageReport:
    """The first-moment identity of the inverse image.

    identity_mean averages |A^-1 X|^2 / (p |A^-1|_HS^2) over ``x_draws``
    fresh X for each nonsingular one of ``matrices`` matrices; its
    population value is exactly 1.  Matrix t is trial t's ``Purpose.MATRIX``
    draw and its k-th X the ``Purpose.QUADRATIC_X`` draw of trial
    t * x_draws + k.
    """
    ratios, excluded = [], 0
    for t in range(matrices):
        A = sample_matrix(params, trial_stream(master_seed, Purpose.MATRIX, params.n, params.p, t))
        if smallest_singular_value(A) == 0.0:
            excluded += 1
            continue
        inv = np.linalg.inv(A.to_dense())
        streams = [trial_stream(master_seed, Purpose.QUADRATIC_X, params.n, params.p, t * x_draws + k) for k in range(x_draws)]
        Xs = np.column_stack([sample_sparse_vector(params.n, params.p, params.dist, s) for s in streams])
        ratios.append(np.linalg.norm(inv @ Xs, axis=0) ** 2 / (params.p * np.linalg.norm(inv) ** 2))
    return InverseImageReport(excluded, float(np.mean(np.concatenate(ratios))))


def row_witness_sets(A, J, Jp, s, c1: float) -> tuple[set[int], set[int]]:
    """Witness row sets for the sparse-vector lower-bound argument.

    I1: rows outside J u J' whose restriction to the J columns has exactly
    one nonzero entry, and that entry has magnitude >= c1 with the sign
    ``s`` prescribes for its column (``s`` aligned with J).  I0: rows
    outside J u J' with all J' columns zero.
    """
    dense = A.to_dense()
    rows = np.setdiff1d(np.arange(A.n), [*J, *Jp])
    sub = dense[np.ix_(rows, J)]
    good = (np.abs(sub) >= c1) & (np.sign(sub) == np.asarray(s))
    i1 = rows[((sub != 0.0).sum(axis=1) == 1) & good.any(axis=1)]
    i0 = rows[~dense[np.ix_(rows, Jp)].any(axis=1)]
    return set(i1.tolist()), set(i0.tolist())


class DecouplingCheck(NamedTuple):
    lhs: ConcentrationEstimate
    rhs: ConcentrationEstimate
    holds: bool


def decoupling_consequence_check(G, J, dist, eps: float, trials: int, stream) -> DecouplingCheck:
    """Monte Carlo check of the decoupling consequence
    L(<GX, X>, eps)^2 <= L(<G P_Jc (X - X'), P_J X>, eps) + slack,
    for symmetric G and a proper nonempty J.

    The right-hand side takes the supremum over centers, which dominates
    the existential shift in the underlying inequality; slack is the sum
    of the two CI halfwidths.  X, then X2 and X2', are drawn in that order
    from ``stream``.
    """
    n = len(G)
    rng = stream.generator()
    X = sample_entries(dist, rng, (trials, n))
    lhs = levy_concentration_scalar(np.einsum("ti,ij,tj->t", X, G, X), eps)
    in_j = np.isin(np.arange(n), J)
    X2 = sample_entries(dist, rng, (trials, n))
    X2p = sample_entries(dist, rng, (trials, n))
    rhs = levy_concentration_scalar(np.einsum("ti,ij,tj->t", (X2 - X2p) * ~in_j, G, X2 * in_j), eps)
    return DecouplingCheck(lhs, rhs, lhs.value**2 <= rhs.value + lhs.ci_halfwidth + rhs.ci_halfwidth)
