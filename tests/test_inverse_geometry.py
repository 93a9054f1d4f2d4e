import math
import tracemalloc

import numpy as np
import pytest

from lemmas import distance_to_complement_span, inverse_image_experiment, quadratic_form_distance, sparse_of, stored_in_order
from ssrmlab import inverse_geometry, spectra, structure
from ssrmlab.ensemble import Purpose, RngStream, SparseSymmetricMatrix, sample_matrix, sample_sparse_vector, trial_stream
from ssrmlab.errors import NumericalError
from ssrmlab.inverse_geometry import (
    all_column_distances,
    invertibility_via_distance_experiment,
    quadratic_smallball_experiment,
)
from ssrmlab.model import EnsembleParams, EntryDistribution

RAD = EntryDistribution("rademacher")
GAUSS = EntryDistribution("standard-gaussian")
LAWS = [RAD, GAUSS, EntryDistribution("uniform-symmetric"), EntryDistribution("two-point-general", 0.2)]


def _null(A: SparseSymmetricMatrix) -> np.ndarray:
    """A's null block, as the distance-check trial gets it from spectra's certified extremes."""
    return spectra._certified_extremes(A, null=True).vectors[:, 2:]


class TestDistanceToComplementSpan:
    def test_identity(self):
        assert distance_to_complement_span(np.eye(3), 0) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert distance_to_complement_span(A, 0) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_area_formula(self):
        # Oracle: distance = |det| / |other column|.
        A = np.array([[0.0, 1.0], [1.0, 1.0]])
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        want = abs(det) / np.linalg.norm(A[:, 1])
        assert distance_to_complement_span(A, 0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_bounded_by_column_norm(self):
        for t in range(10):
            A = sample_matrix(EnsembleParams(15, 0.5, GAUSS), RngStream(40, t)).to_dense()
            j = t % 15
            assert distance_to_complement_span(A, j) <= np.linalg.norm(A[:, j]) + 1e-12

    def test_equals_column_norm_when_rest_zero(self):
        A = np.zeros((4, 4))
        A[0, 0] = 3.0
        assert distance_to_complement_span(A, 0) == pytest.approx(3.0, abs=1e-12)


class TestQuadraticFormDistance:
    def test_matches_two_by_two_closed_form(self):
        rec = quadratic_form_distance(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert not rec.b_singular
        assert rec.quadratic_form_distance == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert rec.geometric_distance == pytest.approx(rec.quadratic_form_distance, rel=1e-12)

    def test_identity(self):
        rec = quadratic_form_distance(np.eye(5))
        assert rec.quadratic_form_distance == pytest.approx(1.0, abs=1e-12)

    def test_singular_minor_flagged(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 1.0  # minor B = [[0,0],[0,0]] singular
        rec = quadratic_form_distance(dense)
        assert rec.b_singular
        assert rec.quadratic_form_distance is None

    def test_identity_against_projection(self):
        hits = 0
        for t in range(30):
            A = sample_matrix(EnsembleParams(20, 0.6, GAUSS), RngStream(41, t)).to_dense()
            rec = quadratic_form_distance(A)
            if rec.b_singular:
                continue
            hits += 1
            assert rec.quadratic_form_distance == pytest.approx(
                rec.geometric_distance, rel=1e-8
            )
        assert hits >= 25


class TestAllColumnDistances:
    def test_matches_projection_oracle(self):
        A = sample_matrix(EnsembleParams(12, 0.7, GAUSS), RngStream(42, 0))
        fast = all_column_distances(A, _null(A))
        slow = [distance_to_complement_span(A.to_dense(), j) for j in range(12)]
        assert np.allclose(fast, slow, rtol=1e-8, atol=1e-12)

    def test_singular_fallback(self):
        # The null block is e_1, e_2: columns 1 and 2 read exactly 0, and
        # column 0 reads 1 / |(A + N N^T)^-1 e_0| = 1.
        A = sparse_of(np.diag([1.0, 0.0, 0.0]))
        assert all_column_distances(A, _null(A)).tolist() == [1.0, 0.0, 0.0]


def _hand_built() -> dict:
    """Singular symmetric matrices by name, each with a known null space."""
    zero_row = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
    two_zero_rows = np.diag([0.0, 2.0, 0.0, -1.0])
    two_zero_rows[1, 3] = two_zero_rows[3, 1] = 1.0
    block = np.zeros((7, 7))
    block[:4, :4] = sample_matrix(EnsembleParams(4, 1.0, GAUSS), RngStream(47, 0)).to_dense()
    block[4:, 4:] = np.ones((3, 3))
    return {
        "ones": np.ones((4, 4)),
        "one-entry": np.diag([1.0, 0.0, 0.0]),  # TestAllColumnDistances.test_singular_fallback's
        "rank-one": np.array([[1.0, 1.0], [1.0, 1.0]]),
        "zero-row": zero_row,
        "two-zero-rows": two_zero_rows,
        "equal-rows": np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        "negated-rows": np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 3.0]]),
        "all-in-span": np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]),
        "block-diagonal": block,
        "zero": np.zeros((2, 2)),
    }


def _singular_draws(n: int, p: float, trials: int) -> list:
    """The singular realizations among the first ``trials`` at seed 5."""
    draws = [sample_matrix(EnsembleParams(n, p, RAD), trial_stream(5, Purpose.MATRIX, n, p, t)) for t in range(trials)]
    return [A.to_dense() for A in draws if spectra.smallest_singular_value(A) == 0.0]


@pytest.mark.parametrize(
    "matrices",
    [pytest.param([A], id=name) for name, A in _hand_built().items()]
    + [
        pytest.param(_singular_draws(8, 0.25, 1), id="singular-realization"),
        pytest.param(_singular_draws(60, math.log(60) / 60, 6), id="draws-log-n-over-n"),
        pytest.param(_singular_draws(60, 1.5 / 60, 6), id="draws-1.5-over-n"),
    ],
)
def test_singular_distances_match_scipy_qr(matrices):
    # The one rule against one pivoted QR per column (lemmas'
    # distance_to_complement_span): the same columns read 0, where the
    # reference is at the rounding level, and the others agree to 1e-12.
    assert matrices
    for A in matrices:
        n = A.shape[0]
        N = _null(sparse_of(A))
        assert N.shape[1] > 0
        assert np.abs(N.T @ N - np.eye(N.shape[1])).max() <= 1e-10
        norm = np.abs(np.linalg.eigvalsh(A)).max()
        assert np.linalg.norm(A @ N, axis=0).max() <= 1e-10 * norm * n
        want = np.array([distance_to_complement_span(A, j) for j in range(n)])
        got = all_column_distances(sparse_of(A), N)
        in_span = want <= 1e-12 * np.linalg.norm(A, axis=0).max()
        assert np.array_equal(got == 0.0, in_span)
        np.testing.assert_allclose(got[~in_span], want[~in_span], rtol=1e-12, atol=0)


class TestInverse:
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_column_norms_match_numpy(self, dist):
        A = sample_matrix(EnsembleParams(60, 0.3, dist), RngStream(44, 0)).to_dense()
        want = np.linalg.norm(np.linalg.inv(A), axis=0)
        got = np.linalg.norm(inverse_geometry._inverse(np.array(A, order="F")), axis=0)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_inverts_in_the_callers_buffer(self):
        A = sample_matrix(EnsembleParams(30, 0.4, GAUSS), RngStream(45, 0)).to_dense()
        buf = np.array(A, order="F")
        inv = inverse_geometry._inverse(buf)
        assert np.shares_memory(inv, buf)
        assert np.allclose(inv @ A, np.eye(30), atol=1e-10)

    def test_exactly_singular_pivot_raises(self):
        with pytest.raises(NumericalError, match="dgetrf"):
            inverse_geometry._inverse(np.array([[1.0, 1.0], [1.0, 1.0]], order="F"))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_all_column_distances_leaves_caller_array(self, order):
        A = stored_in_order(sample_matrix(EnsembleParams(30, 0.4, GAUSS), RngStream(46, 0)), order)
        before = [field.tobytes() for field in (A.row, A.col, A.val)]
        all_column_distances(A, _null(A))
        assert [field.tobytes() for field in (A.row, A.col, A.val)] == before


class TestInverseImageExperiment:
    def test_first_moment_identity_smoke(self):
        params = EnsembleParams(40, 0.5, RAD)
        rep = inverse_image_experiment(params, matrices=5, x_draws=200, master_seed=7)
        assert rep.identity_mean == pytest.approx(1.0, abs=0.25)


class TestInvertibilityViaDistance:
    def test_huge_eps_trivial(self):
        _, summary = invertibility_via_distance_experiment(
            EnsembleParams(20, 0.5, GAUSS), 1e3, 10, 0.1, 10, master_seed=2
        )
        assert summary["rhs_hat"] >= 1.0
        assert summary["holds_within_slack"]

    def test_moderate_config_holds(self):
        # n=100, eps=0.1, M=n/2: the distance side dominates with real margin.
        _, s = invertibility_via_distance_experiment(
            EnsembleParams(100, 0.5, RAD), 0.1, 50, 0.1, 2000, master_seed=3
        )
        assert s["holds_within_slack"]
        assert s["lhs_hat"] <= s["rhs_hat"] + s["rhs_halfwidth"] + (s["lhs_ci"][1] - s["lhs_hat"])

    def test_report_is_pure_function_of_seed(self):
        args = (EnsembleParams(24, 0.5, RAD), 0.2, 12, 0.1, 20)
        assert invertibility_via_distance_experiment(*args, master_seed=9) == (
            invertibility_via_distance_experiment(*args, master_seed=9)
        )
        assert invertibility_via_distance_experiment(*args, master_seed=9) != (
            invertibility_via_distance_experiment(*args, master_seed=10)
        )


def _curves(rows) -> tuple[list[float], list[float]]:
    """The p_hat_zero and p_hat_median columns of quadratic rows."""
    return [r.p_hat_zero for r in rows], [r.p_hat_median for r in rows]


class TestQuadraticSmallball:
    def test_eps_zero_null_event(self):
        rows, _ = quadratic_smallball_experiment(
            EnsembleParams(16, 1.0, GAUSS), (0.0, 0.1, 1.0), 40, master_seed=6
        )
        assert rows[0].p_hat_zero == 0.0

    def test_monotone_in_eps(self):
        rows, _ = quadratic_smallball_experiment(
            EnsembleParams(16, 0.8, GAUSS), (0.01, 0.1, 0.5, 1.0, 3.0), 60, master_seed=7
        )
        zero, median = _curves(rows)
        assert zero == sorted(zero)
        assert median == sorted(median)

    def test_slope_fitted_on_log_grid(self):
        # Desk-scale slope is reported descriptively; assert only that a
        # finite positive fit with a CI comes out of the stated grid.
        eps_grid = tuple(np.geomspace(0.01, 1.0, 8))
        _, summary = quadratic_smallball_experiment(
            EnsembleParams(100, 0.5, GAUSS), eps_grid, 5000, master_seed=8
        )
        assert summary["slope_zero"] is not None and summary["slope_median"] is not None
        for fit in (summary["slope_zero"], summary["slope_median"]):
            assert fit.slope > 0
            assert math.isfinite(fit.ci_halfwidth)

    def test_one_eps_value_no_fit(self):
        # Four positive points at one eps: no slope, and no error.
        rows, summary = quadratic_smallball_experiment(EnsembleParams(16, 0.8, GAUSS), (3.0,) * 4, 20, master_seed=7)
        zero, median = _curves(rows)
        assert min(zero) > 0 and min(median) > 0
        assert summary["slope_zero"] is None and summary["slope_median"] is None

    def test_trial_matches_lu_reference(self):
        # The reduction solve against the general LU solve (dgesv) on the
        # densified realization; at p = 0.03 about a third of the
        # realizations are singular.
        params = EnsembleParams(200, 0.03, RAD)
        kept = 0
        for t in range(30):
            got = inverse_geometry._quadratic_trial(11, params, t)
            A = sample_matrix(params, trial_stream(11, Purpose.MATRIX, 200, 0.03, t))
            smin, top = spectra._certified_extremes(A)[:2]
            assert (got is None) == (smin == 0.0)
            if got is None:
                continue
            X = sample_sparse_vector(params.n, params.p, params.dist, trial_stream(11, Purpose.QUADRATIC_X, 200, 0.03, t))
            _, _, y, info = spectra._flapack.dgesv(A.to_dense(), X)
            assert info == 0
            q, normalizer, event = got
            assert q == pytest.approx(float(y @ X), rel=1e-9)
            assert normalizer == pytest.approx(math.sqrt(1.0 + float(y @ y)), rel=1e-9)
            assert event == (top <= inverse_geometry.C_OP * math.sqrt(params.p * params.n))
            kept += 1
        assert 0 < kept < 30

    def test_counts_are_joint_with_the_norm_event(self, monkeypatch):
        # No nonzero matrix meets |A| <= 1e-9 sqrt(pn), so every count is 0.
        args = (EnsembleParams(16, 0.8, GAUSS), (0.1, 1.0, 10.0), 20)
        assert max(_curves(quadratic_smallball_experiment(*args, master_seed=7)[0])[0]) > 0
        monkeypatch.setattr(inverse_geometry, "C_OP", 1e-9)
        zero, median = _curves(quadratic_smallball_experiment(*args, master_seed=7)[0])
        assert zero == median == [0.0, 0.0, 0.0]


_PARAMS = EnsembleParams(16, 0.5, GAUSS)
_A = sample_matrix(_PARAMS, RngStream(31, 0))
_ONES = sparse_of(np.ones((4, 4)))

# Every public entry point, on inputs that reach its spectral checks.
_ENTRY_POINTS = {
    "all_column_distances": lambda: all_column_distances(_A, _null(_A)),
    "all_column_distances_singular": lambda: all_column_distances(_ONES, _null(_ONES)),
    "invertibility_via_distance_experiment": lambda: invertibility_via_distance_experiment(
        _PARAMS, 0.1, 4, 0.1, 3, master_seed=1
    ),
    "quadratic_smallball_experiment": lambda: quadratic_smallball_experiment(_PARAMS, (0.1, 1.0), 3, master_seed=1),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_runs_without_numpy_eigensolvers(monkeypatch, name):
    """Every eigenvalue comes from the spectra kernel, never from numpy's eigh/eigvalsh."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy eigensolver called")

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, refuse)
    _ENTRY_POINTS[name]()


def test_distance_experiment_reads_all_column_distances_once_per_trial(monkeypatch):
    calls = []
    real = inverse_geometry.all_column_distances
    # Each call gets the trial's sparse realization, not a dense copy of it.
    monkeypatch.setattr(inverse_geometry, "all_column_distances", lambda A, null: calls.append(A.n) or real(A, null))
    rows, _ = invertibility_via_distance_experiment(_PARAMS, 0.1, 4, 0.1, 5, master_seed=2)
    assert len(rows) == 5 and calls == [16] * 5


@pytest.mark.parametrize(
    "params,t,singular",
    [(_PARAMS, 0, False), (EnsembleParams(8, 0.25, RAD), 0, True)],
    ids=["invertible", "singular"],
)
def test_distance_trial_reduces_once(monkeypatch, params, t, singular):
    # One dsytrd per trial: all_column_distances takes the null block of the
    # certified extremes.  The singular realization (n=8, p=0.25,
    # seed 1, trial 0) has a smallest |eigenvalue| of 5.6e-18, which the
    # singular rule reports as exactly 0.
    calls = []
    real = spectra._tridiagonal
    monkeypatch.setattr(spectra, "_tridiagonal", lambda work: calls.append(work.shape) or real(work))
    row = inverse_geometry._distance_trial(1, 0.1, 2, 0.1, params, t)
    assert calls == [(params.n, params.n)]
    assert (row.s_min == 0.0) == singular


def test_distance_trial_peak():
    # The sparse realization goes to both kernels: one n x n buffer for the
    # certified extremes, then for all_column_distances the densified matrix,
    # updated by N N^T, inverted in place and its columns squared in place,
    # so no second n x n array.  The second realization (p = 0.01, trial 0)
    # has nullity 8.
    n = 400
    for p, singular in ((0.1, False), (0.01, True)):
        tracemalloc.start()
        try:
            row = inverse_geometry._distance_trial(1, 0.1, 40, 0.1, EnsembleParams(n, p, RAD), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (row.s_min == 0.0) == singular
        assert peak <= 1.5 * 8 * n * n


def test_quadratic_trial_peak():
    # One n x n buffer: spectra densifies the sparse realization into it,
    # reduces it and solves from the reduction; no dense copy or LU copy.
    n = 400
    tracemalloc.start()
    try:
        inverse_geometry._quadratic_trial(1, EnsembleParams(n, 0.1, RAD), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


@pytest.mark.parametrize("t", range(3))
def test_distance_trial_matches_dense_input(t):
    # The trial's realization, or the same matrix rebuilt from its dense
    # array: the same row bit for bit.
    params, seed, eps, M, rho = EnsembleParams(60, 0.2, RAD), 4, 0.3, 10, 0.1
    A = sparse_of(sample_matrix(params, trial_stream(seed, Purpose.MATRIX, 60, 0.2, t)).to_dense())
    smin, _, _, vectors, _ = inverse_geometry._certified_extremes(A, null=True)
    incomp = structure.sparse_tail_distance(vectors[:, 0], M) > rho
    rhs = float(np.sum(all_column_distances(A, vectors[:, 2:]) <= math.sqrt(params.p) * eps)) / M
    want = inverse_geometry.DistanceExperimentRow(t, smin, incomp, smin <= eps * math.sqrt(0.2 / 60) and incomp, rhs)
    assert inverse_geometry._distance_trial(seed, eps, M, rho, params, t) == want


@pytest.mark.parametrize("t", range(3))
def test_distance_trial_eigenvector_meets_certificate(monkeypatch, t):
    seen = []
    real = structure.sparse_tail_distance
    monkeypatch.setattr(structure, "sparse_tail_distance", lambda v, m: seen.append(v.copy()) or real(v, m))
    params = EnsembleParams(40, 0.3, RAD)
    row = inverse_geometry._distance_trial(9, 0.1, 10, 0.1, params, t)
    A = sample_matrix(params, trial_stream(9, Purpose.MATRIX, 40, 0.3, t)).to_dense()
    oracle = np.abs(np.linalg.eigvalsh(A))
    (v,) = seen
    lam = float(v @ A @ v)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(A @ v - lam * v) <= 1e-10 * oracle.max() * A.shape[0]
    assert abs(lam) == pytest.approx(row.s_min, abs=1e-12 * oracle.max())
    assert row.s_min == pytest.approx(oracle.min(), abs=1e-12 * oracle.max())
