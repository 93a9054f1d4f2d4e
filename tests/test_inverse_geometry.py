import math

import numpy as np
import pytest

from ssrmlab import inverse_geometry
from ssrmlab.ensemble import EnsembleParams, EntryDistribution, RngStream, sample_matrix, trial_stream
from ssrmlab.errors import ParameterError
from ssrmlab.inverse_geometry import (
    all_column_distances,
    distance_to_complement_span,
    inverse_image_experiment,
    inverse_image_stats,
    invertibility_via_distance_experiment,
    quadratic_form_distance,
    quadratic_smallball_experiment,
    structure_theorem_experiment,
)
from ssrmlab.structure import StructureConstants

RAD = EntryDistribution.rademacher()
GAUSS = EntryDistribution.standard_gaussian()


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
        A = sample_matrix(EnsembleParams(12, 0.7, GAUSS), RngStream(42, 0)).to_dense()
        fast = all_column_distances(A)
        slow = [distance_to_complement_span(A, j) for j in range(12)]
        assert np.allclose(fast, slow, rtol=1e-8, atol=1e-12)

    def test_singular_fallback(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        dists = all_column_distances(A)
        assert dists[0] == pytest.approx(1.0, abs=1e-12)
        assert dists[1] == pytest.approx(0.0, abs=1e-12)


class TestInverseImageStats:
    def test_identity_basis_vector(self):
        e1 = np.zeros(7)
        e1[0] = 1.0
        stats = inverse_image_stats(np.eye(7), e1)
        assert stats.inv_hs_norm == pytest.approx(math.sqrt(7), rel=1e-12)
        assert stats.inv_image_norm == pytest.approx(1.0, rel=1e-12)

    def test_scaling(self):
        e1 = np.zeros(7)
        e1[0] = 1.0
        base = inverse_image_stats(np.eye(7), e1)
        doubled = inverse_image_stats(2.0 * np.eye(7), e1)
        assert doubled.inv_hs_norm == pytest.approx(base.inv_hs_norm / 2, rel=1e-12)
        assert doubled.inv_image_norm == pytest.approx(base.inv_image_norm / 2, rel=1e-12)

    def test_singular_flagged(self):
        stats = inverse_image_stats(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
        assert stats.singular
        assert math.isnan(stats.inv_hs_norm)

    def test_ratio_uses_p(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        stats = inverse_image_stats(np.eye(4), e1, p=0.25)
        assert stats.ratio == pytest.approx(1.0 / (0.5 * 2.0), rel=1e-12)


class TestInverseImageExperiment:
    def test_first_moment_identity_smoke(self):
        params = EnsembleParams(40, 0.5, RAD)
        rep = inverse_image_experiment(params, eps=0.1, matrices=5, x_draws=200, master_seed=7)
        assert rep.identity_mean == pytest.approx(1.0, abs=0.25)

    def test_markov_frequency(self):
        params = EnsembleParams(40, 0.5, RAD)
        rep = inverse_image_experiment(params, eps=0.2, matrices=5, x_draws=200, master_seed=8)
        assert rep.freq_markov_upper >= 1 - 0.2 - 0.05


class TestInvertibilityViaDistance:
    def test_zero_trials_empty(self):
        rep = invertibility_via_distance_experiment(
            EnsembleParams(20, 0.5, RAD), 0.1, 10, 0.1, 0, master_seed=1
        )
        assert rep.rows == ()

    def test_huge_eps_trivial(self):
        rep = invertibility_via_distance_experiment(
            EnsembleParams(20, 0.5, GAUSS), 1e3, 10, 0.1, 10, master_seed=2
        )
        assert rep.rhs_hat >= 1.0
        assert rep.holds_within_slack

    def test_moderate_config_holds(self):
        # n=100, eps=0.1, M=n/2: the distance side dominates with real margin.
        rep = invertibility_via_distance_experiment(
            EnsembleParams(100, 0.5, RAD), 0.1, 50, 0.1, 2000, master_seed=3
        )
        assert rep.holds_within_slack
        assert rep.lhs_hat <= rep.rhs_hat + rep.rhs_halfwidth + (rep.lhs_ci[1] - rep.lhs_hat)

    def test_m_validated(self):
        with pytest.raises(ParameterError):
            invertibility_via_distance_experiment(
                EnsembleParams(20, 0.5, RAD), 0.1, 20, 0.1, 1, master_seed=0
            )

    def test_report_is_pure_function_of_seed(self):
        args = (EnsembleParams(24, 0.5, RAD), 0.2, 12, 0.1, 20)
        assert invertibility_via_distance_experiment(*args, master_seed=9) == (
            invertibility_via_distance_experiment(*args, master_seed=9)
        )
        assert invertibility_via_distance_experiment(*args, master_seed=9) != (
            invertibility_via_distance_experiment(*args, master_seed=10)
        )


class TestStructureTheoremExperiment:
    def test_zero_u_rejected(self):
        with pytest.raises(ParameterError):
            structure_theorem_experiment(
                EnsembleParams(16, 1.0, GAUSS), np.zeros(16), StructureConstants(), 10, 5
            )

    def test_sparsity_precondition(self):
        consts = StructureConstants()
        with pytest.raises(ParameterError):
            structure_theorem_experiment(
                EnsembleParams(64, 0.05, GAUSS), np.eye(64)[0], consts, 10, 5
            )

    def test_dense_gaussian_incompressible(self):
        # Dense Wigner inverses are delocalized, so A^-1 e_1 is incompressible
        # at the default constants in essentially every trial.
        consts = StructureConstants()
        u = np.zeros(64)
        u[0] = 1.0
        rep = structure_theorem_experiment(
            EnsembleParams(64, 1.0, GAUSS), u, consts, budget=10, trials=100, master_seed=4
        )
        assert rep.incompressible_fraction >= 0.95
        assert rep.excluded_singular == 0

    def test_survival_curve_monotone(self):
        consts = StructureConstants()
        u = np.zeros(32)
        u[0] = 1.0
        rep = structure_theorem_experiment(
            EnsembleParams(32, 1.0, GAUSS), u, consts, budget=10, trials=20, master_seed=5
        )
        fracs = list(rep.survival_fractions)
        assert fracs == sorted(fracs, reverse=True)


class TestQuadraticSmallball:
    def test_eps_zero_null_event(self):
        rep = quadratic_smallball_experiment(
            EnsembleParams(16, 1.0, GAUSS), (0.0, 0.1, 1.0), 40, master_seed=6
        )
        assert rep.p_hat_zero[0] == 0.0

    def test_monotone_in_eps(self):
        rep = quadratic_smallball_experiment(
            EnsembleParams(16, 0.8, GAUSS), (0.01, 0.1, 0.5, 1.0, 3.0), 60, master_seed=7
        )
        assert list(rep.p_hat_zero) == sorted(rep.p_hat_zero)
        assert list(rep.p_hat_median) == sorted(rep.p_hat_median)

    def test_slope_fitted_on_log_grid(self):
        # Desk-scale slope is reported descriptively; assert only that a
        # finite positive fit with a CI comes out of the stated grid.
        eps_grid = tuple(np.geomspace(0.01, 1.0, 8))
        rep = quadratic_smallball_experiment(
            EnsembleParams(100, 0.5, GAUSS), eps_grid, 5000, master_seed=8
        )
        assert rep.slope_zero is not None and rep.slope_median is not None
        for fit in (rep.slope_zero, rep.slope_median):
            assert fit.slope > 0
            assert math.isfinite(fit.ci_halfwidth)

    def test_grid_must_be_sorted(self):
        with pytest.raises(ParameterError):
            quadratic_smallball_experiment(EnsembleParams(16, 1.0, GAUSS), (0.5, 0.1), 5)


_PARAMS = EnsembleParams(16, 0.5, GAUSS)
_A = sample_matrix(_PARAMS, RngStream(31, 0)).to_dense()

# Every public entry point, on inputs that reach its spectral checks.
_ENTRY_POINTS = {
    "distance_to_complement_span": lambda: distance_to_complement_span(_A, 3),
    "quadratic_form_distance": lambda: quadratic_form_distance(_A),
    "quadratic_form_distance_singular": lambda: quadratic_form_distance(np.ones((4, 4))),
    "all_column_distances": lambda: all_column_distances(_A),
    "all_column_distances_singular": lambda: all_column_distances(np.ones((4, 4))),
    "inverse_image_stats": lambda: inverse_image_stats(_A, np.ones(16)),
    "inverse_image_experiment": lambda: inverse_image_experiment(_PARAMS, 0.5, 3, 2, master_seed=1),
    "invertibility_via_distance_experiment": lambda: invertibility_via_distance_experiment(
        _PARAMS, 0.1, 4, 0.1, 3, master_seed=1
    ),
    "structure_theorem_experiment": lambda: structure_theorem_experiment(
        EnsembleParams(16, 1.0, GAUSS), np.eye(16)[0], StructureConstants(), 10, 3, master_seed=1
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
    monkeypatch.setattr(inverse_geometry, "all_column_distances", lambda A: calls.append(A.shape) or real(A))
    rep = invertibility_via_distance_experiment(_PARAMS, 0.1, 4, 0.1, 5, master_seed=2)
    assert len(rep.rows) == 5 and calls == [(16, 16)] * 5


@pytest.mark.parametrize("t", range(3))
def test_distance_trial_eigenvector_meets_certificate(monkeypatch, t):
    seen = []
    real = inverse_geometry.sparse_tail_distance
    monkeypatch.setattr(inverse_geometry, "sparse_tail_distance", lambda v, m: seen.append(v.copy()) or real(v, m))
    params = EnsembleParams(40, 0.3, RAD)
    row = inverse_geometry._distance_trial(9, 0.1, 10, 0.1, params, 0, t)
    A = sample_matrix(params, trial_stream(9, 0, t)).to_dense()
    oracle = np.abs(np.linalg.eigvalsh(A))
    (v,) = seen
    lam = float(v @ A @ v)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(A @ v - lam * v) <= 1e-10 * oracle.max() * A.shape[0]
    assert abs(lam) == pytest.approx(row.s_min, abs=1e-12 * oracle.max())
    assert row.s_min == pytest.approx(oracle.min(), abs=1e-12 * oracle.max())
