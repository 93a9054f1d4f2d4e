import math

import numpy as np
import pytest

from ssrmlab import spectra
from ssrmlab.ensemble import EnsembleParams, EntryDistribution, RngStream, sample_matrix, trial_stream
from ssrmlab.errors import CapabilityError, NumericalError, ParameterError
from ssrmlab.spectra import (
    MaskProfile,
    bvh_bound,
    full_symmetric_spectrum,
    is_singular,
    norm_bound_experiment,
    operator_norm_event,
    smallest_singular_value,
    spectral_norm,
    spectral_summary,
)

RAD = EntryDistribution.rademacher()
GAUSS = EntryDistribution.standard_gaussian()


def _charpoly_roots(A):
    """Independent oracle: Faddeev-LeVerrier coefficients + companion roots."""
    n = A.shape[0]
    M = np.eye(n)
    coeffs = [1.0]
    for k in range(1, n + 1):
        AM = A @ M
        ck = -np.trace(AM) / k
        coeffs.append(ck)
        M = AM + ck * np.eye(n)
    return np.sort(np.roots(coeffs).real)


class TestFullSymmetricSpectrum:
    def test_identity(self):
        assert np.allclose(full_symmetric_spectrum(np.eye(3)), [1, 1, 1], atol=1e-14)

    def test_exchange_matrix(self):
        ev = full_symmetric_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(ev, [-1.0, 1.0], atol=1e-14)

    def test_matches_charpoly_oracle(self):
        for t in range(5):
            A = sample_matrix(EnsembleParams(8, 0.6, GAUSS), RngStream(100, t)).to_dense()
            assert np.allclose(full_symmetric_spectrum(A), _charpoly_roots(A), atol=1e-8)

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            full_symmetric_spectrum(np.eye(5), cap=4)

    def test_non_finite_rejected(self):
        A = np.eye(3)
        A[0, 1] = A[1, 0] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            full_symmetric_spectrum(A)

    def test_sorted_ascending(self):
        A = sample_matrix(EnsembleParams(20, 0.5, RAD), RngStream(1, 1))
        ev = full_symmetric_spectrum(A)
        assert np.all(np.diff(ev) >= 0)

    @pytest.mark.parametrize("n", [1, 2, 50, 300])
    def test_matches_eigvalsh(self, n):
        A = sample_matrix(EnsembleParams(max(n, 2), 0.5, GAUSS), RngStream(110, n)).to_dense()[:n, :n]
        ref = np.linalg.eigvalsh(A)
        ev = full_symmetric_spectrum(A)
        assert ev.dtype == np.float64 and ev.shape == (n,)
        assert np.abs(ev - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "A,expected",
        [
            (np.zeros((6, 6)), np.zeros(6)),
            (np.eye(40), np.ones(40)),
            (np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]), np.array([0.0, 0.0, 9.0])),
        ],
        ids=["zero", "identity", "rank-one"],
    )
    def test_structured_matrices(self, A, expected):
        assert np.allclose(full_symmetric_spectrum(A), expected, rtol=0, atol=1e-13 * max(1.0, expected.max()))

    @pytest.mark.parametrize("which", ["smallest", "largest"])
    def test_certificate_rejects_shifted_eigenvalue(self, monkeypatch, which):
        # The certificate is live: moving one certified value by 1e-6 |A|
        # while its eigenvector stays put must break the residual bound.
        real_dsterf = spectra.dsterf

        def shifted(d, e):
            evals, info = real_dsterf(d, e)
            norm = np.abs(evals).max()
            k = np.argmin(np.abs(evals)) if which == "smallest" else np.argmax(np.abs(evals))
            evals[k] += 1e-6 * norm
            return evals, info

        A = sample_matrix(EnsembleParams(60, 0.5, GAUSS), RngStream(111, 0))
        full_symmetric_spectrum(A)
        monkeypatch.setattr(spectra, "dsterf", shifted)
        with pytest.raises(NumericalError, match="residual"):
            full_symmetric_spectrum(A)


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_singular_value(np.eye(4)) == pytest.approx(1.0, rel=1e-12)

    def test_rank_one(self):
        assert smallest_singular_value(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0

    def test_golden_ratio_case(self):
        # Eigenvalues of [[0,1],[1,1]] are (1 +- sqrt(5)) / 2.
        expected = (math.sqrt(5) - 1) / 2
        got = smallest_singular_value(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_dense_oracle(self):
        for t in range(25):
            n = 8 + (t * 7) % 57
            A = sample_matrix(EnsembleParams(n, 0.6, GAUSS), RngStream(200, t)).to_dense()
            oracle = float(np.abs(full_symmetric_spectrum(A)).min())
            got = smallest_singular_value(A, tol=1e-12)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_scaling_equivariance(self):
        A = sample_matrix(EnsembleParams(16, 0.7, GAUSS), RngStream(201, 0)).to_dense()
        s = smallest_singular_value(A)
        for c in (-2.0, 0.5):
            assert smallest_singular_value(c * A) == pytest.approx(abs(c) * s, rel=1e-12)

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            smallest_singular_value(np.eye(2), tol=0.0)

    @pytest.mark.parametrize(
        "A",
        [np.zeros((5, 5)), np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]), 1e-200 * np.ones((3, 3))],
        ids=["zero", "rank-one", "scaled-rank-one"],
    )
    def test_singular_inputs_return_zero(self, A):
        assert smallest_singular_value(A) == 0.0

    @pytest.mark.parametrize("factor,singular", [(0.5, True), (2.0, False)])
    def test_is_singular_floor(self, factor, singular):
        # Eigenvalues (-3, factor * floor, 7): only the value below the
        # floor 1e3 eps |A| is reported as 0.
        floor = 1e3 * np.finfo(np.float64).eps * 7.0
        Q, _ = np.linalg.qr(np.random.default_rng(202).standard_normal((3, 3)))
        A = (Q * [-3.0, factor * floor, 7.0]) @ Q.T
        A = 0.5 * (A + A.T)
        got = smallest_singular_value(A)
        if singular:
            assert got == 0.0
        else:
            assert got == pytest.approx(factor * floor, rel=1e-3)


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_rank_one_all_ones(self):
        assert spectral_norm(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(2.0, rel=1e-9)

    def test_wigner_edge(self):
        # Semicircle edge: |A| / sqrt(n) near 2 for dense rademacher.
        ratios = []
        for t in range(20):
            A = sample_matrix(EnsembleParams(400, 1.0, RAD), RngStream(300, t))
            ratios.append(spectral_norm(A, tol=1e-6) / math.sqrt(400))
        assert 1.9 <= np.mean(ratios) <= 2.2

    def test_dominates_entries(self):
        A = sample_matrix(EnsembleParams(30, 0.5, GAUSS), RngStream(301, 0))
        dense = A.to_dense()
        nrm = spectral_norm(dense, tol=1e-10)
        assert nrm >= np.abs(np.diag(dense)).max() - 1e-9
        assert nrm >= np.abs(dense).max() - 1e-9

    def test_agrees_with_dense_oracle(self):
        for t in range(10):
            A = sample_matrix(EnsembleParams(32, 0.5, GAUSS), RngStream(302, t)).to_dense()
            oracle = float(np.abs(full_symmetric_spectrum(A)).max())
            assert spectral_norm(A, tol=1e-10) == pytest.approx(oracle, rel=1e-8)

    def test_meets_tol_on_norm_check_matrix(self):
        # norm-check, seed 1, cell 0, trial 2 (n=500, p=0.1, rademacher).
        # A power iteration on A^2 stopped 3.2e-6 short of |A| here, past
        # the 1.4e-6 that tol=1e-7 allows.
        A = sample_matrix(EnsembleParams(500, 0.1, RAD), trial_stream(1, 0, 2)).to_dense()
        ref = float(np.abs(np.linalg.eigvalsh(A)).max())
        tol = 1e-7
        assert abs(spectral_norm(A, tol=tol) - ref) <= tol * max(1.0, ref)

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            spectral_norm(np.eye(2), tol=-1.0)


class TestOperatorNormEvent:
    def test_zero_matrix_true(self):
        params = EnsembleParams(4, 0.5, RAD, c_op=0.01)
        assert operator_norm_event(np.zeros((4, 4)), params)

    def test_identity_violates_small_cop(self):
        params = EnsembleParams(4, 1.0, RAD, c_op=0.4)
        assert not operator_norm_event(np.eye(4), params)  # 1 > 0.4 * 2

    def test_holds_at_cop_three(self):
        params = EnsembleParams(400, 0.5, RAD, c_op=3.0)
        hits = sum(
            operator_norm_event(sample_matrix(params, RngStream(303, t)), params, tol=1e-6)
            for t in range(30)
        )
        assert hits >= 29


class TestBvhBound:
    def test_second_term_vanishes(self):
        assert bvh_bound(MaskProfile(1.0, 0.0), 100, 0.5) == pytest.approx(3.0, abs=1e-12)

    def test_zero_profile(self):
        assert bvh_bound(MaskProfile(0.0, 0.0), 100, 0.25) == 0.0

    def test_plug_in_arithmetic(self):
        # log(1+eps) = 0.25, n = e: (1+eps) * (2*2 + (6/0.5)*1*1) = 16 (1+eps).
        eps = math.exp(0.25) - 1.0
        n_e = 3  # closest integer; evaluate exactly via formula instead
        got = bvh_bound(MaskProfile(2.0, 1.0), n_e, eps)
        expected = (1 + eps) * (4.0 + (6.0 / 0.5) * math.sqrt(math.log(n_e)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_all_arguments(self):
        base = bvh_bound(MaskProfile(1.0, 0.5), 50, 0.3)
        assert bvh_bound(MaskProfile(2.0, 0.5), 50, 0.3) >= base
        assert bvh_bound(MaskProfile(1.0, 0.9), 50, 0.3) >= base
        assert bvh_bound(MaskProfile(1.0, 0.5), 500, 0.3) >= base

    def test_eps_range(self):
        with pytest.raises(ParameterError):
            bvh_bound(MaskProfile(1.0, 0.0), 10, 0.0)
        with pytest.raises(ParameterError):
            bvh_bound(MaskProfile(1.0, 0.0), 10, 0.6)

    def test_profile_validation(self):
        with pytest.raises(ParameterError):
            MaskProfile(1.0, 2.0)


class TestNormBoundExperiment:
    def test_empty(self):
        report = norm_bound_experiment(EnsembleParams(50, 0.5, RAD), 0, master_seed=1)
        assert report.rows == ()

    def test_omega_event_fraction(self):
        report = norm_bound_experiment(EnsembleParams(400, 0.5, RAD), 50, master_seed=2)
        assert len(report.rows) == 50
        assert report.omega_fraction >= 0.98
        assert 1.5 <= report.mean_ratio <= 3.0
        assert report.violation_fraction <= 0.1

    def test_omega_event_nonvacuous_sparsity(self):
        # At p=0.2 the row-count threshold 2pn = 160 < n, so the event is
        # a real constraint; binomial rows at mean 80 still clear it.
        report = norm_bound_experiment(EnsembleParams(400, 0.2, RAD), 15, master_seed=4)
        assert report.omega_fraction == 1.0

    def test_gaussian_comparison_bound_holds(self):
        report = norm_bound_experiment(EnsembleParams(200, 0.5, GAUSS), 10, master_seed=3)
        assert report.bvh_fraction >= 0.9


class TestIsSingular:
    @pytest.mark.parametrize("smax", [1e-3, 1.0, 1e6])
    def test_floor_is_1e3_eps_relative(self, smax):
        floor = 1e3 * np.finfo(np.float64).eps * smax
        assert is_singular(0.0, smax)
        assert is_singular(0.99 * floor, smax)
        assert not is_singular(1.01 * floor, smax)

    def test_zero_matrix_is_singular(self):
        assert is_singular(0.0, 0.0)


class TestSpectralSummary:
    def test_dense_path(self):
        s = spectral_summary(np.eye(3))
        assert s.method == "dense-oracle"
        assert s.s_min == 1.0 and s.s_max == 1.0 and s.condition_number == 1.0

    def test_singular_condition_number(self):
        s = spectral_summary(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert s.s_min == 0.0
        assert math.isinf(s.condition_number)

    def test_iterative_path_above_cap(self):
        A = sample_matrix(EnsembleParams(24, 0.6, GAUSS), RngStream(305, 0)).to_dense()
        dense = spectral_summary(A)
        iterative = spectral_summary(A, cap=8)
        assert iterative.method == "iterative"
        assert iterative.s_min == pytest.approx(dense.s_min, rel=1e-7)
        assert iterative.s_max == pytest.approx(dense.s_max, rel=1e-7)
        assert iterative.residual == 1e-10 * max(1.0, iterative.s_max)

    def test_dense_residual_is_measured(self, monkeypatch):
        # Shift the smallest-magnitude eigenvalue by delta, far above the
        # rounding noise and inside the certificate's bound: the reported
        # residual must be ||Av - lambda v|| / ||v|| for the shifted lambda.
        A = sample_matrix(EnsembleParams(40, 0.5, GAUSS), RngStream(306, 0)).to_dense()
        evals, vecs = np.linalg.eigh(A)
        k = int(np.argmin(np.abs(evals)))
        delta = 1e-9 * np.abs(evals).max()
        real_dsterf = spectra.dsterf

        def shifted(d, e):
            w, info = real_dsterf(d, e)
            w[np.argmin(np.abs(w))] += delta
            return w, info

        monkeypatch.setattr(spectra, "dsterf", shifted)
        summary = spectral_summary(A)
        v = vecs[:, k]
        lam = evals[k] + delta
        expected = np.linalg.norm(A @ v - lam * v) / np.linalg.norm(v)
        assert summary.s_min == pytest.approx(abs(lam), rel=1e-9)
        assert summary.residual == pytest.approx(expected, rel=1e-3)

    def test_iterative_route_reduces_once(self, monkeypatch):
        calls = []
        real = spectra._tridiagonal
        monkeypatch.setattr(spectra, "_tridiagonal", lambda dense: calls.append(dense.shape) or real(dense))
        A = sample_matrix(EnsembleParams(24, 0.6, GAUSS), RngStream(305, 0)).to_dense()
        assert spectral_summary(A, cap=8).method == "iterative"
        assert calls == [(24, 24)]

    @pytest.mark.parametrize("cap", [spectra.DENSE_CAP, 2])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bad_tol_rejected_on_both_routes(self, cap, tol):
        with pytest.raises(ParameterError, match="tol"):
            spectral_summary(np.eye(4), tol=tol, cap=cap)


def _rotated_diagonal(values, seed):
    """Q diag(values) Q^T for a random orthogonal Q, exactly symmetric."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values), len(values))))
    A = (Q * np.asarray(values, dtype=np.float64)) @ Q.T
    return (A + A.T) / 2


class TestExtremeSingularValues:
    """The one extreme-value route, against numpy's eigvalsh as an independent oracle."""

    @staticmethod
    def _check(A):
        mags = np.abs(np.linalg.eigvalsh(A))
        smin, smax = float(mags.min()), float(mags.max())
        want = (0.0 if is_singular(smin, smax) else smin, smax)
        got = spectra._extreme_singular_values(A)
        scale = max(smax, np.finfo(np.float64).tiny)
        assert abs(got[0] - want[0]) <= 1e-12 * scale and abs(got[1] - want[1]) <= 1e-12 * scale
        assert (got[0] == 0.0) == (want[0] == 0.0)
        return got

    @pytest.mark.parametrize("t", range(10))
    @pytest.mark.parametrize("params", [EnsembleParams(60, 0.3, GAUSS), EnsembleParams(200, 0.05, RAD)])
    def test_random_matrices(self, params, t):
        smin, smax = self._check(sample_matrix(params, RngStream(808, t)).to_dense())
        assert 0.0 < smin <= smax

    def test_zero_matrix(self):
        assert self._check(np.zeros((5, 5))) == (0.0, 0.0)

    @pytest.mark.parametrize("value,expected", [(-3.0, (3.0, 3.0)), (0.0, (0.0, 0.0))])
    def test_one_by_one(self, value, expected):
        assert self._check(np.array([[value]])) == expected

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_rank_one(self, scale):
        u = np.random.default_rng(4).standard_normal(7)
        smin, smax = self._check(scale * np.outer(u, u))
        assert smin == 0.0
        assert smax == pytest.approx(scale * float(u @ u), rel=1e-12)

    @pytest.mark.parametrize("factor,singular", [(0.5, True), (2.0, False)])
    def test_singular_floor(self, factor, singular):
        floor = spectra._SINGULAR_FLOOR
        smin, smax = self._check(_rotated_diagonal([1.0, -0.7, factor * floor, 0.4, -0.2], seed=11))
        assert smax == pytest.approx(1.0, rel=1e-14)
        if singular:
            assert smin == 0.0
        else:
            assert smin == pytest.approx(factor * floor, rel=1e-2)

    def test_public_wrappers_read_it(self):
        A = sample_matrix(EnsembleParams(30, 0.4, GAUSS), RngStream(809, 0)).to_dense()
        assert (smallest_singular_value(A), spectral_norm(A)) == spectra._extreme_singular_values(A)


class TestCertifiedEigenvectors:
    @pytest.mark.parametrize("t", range(3))
    def test_unit_and_within_contract(self, t):
        A = sample_matrix(EnsembleParams(50, 0.3, RAD), RngStream(810, t)).to_dense()
        evals, worst, V = spectra._certified_spectrum(A, spectra.DENSE_CAP)
        picks = [int(np.argmin(np.abs(evals))), int(np.argmax(np.abs(evals)))]
        norm = float(np.abs(evals).max())
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-14)
        residuals = np.linalg.norm(A @ V - V * evals[picks], axis=0)
        assert residuals.max() <= 1e-10 * norm * A.shape[0]
        assert worst == pytest.approx(residuals.max(), rel=1e-6, abs=1e-15 * norm)

    def test_one_by_one(self):
        evals, worst, V = spectra._certified_spectrum(np.array([[2.5]]), spectra.DENSE_CAP)
        assert evals.tolist() == [2.5] and worst == 0.0 and V.tolist() == [[1.0, 1.0]]


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_both_routes_at_extreme_scales(scale):
    """Far from 1, dstebz's Sturm counts and the residual norms under- or
    overflow unless the matrix is scaled first: at 1e-160 the extreme values
    came out 10x off and the certificate failed, at 1e160 dstebz failed."""
    A = scale * sample_matrix(EnsembleParams(40, 0.3, GAUSS), RngStream(811, 0)).to_dense()
    oracle = np.linalg.eigvalsh(A)
    norm = float(np.abs(oracle).max())
    TestExtremeSingularValues._check(A)
    assert np.abs(full_symmetric_spectrum(A) - oracle).max() <= 1e-12 * norm
    summary = spectral_summary(A)
    assert summary.s_min == pytest.approx(float(np.abs(oracle).min()), rel=1e-9)
    assert summary.residual <= 1e-10 * norm * A.shape[0]
