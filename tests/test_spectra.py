import math
import tracemalloc

import numpy as np
import pytest

from lemmas import sparse_of, stored_in_order
from ssrmlab import spectra
from ssrmlab.ensemble import Purpose, RngStream, SparseSymmetricMatrix, check_matrix, sample_matrix, trial_stream
from ssrmlab.errors import NumericalError
from ssrmlab.model import EnsembleParams, EntryDistribution
from ssrmlab.spectra import (
    C_OP,
    NormBoundRow,
    bvh_bound,
    full_symmetric_spectrum,
    is_singular,
    norm_bound_experiment,
    singular_extremes,
    smallest_singular_value,
    spectral_norm,
    spectral_summary,
)

RAD = EntryDistribution("rademacher")
GAUSS = EntryDistribution("standard-gaussian")


@pytest.fixture(scope="module")
def matrix_2049() -> SparseSymmetricMatrix:
    """A sparse rademacher matrix above n = 2048: both spectral calls hold at every n."""
    return sample_matrix(EnsembleParams(2049, 0.01, RAD), RngStream(812, 0))


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
        assert np.allclose(full_symmetric_spectrum(sparse_of(np.eye(3))), [1, 1, 1], atol=1e-14)

    def test_exchange_matrix(self):
        ev = full_symmetric_spectrum(sparse_of([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(ev, [-1.0, 1.0], atol=1e-14)

    def test_matches_charpoly_oracle(self):
        for t in range(5):
            A = sample_matrix(EnsembleParams(8, 0.6, GAUSS), RngStream(100, t))
            assert np.allclose(full_symmetric_spectrum(A), _charpoly_roots(A.to_dense()), atol=1e-8)

    def test_returns_above_2048(self, matrix_2049):
        A = matrix_2049
        ref = np.linalg.eigvalsh(A.to_dense())
        ev = full_symmetric_spectrum(A)
        assert ev.shape == (2049,)
        assert np.abs(ev - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_sorted_ascending(self):
        A = sample_matrix(EnsembleParams(20, 0.5, RAD), RngStream(1, 1))
        ev = full_symmetric_spectrum(A)
        assert np.all(np.diff(ev) >= 0)

    @pytest.mark.parametrize("n", [1, 2, 50, 300])
    def test_matches_eigvalsh(self, n):
        A = sample_matrix(EnsembleParams(max(n, 2), 0.5, GAUSS), RngStream(110, n)).to_dense()[:n, :n]
        ref = np.linalg.eigvalsh(A)
        ev = full_symmetric_spectrum(sparse_of(A))
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
        assert np.allclose(full_symmetric_spectrum(sparse_of(A)), expected, rtol=0, atol=1e-13 * max(1.0, expected.max()))

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
        assert smallest_singular_value(sparse_of(np.eye(4))) == pytest.approx(1.0, rel=1e-12)

    def test_rank_one(self):
        assert smallest_singular_value(sparse_of([[1.0, 1.0], [1.0, 1.0]])) == 0.0

    def test_golden_ratio_case(self):
        # Eigenvalues of [[0,1],[1,1]] are (1 +- sqrt(5)) / 2.
        expected = (math.sqrt(5) - 1) / 2
        got = smallest_singular_value(sparse_of([[0.0, 1.0], [1.0, 1.0]]))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_dense_oracle(self):
        for t in range(25):
            n = 8 + (t * 7) % 57
            A = sample_matrix(EnsembleParams(n, 0.6, GAUSS), RngStream(200, t))
            oracle = float(np.abs(full_symmetric_spectrum(A)).min())
            got = smallest_singular_value(A)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_scaling_equivariance(self):
        A = sample_matrix(EnsembleParams(16, 0.7, GAUSS), RngStream(201, 0))
        s = smallest_singular_value(A)
        for c in (-2.0, 0.5):
            assert smallest_singular_value(sparse_of(c * A.to_dense())) == pytest.approx(abs(c) * s, rel=1e-12)

    @pytest.mark.parametrize(
        "A",
        [np.zeros((5, 5)), np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]), 1e-200 * np.ones((3, 3))],
        ids=["zero", "rank-one", "scaled-rank-one"],
    )
    def test_singular_inputs_return_zero(self, A):
        assert smallest_singular_value(sparse_of(A)) == 0.0

    @pytest.mark.parametrize("factor,singular", [(0.5, True), (2.0, False)])
    def test_is_singular_floor(self, factor, singular):
        # Eigenvalues (-3, factor * floor, 7): only the value below the
        # floor 1e3 eps |A| is reported as 0.
        floor = 1e3 * np.finfo(np.float64).eps * 7.0
        Q, _ = np.linalg.qr(np.random.default_rng(202).standard_normal((3, 3)))
        A = (Q * [-3.0, factor * floor, 7.0]) @ Q.T
        A = 0.5 * (A + A.T)
        got = smallest_singular_value(sparse_of(A))
        if singular:
            assert got == 0.0
        else:
            assert got == pytest.approx(factor * floor, rel=1e-3)


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(sparse_of(np.zeros((4, 4)))) == 0.0

    def test_rank_one_all_ones(self):
        assert spectral_norm(sparse_of([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(2.0, rel=1e-9)

    def test_wigner_edge(self):
        # Semicircle edge: |A| / sqrt(n) near 2 for dense rademacher.
        ratios = []
        for t in range(20):
            A = sample_matrix(EnsembleParams(400, 1.0, RAD), RngStream(300, t))
            ratios.append(spectral_norm(A) / math.sqrt(400))
        assert 1.9 <= np.mean(ratios) <= 2.2

    def test_dominates_entries(self):
        A = sample_matrix(EnsembleParams(30, 0.5, GAUSS), RngStream(301, 0))
        dense = A.to_dense()
        nrm = spectral_norm(A)
        assert nrm >= np.abs(np.diag(dense)).max() - 1e-9
        assert nrm >= np.abs(dense).max() - 1e-9

    def test_agrees_with_dense_oracle(self):
        for t in range(10):
            A = sample_matrix(EnsembleParams(32, 0.5, GAUSS), RngStream(302, t))
            oracle = float(np.abs(full_symmetric_spectrum(A)).max())
            assert spectral_norm(A) == pytest.approx(oracle, rel=1e-8)

    def test_meets_tol_on_norm_check_matrix(self):
        # Before v0.10.0, norm-check's seed 1, trial 2 (n=500, p=0.1,
        # rademacher), stream id 2.  A power iteration on A^2 stopped 3.2e-6
        # short of |A| here, past the 1.4e-6 that a relative tolerance of
        # 1e-7 allows.
        A = sample_matrix(EnsembleParams(500, 0.1, RAD), RngStream(1, 2))
        ref = float(np.abs(np.linalg.eigvalsh(A.to_dense())).max())
        tol = 1e-7
        assert abs(spectral_norm(A) - ref) <= tol * max(1.0, ref)


class TestBvhBound:
    def test_second_term_vanishes(self):
        assert bvh_bound(1.0, 0.0, 100, 0.5) == pytest.approx(3.0, abs=1e-12)

    def test_zero_profile(self):
        assert bvh_bound(0.0, 0.0, 100, 0.25) == 0.0

    def test_plug_in_arithmetic(self):
        # log(1+eps) = 0.25, n = e: (1+eps) * (2*2 + (6/0.5)*1*1) = 16 (1+eps).
        eps = math.exp(0.25) - 1.0
        n_e = 3  # closest integer; evaluate exactly via formula instead
        got = bvh_bound(2.0, 1.0, n_e, eps)
        expected = (1 + eps) * (4.0 + (6.0 / 0.5) * math.sqrt(math.log(n_e)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_all_arguments(self):
        base = bvh_bound(1.0, 0.5, 50, 0.3)
        assert bvh_bound(2.0, 0.5, 50, 0.3) >= base
        assert bvh_bound(1.0, 0.9, 50, 0.3) >= base
        assert bvh_bound(1.0, 0.5, 500, 0.3) >= base


class TestNormBoundExperiment:
    def test_omega_event_fraction(self):
        rows, summary = norm_bound_experiment(EnsembleParams(400, 0.5, RAD), 50, master_seed=2, cbar=2.0, eps=0.5)
        assert len(rows) == 50
        assert summary["omega_fraction"] >= 0.98
        assert 1.5 <= summary["mean_ratio"] <= 3.0
        assert summary["violation_fraction"] <= 0.1

    def test_omega_event_nonvacuous_sparsity(self):
        # At p=0.2 the row-count threshold 2pn = 160 < n, so the event is
        # a real constraint; binomial rows at mean 80 still clear it.
        _, summary = norm_bound_experiment(EnsembleParams(400, 0.2, RAD), 15, master_seed=4, cbar=2.0, eps=0.5)
        assert summary["omega_fraction"] == 1.0

    def test_gaussian_comparison_bound_holds(self):
        _, summary = norm_bound_experiment(EnsembleParams(200, 0.5, GAUSS), 10, master_seed=3, cbar=2.0, eps=0.5)
        assert summary["bvh_fraction"] >= 0.9

    def test_violation_fraction_reads_c_op(self, monkeypatch):
        # |A| / sqrt(pn) lies near 2 here, below C_OP = 3.
        params = EnsembleParams(100, 0.5, RAD)
        assert norm_bound_experiment(params, 5, master_seed=2, cbar=2.0, eps=0.5)[1]["violation_fraction"] == 0.0
        rows = [NormBoundRow(t, 1.0, ratio, True, 1.0, True) for t, ratio in enumerate((C_OP, C_OP + 1e-9))]
        monkeypatch.setattr(spectra, "run_trials", lambda *args: [rows])
        assert norm_bound_experiment(params, 2, master_seed=2, cbar=2.0, eps=0.5)[1]["violation_fraction"] == 0.5

    @staticmethod
    def _dense_mask_reference(params, seed, cbar, eps, t, draw):
        """The row and W from the float mask and its profile (sigma from the
        largest row sum of mask^2, sigma* the largest |mask|), given the
        Gaussian draw: one value per mask entry (i, j), i <= j, in row-major
        order, mirrored below the diagonal."""
        n, p = params.n, params.p
        A = sample_matrix(params, trial_stream(seed, Purpose.MATRIX, n, p, t))
        mask = (A.to_dense() != 0.0).astype(np.float64)
        W = np.zeros((n, n))
        W[np.nonzero(np.triu(mask))] = draw
        W += np.triu(W, k=1).T
        norm = spectral_norm(A)
        bound = bvh_bound(float(np.sqrt((mask**2).sum(axis=1).max())), float(np.abs(mask).max()), n, eps)
        omega = bool(mask.sum(axis=1).max() <= cbar * p * n)
        return spectra.NormBoundRow(t, norm, norm / math.sqrt(p * n), omega, bound, spectral_norm(sparse_of(W)) <= bound), W

    @pytest.mark.parametrize("p", [0.02, 0.1, 0.5])
    def test_trial_matches_dense_mask_reference(self, monkeypatch, p):
        # The same W bit for bit and the same row.
        n, seed, cbar, eps = 80, 6, 2.0, 0.5
        params = EnsembleParams(n, p, GAUSS)
        seen = []
        real = spectra.spectral_norm
        monkeypatch.setattr(spectra, "spectral_norm", lambda A: seen.append(A) or real(A))
        for t in range(3):
            nnz = sample_matrix(params, trial_stream(seed, Purpose.MATRIX, n, p, t)).nnz_upper
            draw = trial_stream(seed, Purpose.NORM_CHECK_W, n, p, t).generator().standard_normal(nnz)
            want, W = self._dense_mask_reference(params, seed, cbar, eps, t, draw)
            seen.clear()
            assert spectra._norm_bound_trial(seed, cbar, eps, params, t) == want
            assert seen[1].to_dense().tobytes() == W.tobytes()
            assert check_matrix(seen[1]) is seen[1]  # W is built unchecked; it keeps the storage rules

    def test_zero_draws_are_not_stored(self, monkeypatch):
        # standard_normal can return 0.0; the trial drops it from W's pattern,
        # as the storage rules ask, and W is unchanged.
        n, seed, cbar, eps, t = 60, 7, 2.0, 0.5, 0
        params = EnsembleParams(n, 0.3, GAUSS)
        nnz = sample_matrix(params, trial_stream(seed, Purpose.MATRIX, n, 0.3, t)).nnz_upper
        draw = trial_stream(seed, Purpose.NORM_CHECK_W, n, 0.3, t).generator().standard_normal(nnz)
        draw[::3] = 0.0
        real_stream = spectra.trial_stream

        class ZeroedStream:
            def generator(self):
                return self

            def standard_normal(self, size):
                assert size == nnz
                return draw.copy()

        monkeypatch.setattr(
            spectra, "trial_stream", lambda s, purpose, *cell: ZeroedStream() if purpose == Purpose.NORM_CHECK_W else real_stream(s, purpose, *cell)
        )
        seen = []
        real_norm = spectra.spectral_norm
        monkeypatch.setattr(spectra, "spectral_norm", lambda A: seen.append(A) or real_norm(A))
        want, _ = self._dense_mask_reference(params, seed, cbar, eps, t, draw)
        seen.clear()
        assert spectra._norm_bound_trial(seed, cbar, eps, params, t) == want
        assert seen[1].nnz_upper == nnz - len(draw[::3]) and check_matrix(seen[1]) is seen[1]


class TestSingularExtremes:
    def test_magnitudes(self):
        assert singular_extremes(np.array([-3.0, 0.5, 2.0])) == (0.5, 3.0)

    @pytest.mark.parametrize("evals", [np.zeros(4), np.array([]), np.array([1e-20, -1.0])], ids=["zero", "empty", "below-floor"])
    def test_singular_reads_zero(self, evals):
        assert singular_extremes(evals) == (0.0, float(np.abs(evals).max(initial=0.0)))


class TestIsSingular:
    @pytest.mark.parametrize("smax", [1e-3, 1.0, 1e6])
    def test_floor_is_1e3_eps_relative(self, smax):
        floor = 1e3 * np.finfo(np.float64).eps * smax
        assert is_singular(0.0, smax)
        assert is_singular(0.99 * floor, smax)
        assert not is_singular(1.01 * floor, smax)

    def test_zero_matrix_is_singular(self):
        assert is_singular(0.0, 0.0)


def _shift_smallest(monkeypatch, delta):
    """Make ``_eigenvalue`` return the smallest-magnitude eigenvalue moved by delta."""
    real = spectra._eigenvalue

    def shifted(d, e, k):
        nu = spectra._count_at_most(d, e, 0.0)
        small = min((j for j in (nu, nu + 1) if 1 <= j <= d.size), key=lambda j: abs(real(d, e, j)))
        return real(d, e, k) + (delta if k == small else 0.0)

    monkeypatch.setattr(spectra, "_eigenvalue", shifted)


class TestSpectralSummary:
    def test_dense_path(self):
        s = spectral_summary(sparse_of(np.eye(3)))
        assert s.s_min == 1.0 and s.s_max == 1.0 and s.condition_number == 1.0

    def test_singular_condition_number(self):
        s = spectral_summary(sparse_of([[1.0, 1.0], [1.0, 1.0]]))
        assert s.s_min == 0.0
        assert math.isinf(s.condition_number)

    def test_measured_residual_above_2048(self, monkeypatch, matrix_2049):
        # Shifting the smallest-magnitude eigenvalue by delta, far above the
        # rounding noise and inside the certificate's bound, moves the
        # residual of its unit eigenvector to delta: it is measured.
        A = matrix_2049
        plain = spectral_summary(A)
        delta = 1e-9 * plain.s_max
        _shift_smallest(monkeypatch, delta)
        summary = spectral_summary(A)
        assert plain.residual <= 1e-10 * plain.s_max * A.n
        assert summary.residual == pytest.approx(delta, rel=1e-3)
        assert summary.s_max == plain.s_max
        assert not hasattr(summary, "method")

    def test_dense_residual_is_measured(self, monkeypatch):
        # Shift the smallest-magnitude eigenvalue by delta, far above the
        # rounding noise and inside the certificate's bound: the reported
        # residual must be ||Av - lambda v|| / ||v|| for the shifted lambda.
        A = sample_matrix(EnsembleParams(40, 0.5, GAUSS), RngStream(306, 0)).to_dense()
        evals, vecs = np.linalg.eigh(A)
        k = int(np.argmin(np.abs(evals)))
        delta = 1e-9 * np.abs(evals).max()
        _shift_smallest(monkeypatch, delta)
        summary = spectral_summary(sparse_of(A))
        v = vecs[:, k]
        lam = evals[k] + delta
        expected = np.linalg.norm(A @ v - lam * v) / np.linalg.norm(v)
        assert summary.s_min == pytest.approx(abs(lam), rel=1e-9)
        assert summary.residual == pytest.approx(expected, rel=1e-3)

    def test_reduces_once(self, monkeypatch):
        calls = []
        real = spectra._tridiagonal
        monkeypatch.setattr(spectra, "_tridiagonal", lambda dense: calls.append(dense.shape) or real(dense))
        A = sample_matrix(EnsembleParams(24, 0.6, GAUSS), RngStream(305, 0))
        spectral_summary(A)
        assert calls == [(24, 24)]


def _rotated_diagonal(values, seed):
    """Q diag(values) Q^T for a random orthogonal Q, exactly symmetric."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values), len(values))))
    A = (Q * np.asarray(values, dtype=np.float64)) @ Q.T
    return (A + A.T) / 2


class TestExtremeSingularValues:
    """The one extreme-value engine, against numpy's eigvalsh as an independent oracle."""

    @staticmethod
    def _check(A):
        mags = np.abs(np.linalg.eigvalsh(A))
        smin, smax = float(mags.min()), float(mags.max())
        want = (0.0 if is_singular(smin, smax) else smin, smax)
        got = spectra._certified_extremes(sparse_of(A))[:2]
        scale = max(smax, np.finfo(np.float64).tiny)
        assert abs(got[0] - want[0]) <= 1e-12 * scale and abs(got[1] - want[1]) <= 1e-12 * scale
        assert (got[0] == 0.0) == (want[0] == 0.0)
        return got

    @pytest.mark.parametrize("t", range(10))
    @pytest.mark.parametrize("params", [EnsembleParams(60, 0.3, GAUSS), EnsembleParams(200, 0.05, RAD)])
    def test_random_matrices(self, params, t):
        A = sample_matrix(params, RngStream(808, t))
        smin, smax = self._check(A.to_dense())
        assert 0.0 < smin <= smax
        _, diag, off, _ = spectra._tridiagonal(A.to_dense())
        assert spectra._count_at_most(diag, off, 0.0) == int((np.linalg.eigvalsh(A.to_dense()) <= 0).sum())

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

    @pytest.mark.parametrize(
        "A",
        [
            np.diag([2.0, -1.0, 0.0, 0.5, -3.0]),
            _rotated_diagonal([2.0, -1.0, 0.0, 0.5, -3.0], seed=12),
            _rotated_diagonal([0.3, 1.0, 2.5, 4.0], seed=13),
            _rotated_diagonal([-0.3, -1.0, -2.5, -4.0], seed=14),
        ],
        ids=["exact-zero-eigenvalue", "rotated-zero-eigenvalue", "definite", "negative-definite"],
    )
    def test_sign_patterns(self, A):
        self._check(A)

    def test_public_wrappers_read_it(self):
        A = sample_matrix(EnsembleParams(30, 0.4, GAUSS), RngStream(809, 0))
        assert (smallest_singular_value(A), spectral_norm(A)) == spectra._certified_extremes(A)[:2]


@pytest.mark.parametrize("dist", [RAD, GAUSS], ids=lambda d: d.kind)
@pytest.mark.parametrize("n", [40, 120, 300])
def test_engine_matches_full_spectrum(n, dist):
    """The certified extremes against dsterf's full spectrum, singular draws included:
    the same values within the engine's residual plus n eps |A|, the same
    singular verdict, and a null block as wide as the spectrum's zeros."""
    singular = 0
    for p in (math.log(n) / n, math.sqrt(math.log(n) / n * 0.5), 0.5):
        for t in range(4):
            A = sample_matrix(EnsembleParams(n, p, dist), RngStream(830, t))
            evals = full_symmetric_spectrum(A)
            smin, smax = singular_extremes(evals)
            got = spectra._certified_extremes(A, null=True)
            tol = got.residual + n * np.finfo(np.float64).eps * smax
            assert (got.s_min == 0.0) == (smin == 0.0)
            assert abs(got.s_min - smin) <= tol and abs(got.s_max - smax) <= tol
            zeros = int(np.sum(np.abs(evals) < spectra._SINGULAR_FLOOR * smax))
            assert got.vectors.shape[1] - 2 == zeros
            singular += smin == 0.0
    if dist is RAD:
        assert singular > 0  # p = log n / n gives singular rademacher draws


LAWS = [RAD, GAUSS, EntryDistribution("uniform-symmetric"), EntryDistribution("two-point-general", 0.2)]


class TestReductionSolve:
    """A^-1 b from the extreme-value engine's own reduction, against numpy's LU solve."""

    @staticmethod
    def _check(A, b):
        smin, smax, _, _, y = spectra._certified_extremes(sparse_of(A), b)
        assert (smin, smax) == spectra._certified_extremes(sparse_of(A))[:2]
        if smin == 0.0:
            assert y is None
            return False
        want = np.linalg.solve(A, b)
        # Both solves are backward stable: forward errors within a small
        # multiple of eps times the condition number.  Norms are taken at the
        # scale of want, which can lie beyond the range of its squares.
        scale = np.abs(want).max()
        assert np.linalg.norm((y - want) / scale) <= 1e-12 * (smax / smin) * np.linalg.norm(want / scale)
        return True

    @pytest.mark.parametrize("n", [2, 3, 40, 500])
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_matches_numpy_solve(self, dist, n):
        params = EnsembleParams(n, min(1.0, 10.0 / n), dist)
        rng = np.random.default_rng(n)
        solved = [self._check(sample_matrix(params, RngStream(820, t)).to_dense(), rng.standard_normal(n)) for t in range(6)]
        assert any(solved)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_after_power_of_two_scaling(self, exponent):
        A = np.ldexp(sample_matrix(EnsembleParams(40, 0.3, GAUSS), RngStream(821, 0)).to_dense(), exponent)
        assert spectra._balance(A.copy(order="F")) != 0
        assert self._check(A, np.random.default_rng(2).standard_normal(40))

    def test_caller_vector_unchanged(self):
        A = sample_matrix(EnsembleParams(30, 0.4, GAUSS), RngStream(822, 0))
        b = np.random.default_rng(3).standard_normal(30)
        before = b.copy()
        spectra._certified_extremes(A, b)
        assert np.array_equal(b, before)

    def test_exactly_singular_tridiagonal(self, monkeypatch):
        # Eigenvalues 0, 1 and 3; dsytrd leaves a tridiagonal matrix as it is.
        T = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.ones(3)
        got = spectra._certified_extremes(sparse_of(T), b)
        assert (got.s_min, got.s_max, got.y) == (0.0, pytest.approx(3.0, rel=1e-14), None)
        # With no singular floor the rule lets T through to the solve, where
        # dgtsv meets an exactly zero pivot, as dgesv would.
        monkeypatch.setattr(spectra, "_SINGULAR_FLOOR", 0.0)
        with pytest.raises(NumericalError, match="dgtsv"):
            spectra._certified_extremes(sparse_of(T), b)


class TestCertifiedEigenvectors:
    @pytest.mark.parametrize("t", range(3))
    def test_unit_and_within_contract(self, t):
        A = sample_matrix(EnsembleParams(50, 0.3, RAD), RngStream(810, t)).to_dense()
        smin, smax, worst, V, _ = spectra._certified_extremes(sparse_of(A))
        norm = float(np.abs(np.linalg.eigvalsh(A)).max())
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-14)
        # The reported magnitudes, signed as the Rayleigh quotients are.
        values = np.sign(np.einsum("ij,ij->j", V, A @ V)) * [smin, smax]
        residuals = np.linalg.norm(A @ V - V * values, axis=0)
        assert residuals.max() <= 1e-10 * norm * A.shape[0]
        assert worst == pytest.approx(residuals.max(), rel=1e-6, abs=1e-15 * norm)

    def test_residual_product_copies_no_matrix(self, monkeypatch):
        # A V runs on scipy's dsymm over the buffer dsytrd reduced in place
        # (its upper triangle, with the saved diagonal put back): Fortran-
        # ordered, so scipy passes it to BLAS without an n x n copy.
        reduced, seen = [], []
        real_tridiagonal, real_dsymm = spectra._tridiagonal, spectra.dsymm

        def tridiagonal(work):
            out = real_tridiagonal(work)
            reduced.append((work, out[0]))
            return out

        monkeypatch.setattr(spectra, "_tridiagonal", tridiagonal)
        monkeypatch.setattr(spectra, "dsymm", lambda alpha, a, b, **kw: seen.append(a) or real_dsymm(alpha, a, b, **kw))
        A = sample_matrix(EnsembleParams(50, 0.3, RAD), RngStream(810, 0))
        spectra._certified_extremes(A)
        (work, reflectors), = reduced
        assert np.shares_memory(reflectors, work)
        assert len(seen) == 1 and seen[0] is work and work.flags.f_contiguous
        assert np.array_equal(np.triu(work), np.triu(A.to_dense()))

    def test_one_by_one(self):
        smin, smax, worst, V, _ = spectra._certified_extremes(sparse_of([[-2.5]]))
        assert (smin, smax, worst) == (2.5, 2.5, 0.0) and V.tolist() == [[1.0, 1.0]]
        assert spectra._certified_extremes(sparse_of([[0.0]]), null=True).vectors.tolist() == [[1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("p, nullity", [(0.3, 0), (0.03, 5)])
    def test_null_block_adds_columns_only(self, p, nullity):
        # (s_min, s_max) are the same with or without the null block, and so
        # is everything else when the block is empty; the block is the
        # singular rule's zeros, as counted in numpy's spectrum.  Q applied
        # to more columns may round the two picks differently in the last digit.
        A = sample_matrix(EnsembleParams(100, p, RAD), RngStream(818, 0))
        plain, with_null = spectra._certified_extremes(A), spectra._certified_extremes(A, null=True)
        evals = np.linalg.eigvalsh(A.to_dense())
        assert with_null[:2] == plain[:2]
        assert with_null.vectors.shape[1] - 2 == nullity == np.sum(np.abs(evals) < spectra._SINGULAR_FLOOR * np.abs(evals).max())
        assert (plain.s_min == 0.0) == (nullity > 0)
        if nullity == 0:
            assert with_null.vectors.tobytes() == plain.vectors.tobytes() and with_null.residual == plain.residual
        np.testing.assert_allclose(with_null.vectors[:, :2], plain.vectors, rtol=0, atol=1e-14)


def _tridiagonals() -> dict:
    """(diag, off) by name: random at four sizes, one split by an exact zero, one repeated eigenvalue."""
    rng = np.random.default_rng(817)
    cases = {f"random-{n}": (rng.standard_normal(n), rng.standard_normal(n - 1)) for n in (2, 3, 50, 300)}
    off = rng.standard_normal(59)
    off[29] = 0.0
    cases["split"] = (rng.standard_normal(60), off)
    # Two identical blocks split by a zero: every eigenvalue is double.
    d, e = rng.standard_normal(20), rng.standard_normal(19)
    cases["repeated"] = (np.concatenate([d, d]), np.concatenate([e, [0.0], e]))
    return cases


class TestTridiagonalEigenvector:
    """dstebz + dstein give scipy's eigh_tridiagonal(select="i") vector bit for bit."""

    @pytest.mark.parametrize("diag, off", [pytest.param(*c, id=name) for name, c in _tridiagonals().items()])
    def test_matches_eigh_tridiagonal(self, diag, off):
        from scipy.linalg import eigh_tridiagonal  # the oracle only

        evals = np.sort(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)))
        # The two picks full_symmetric_spectrum makes, plus the ends and the middle.
        picks = {int(np.argmin(np.abs(evals))), 0 if -evals[0] >= evals[-1] else len(diag) - 1}
        for k in sorted(picks | {0, len(diag) // 2, len(diag) - 1}):
            want = eigh_tridiagonal(diag, off, select="i", select_range=(k, k))[1][:, 0]
            got = spectra._tridiagonal_eigenvectors(diag, off, k, k + 1)[:, 0]
            assert got.tobytes() == want.tobytes(), k

    def test_repeated_eigenvalue_both_indices(self):
        # Each index of a double eigenvalue gets one unit vector of it.
        diag, off = _tridiagonals()["repeated"]
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        lam = np.sort(np.linalg.eigvalsh(T))
        for k in (6, 7):
            z = spectra._tridiagonal_eigenvectors(diag, off, k, k + 1)[:, 0]
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(T @ z - lam[k] * z) <= 1e-12
        # Both at once: one dstein call, which orthogonalizes the pair.
        Z = spectra._tridiagonal_eigenvectors(diag, off, 6, 8)
        assert np.abs(Z.T @ Z - np.eye(2)).max() <= 1e-14
        assert np.linalg.norm(T @ Z - Z * lam[6:8], axis=0).max() <= 1e-12

    def test_range_across_split_blocks_is_ascending(self):
        # dstebz lists the eigenvalues block by block; column i belongs to
        # eigenvalue lo + i all the same.
        diag, off = _tridiagonals()["split"]
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        lam = np.linalg.eigvalsh(T)
        Z = spectra._tridiagonal_eigenvectors(diag, off, 10, 50)
        assert np.abs(Z.T @ Z - np.eye(40)).max() <= 1e-12
        assert np.linalg.norm(T @ Z - Z * lam[10:50], axis=0).max() <= 1e-12

    def test_failure_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(spectra, "dstein", lambda d, e, w, iblock, isplit: (np.zeros((d.size, 1)), 1))
        with pytest.raises(NumericalError, match="dstein"):
            spectra._tridiagonal_eigenvectors(np.ones(3), np.ones(2), 0, 1)


def _peak_in_matrices(n, fn, *args):
    """The tracemalloc peak of fn(*args), in units of one n x n float64 matrix."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


class TestOneBufferPerCall:
    """Each spectral call densifies its matrix into one n x n buffer of its own and never writes to the caller's."""

    N = 400

    @pytest.fixture(scope="class")
    def realization(self):
        return sample_matrix(EnsembleParams(self.N, 0.3, RAD), RngStream(813, 0))

    @pytest.mark.parametrize("fn", [full_symmetric_spectrum, spectral_summary], ids=lambda f: f.__name__)
    def test_sparse_input_peak(self, realization, fn):
        # One n x n buffer, plus O(n) work arrays and one reflector panel.
        assert _peak_in_matrices(self.N, fn, realization) <= 1.5

    @pytest.mark.parametrize("p", [0.05, 0.3])
    def test_sample_matrix_peak(self, p):
        # The tail-dense grid's p values.  The mask draw alone is half a
        # matrix; int64 (row, col) pairs for every position would add one more.
        params = EnsembleParams(self.N, p, RAD)
        assert _peak_in_matrices(self.N, sample_matrix, params, RngStream(814, 0)) <= 0.75

    @pytest.mark.parametrize(
        "fn",
        [
            full_symmetric_spectrum,
            spectral_summary,
            lambda A: spectra._certified_extremes(A, null=True),
            lambda A: spectra._certified_extremes(A, np.ones(A.n)),
        ],
        ids=["full_symmetric_spectrum", "spectral_summary", "extremes-null", "extremes-rhs"],
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("scale", [1.0, 1e-160])
    def test_caller_array_unchanged(self, fn, order, scale):
        # The caller's row, col and val, stored row by row ("C", as sample_matrix
        # draws them) or column by column ("F"); 1e-160 takes _balance's in-place
        # power-of-two scaling of the densified buffer.
        A = stored_in_order(sample_matrix(EnsembleParams(60, 0.3, GAUSS), RngStream(815, 0)), order, scale)
        before = [field.tobytes() for field in (A.row, A.col, A.val)]
        fn(A)
        assert [field.tobytes() for field in (A.row, A.col, A.val)] == before

    def test_to_dense_is_the_fortran_buffer(self, realization):
        # The layout dsytrd reduces in place: symmetric, every stored (i, j) at (i, j) and (j, i).
        dense = realization.to_dense()
        assert dense.flags.f_contiguous and np.array_equal(dense, dense.T)
        rows, cols = realization.row, realization.col
        assert np.array_equal(dense[rows, cols], realization.val) and np.array_equal(dense[cols, rows], realization.val)
        assert np.count_nonzero(dense) == 2 * realization.nnz_upper - np.count_nonzero(rows == cols)

    def test_norm_bound_trial_peak(self):
        # Both matrices reach spectral_norm sparse, so the trial holds one n x n
        # array at a time (A densified, then W densified) next to O(nnz) data:
        # A's coordinates and values, 1.5p matrices, and W's values, 0.5p (one
        # normal per stored entry); about 1.4 at p = 0.1 and 3.2 at p = 1.  An
        # n x n Gaussian draw to gather W's values from took 3.5 at p = 1.
        for p in (0.1, 1.0):
            params = EnsembleParams(self.N, p, RAD)
            assert _peak_in_matrices(self.N, spectra._norm_bound_trial, 1, 2.0, 0.5, params, 0) <= 1.3 + 2.0 * p, p

    def test_tridiagonal_reduces_in_place(self):
        work = sample_matrix(EnsembleParams(30, 0.4, GAUSS), RngStream(816, 0)).to_dense()
        upper = np.triu(work, 1)
        reflectors, diag, _, _ = spectra._tridiagonal(work)
        assert np.shares_memory(reflectors, work) and np.array_equal(work.diagonal(), diag)
        assert np.array_equal(np.triu(work, 1), upper)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_both_routes_at_extreme_scales(scale):
    """Far from 1, dstebz's Sturm counts and the residual norms under- or
    overflow unless the matrix is scaled first: at 1e-160 the extreme values
    came out 10x off and the certificate failed, at 1e160 dstebz failed."""
    A = scale * sample_matrix(EnsembleParams(40, 0.3, GAUSS), RngStream(811, 0)).to_dense()
    oracle = np.linalg.eigvalsh(A)
    norm = float(np.abs(oracle).max())
    TestExtremeSingularValues._check(A)
    assert np.abs(full_symmetric_spectrum(sparse_of(A)) - oracle).max() <= 1e-12 * norm
    summary = spectral_summary(sparse_of(A))
    assert summary.s_min == pytest.approx(float(np.abs(oracle).min()), rel=1e-9)
    assert summary.residual <= 1e-10 * norm * A.shape[0]


@pytest.mark.parametrize(
    "call",
    [
        spectral_summary,
        full_symmetric_spectrum,
        spectral_norm,
        smallest_singular_value,
        lambda A: spectra._certified_extremes(A, np.ones(3)),
    ],
    ids=["spectral_summary", "full_symmetric_spectrum", "spectral_norm", "smallest_singular_value", "with_rhs"],
)
def test_norm_overflow_is_a_numerical_error(call):
    # Every entry is finite, but the eigenvalue 2e308 of the leading 2 x 2
    # block is not: both spectral calls scale back through one overflow check.
    A = sparse_of([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, -1e308]])
    with pytest.raises(NumericalError, match="the spectral norm overflows float64"):
        call(A)
