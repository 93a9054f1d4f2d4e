import functools
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrmlab.ensemble import (
    EnsembleParams,
    EntryDistribution,
    RngStream,
    SparseSymmetricMatrix,
    dump_matrix,
    load_matrix,
    parse_distribution,
    row_witness_sets,
    run_trials,
    sample_matrix,
    sample_sparse_vector,
    trial_stream,
    two_sided_tail_estimate,
)
from ssrmlab.errors import ParameterError

RAD = EntryDistribution.rademacher()
GAUSS = EntryDistribution.standard_gaussian()


class TestEntryDistribution:
    def test_analytic_fourth_moments(self):
        assert EntryDistribution.rademacher().fourth_moment == 1.0
        assert EntryDistribution.standard_gaussian().fourth_moment == 3.0
        assert EntryDistribution.uniform_symmetric().fourth_moment == pytest.approx(1.8, abs=1e-15)
        # two-point with prob 0.2: (1-p)^2/p + p^2/(1-p)
        tp = EntryDistribution.two_point(0.2)
        assert tp.fourth_moment == pytest.approx(0.64 / 0.2 + 0.04 / 0.8, abs=1e-12)

    def test_two_point_atoms_have_mean_zero_unit_variance(self):
        tp = EntryDistribution.two_point(0.2)
        values, probs = tp.atoms()
        assert values @ probs == pytest.approx(0.0, abs=1e-12)
        assert (values**2) @ probs == pytest.approx(1.0, abs=1e-12)

    def test_bad_variance_rejected(self):
        with pytest.raises(ParameterError):
            EntryDistribution("rademacher", variance=2.0)

    def test_bad_fourth_moment_rejected(self):
        with pytest.raises(ParameterError):
            EntryDistribution("rademacher", fourth_moment=2.0)

    def test_inconsistent_two_point_rejected(self):
        with pytest.raises(ParameterError):
            EntryDistribution("two-point-general", fourth_moment=1.0, a=5.0, prob=0.5)

    def test_two_point_infinite_moment_rejected(self):
        # prob = 1e-320 gives an infinite atom, which no matrix can hold.
        with pytest.raises(ParameterError, match="infinite"):
            EntryDistribution.two_point(1e-320)

    def test_parse(self):
        assert parse_distribution("gaussian").kind == "standard-gaussian"
        assert parse_distribution("two-point:0.25").prob == 0.25
        with pytest.raises(ParameterError):
            parse_distribution("cauchy")

    def test_sampled_moments_match(self):
        rng = RngStream(11, 0).generator()
        for dist in (RAD, GAUSS, EntryDistribution.uniform_symmetric(), EntryDistribution.two_point(0.3)):
            xs = dist.sample(rng, 200_000)
            assert np.mean(xs) == pytest.approx(0.0, abs=0.02)
            assert np.var(xs) == pytest.approx(1.0, abs=0.03)
            assert np.mean(xs**4) == pytest.approx(dist.fourth_moment, rel=0.08)


class TestSampleMatrix:
    def test_p_zero_gives_zero_matrix(self):
        A = sample_matrix(EnsembleParams(3, 0.0, RAD), RngStream(5, 9))
        assert A.nnz_upper == 0
        assert not np.any(A.to_dense())

    def test_p_one_rademacher_two_by_two(self):
        A = sample_matrix(EnsembleParams(2, 1.0, RAD), RngStream(5, 9))
        dense = A.to_dense()
        assert np.all(np.abs(dense) == 1.0)
        assert dense[0, 1] == dense[1, 0]

    def test_mask_fraction_binomial(self):
        # n=200, p=0.3: upper-triangle count 20100, sd ~ 0.0032, well inside 0.02.
        A = sample_matrix(EnsembleParams(200, 0.3, RAD), RngStream(42, 0))
        frac = A.nnz_upper / (200 * 201 / 2)
        assert frac == pytest.approx(0.3, abs=0.02)

    def test_exact_symmetry(self):
        A = sample_matrix(EnsembleParams(40, 0.4, GAUSS), RngStream(3, 3))
        dense = A.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_purity(self):
        params = EnsembleParams(30, 0.5, GAUSS)
        a = sample_matrix(params, RngStream(8, 123)).to_dense()
        b = sample_matrix(params, RngStream(8, 123)).to_dense()
        assert np.array_equal(a, b)
        c = sample_matrix(params, RngStream(8, 124)).to_dense()
        assert not np.array_equal(a, c)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1))
    def test_purity_property(self, seed, stream):
        params = EnsembleParams(8, 0.5, RAD)
        a = sample_matrix(params, RngStream(seed, stream)).to_dense()
        b = sample_matrix(params, RngStream(seed, stream)).to_dense()
        assert np.array_equal(a, b)

    def test_mask_concentration_over_trials(self):
        # T=100 trials at n=100: pooled nonzero fraction concentrates at p.
        p, n, T = 0.35, 100, 100
        total = sum(
            sample_matrix(EnsembleParams(n, p, RAD), RngStream(77, t)).nnz_upper
            for t in range(T)
        )
        cells = T * n * (n + 1) // 2
        se = math.sqrt(p * (1 - p) / cells)
        assert total / cells == pytest.approx(p, abs=5 * se)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            EnsembleParams(1, 0.5, RAD)
        with pytest.raises(ParameterError):
            EnsembleParams(5, 1.5, RAD)
        with pytest.raises(ParameterError):
            EnsembleParams(5, -0.1, RAD)


class TestSampleSparseVector:
    def test_p_zero(self):
        assert not np.any(sample_sparse_vector(5, 0.0, RAD, RngStream(1, 1)))

    def test_p_one_rademacher(self):
        v = sample_sparse_vector(5, 1.0, RAD, RngStream(1, 1))
        assert set(np.abs(v)) == {1.0}

    def test_masked_variance(self):
        v = sample_sparse_vector(100_000, 0.5, GAUSS, RngStream(2, 0))
        assert np.var(v) == pytest.approx(0.5, abs=0.02)


class TestTwoSidedTail:
    def test_rademacher_half(self):
        pm, pp = two_sided_tail_estimate(RAD, 0.5, 100_000, RngStream(3, 0))
        # Exact two-point enumeration gives 0.5 on each side.
        se = math.sqrt(0.25 / 100_000)
        assert pm == pytest.approx(0.5, abs=5 * se)
        assert pp == pytest.approx(0.5, abs=5 * se)

    def test_rademacher_beyond_support(self):
        assert two_sided_tail_estimate(RAD, 1.5, 10_000, RngStream(3, 1)) == (0.0, 0.0)

    def test_gaussian_tail_matches_normal_cdf(self):
        # Independent oracle: Phi(-1) via erfc.
        phi = math.erfc(1.0 / math.sqrt(2.0)) / 2.0
        pm, pp = two_sided_tail_estimate(GAUSS, 1.0, 1_000_000, RngStream(4, 0))
        assert pm == pytest.approx(phi, abs=0.002)
        assert pp == pytest.approx(phi, abs=0.002)

    def test_validation(self):
        with pytest.raises(ParameterError):
            two_sided_tail_estimate(RAD, -1.0, 10, RngStream(0, 0))
        with pytest.raises(ParameterError):
            two_sided_tail_estimate(RAD, 1.0, 0, RngStream(0, 0))


class TestSparseSymmetricMatrix:
    def test_duplicate_entry_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            SparseSymmetricMatrix(3, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))
        # Out of order, so the strictly-increasing shortcut does not apply.
        with pytest.raises(ParameterError, match="duplicate"):
            SparseSymmetricMatrix(3, np.array([1, 0, 1]), np.array([2, 0, 2]), np.array([1.0, 2.0, 3.0]))

    def test_unsorted_entries_accepted(self):
        A = sample_matrix(EnsembleParams(12, 0.5, GAUSS), RngStream(22, 0))
        buf = io.StringIO()
        dump_matrix(buf, A, p=0.5, seed=22, stream_id=0)
        head, *lines = buf.getvalue().splitlines()
        order = np.random.default_rng(0).permutation(len(lines))
        shuffled = "\n".join([head] + [lines[k] for k in order]) + "\n"
        B, _ = load_matrix(io.StringIO(shuffled))
        assert not np.all(np.diff(B.row * B.n + B.col) > 0)
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_lower_triangle_rejected(self):
        with pytest.raises(ParameterError):
            SparseSymmetricMatrix(3, np.array([2]), np.array([0]), np.array([1.0]))

    def test_zero_value_rejected(self):
        with pytest.raises(ParameterError):
            SparseSymmetricMatrix(3, np.array([0]), np.array([1]), np.array([0.0]))

    def test_from_dense_round_trip(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -3.0], [2.0, -3.0, 4.0]])
        assert np.array_equal(SparseSymmetricMatrix.from_dense(dense).to_dense(), dense)

    def test_from_dense_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            SparseSymmetricMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRowWitnessSets:
    def test_zero_matrix(self):
        A = SparseSymmetricMatrix(3, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        i1, i0 = row_witness_sets(A, [0], [1], [1], 0.5)
        assert i1 == set()
        assert i0 == {2}

    def test_single_offdiagonal_entry(self):
        dense = np.eye(3)
        dense[2, 0] = dense[0, 2] = 1.0
        A = SparseSymmetricMatrix.from_dense(dense)
        i1, i0 = row_witness_sets(A, [0], [1], [1], 0.5)
        assert i1 == {2}

    def test_sign_mismatch_excluded(self):
        dense = np.eye(3)
        dense[2, 0] = dense[0, 2] = -1.0
        A = SparseSymmetricMatrix.from_dense(dense)
        i1, _ = row_witness_sets(A, [0], [1], [1], 0.5)
        assert i1 == set()

    def test_disjointness_by_construction(self):
        A = sample_matrix(EnsembleParams(50, 0.3, RAD), RngStream(9, 0))
        J, Jp, s = [0, 3], [5, 7, 11], [1, -1]
        i1, i0 = row_witness_sets(A, J, Jp, s, 0.5)
        assert not (i1 | i0) & (set(J) | set(Jp))

    def test_overlap_rejected(self):
        A = sample_matrix(EnsembleParams(10, 0.3, RAD), RngStream(9, 1))
        with pytest.raises(ParameterError):
            row_witness_sets(A, [0, 1], [1, 2], [1, 1], 0.5)

    def test_witness_event_monte_carlo_smoke(self):
        # Small-scale version of the acceptance run: the joint witness
        # |I1 cap I0| >= 1 should hold in almost every realization.
        n, p = 200, 0.2
        m = max(1, int(min(math.sqrt(p * n), 1 / (8 * p))))
        hits = 0
        trials = 50
        for t in range(trials):
            A = sample_matrix(EnsembleParams(n, p, RAD), RngStream(123, t))
            rng = RngStream(456, t).generator()
            perm = rng.permutation(n)
            J, Jp = [int(perm[0])], [int(v) for v in perm[1 : 1 + m]]
            s = [1 if rng.random() < 0.5 else -1]
            i1, i0 = row_witness_sets(A, J, Jp, s, 0.5)
            hits += bool(i1 & i0)
        assert hits >= trials - 1


class TestSerialization:
    def test_round_trip(self):
        A = sample_matrix(EnsembleParams(12, 0.4, GAUSS), RngStream(21, 2))
        buf = io.StringIO()
        dump_matrix(buf, A, p=0.4, seed=21, stream_id=2)
        B, header = load_matrix(io.StringIO(buf.getvalue()))
        assert header == {"n": 12, "p": 0.4, "seed": 21, "stream": 2}
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_file_round_trip(self, tmp_path):
        A = sample_matrix(EnsembleParams(6, 0.5, RAD), RngStream(1, 0))
        path = tmp_path / "m.txt"
        dump_matrix(str(path), A, p=0.5, seed=1, stream_id=0)
        B, _ = load_matrix(str(path))
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_bad_header(self):
        with pytest.raises(ParameterError):
            load_matrix(io.StringIO("3 0.5\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ParameterError, match="finite"):
            load_matrix(io.StringIO(f"3 0.5 1 0\n0 0 1.0\n0 1 {value}\n2 2 2.0\n"))
        with pytest.raises(ParameterError, match="finite"):
            SparseSymmetricMatrix(2, [0], [1], [float(value)])


def _draw(seed: int, cell: str, c: int, t: int) -> tuple:
    return cell, c, t, float(trial_stream(seed, c, t).generator().random())


class TestTrialStream:
    def test_reproduces_legacy_ids(self):
        seed, t, k, x_draws = 9, 5, 3, 7
        for cell in (0, 1, 6):
            assert trial_stream(seed, cell, t) == RngStream(seed, (cell << 32) | t)
        assert trial_stream(seed, 1, t) == RngStream(seed, (1 << 32) + t)
        assert trial_stream(seed, 2, t * x_draws + k) == RngStream(seed, (2 << 32) + t * x_draws + k)
        assert trial_stream(seed, 0, t) == RngStream(seed, t)
        assert trial_stream(seed, 0, 2**32 - 1).stream_id == 2**32 - 1

    @pytest.mark.parametrize("index", [2**32, -1])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ParameterError, match="index"):
            trial_stream(1, 0, index)


class TestRunTrials:
    CELLS = ("a", "b", "c")

    def test_grid_order(self):
        out = run_trials(functools.partial(_draw, 4), self.CELLS, 5)
        assert [[r[:3] for r in recs] for recs in out] == [
            [(cell, c, t) for t in range(5)] for c, cell in enumerate(self.CELLS)
        ]

    def test_workers_do_not_change_records(self):
        # 13 trials at 3 workers run in chunks of 2 tasks, some straddling two cells.
        kernel = functools.partial(_draw, 4)
        assert run_trials(kernel, self.CELLS, 13, 3) == run_trials(kernel, self.CELLS, 13, 1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_zero_trials(self, workers):
        assert run_trials(functools.partial(_draw, 4), self.CELLS, 0, workers) == [[], [], []]

    def test_single_task_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr("ssrmlab.ensemble.ProcessPoolExecutor", None)
        kernel = functools.partial(_draw, 4)
        assert run_trials(kernel, ["a"], 1, 3) == run_trials(kernel, ["a"], 1)
