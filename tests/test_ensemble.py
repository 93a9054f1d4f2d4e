import functools
import io
import math
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import row_witness_sets
from ssrmlab import ensemble
from ssrmlab.ensemble import (
    Purpose,
    RngStream,
    SparseSymmetricMatrix,
    check_matrix,
    dump_matrix,
    load_matrix,
    run_trials,
    sample_entries,
    sample_matrix,
    sample_sparse_vector,
    trial_stream,
)
from ssrmlab.errors import ParameterError
from ssrmlab.model import MAX_N, EnsembleParams, EntryDistribution, parse_distribution

RAD = EntryDistribution("rademacher")
GAUSS = EntryDistribution("standard-gaussian")


class TestEntryDistribution:
    def test_analytic_fourth_moments(self):
        assert EntryDistribution("rademacher").fourth_moment == 1.0
        assert EntryDistribution("standard-gaussian").fourth_moment == 3.0
        assert EntryDistribution("uniform-symmetric").fourth_moment == pytest.approx(1.8, abs=1e-15)
        # two-point with prob 0.2: (1-p)^2/p + p^2/(1-p)
        tp = EntryDistribution("two-point-general", 0.2)
        assert tp.fourth_moment == pytest.approx(0.64 / 0.2 + 0.04 / 0.8, abs=1e-12)

    def test_two_point_atoms_have_mean_zero_unit_variance(self):
        # Atom a with mass prob, and b = -a prob / (1 - prob) with mass 1 - prob.
        for prob in (0.2, 0.5, 0.9):
            tp = EntryDistribution("two-point-general", prob)
            b = -tp.a * prob / (1.0 - prob)
            assert tp.a * prob + b * (1.0 - prob) == pytest.approx(0.0, abs=1e-12)
            assert tp.a**2 * prob + b**2 * (1.0 - prob) == pytest.approx(1.0, abs=1e-12)
            assert tp.a**4 * prob + b**4 * (1.0 - prob) == pytest.approx(tp.fourth_moment, rel=1e-12)

    @pytest.mark.parametrize("kind,prob", [("rademacher", 0.5), ("two-point-general", None)])
    def test_prob_only_for_two_point(self, kind, prob):
        with pytest.raises(ParameterError):
            EntryDistribution(kind, prob=prob)

    def test_fields_are_kind_and_prob(self):
        assert EntryDistribution._fields == ("kind", "prob")

    def test_two_point_infinite_moment_rejected(self):
        # prob = 1e-320 gives an infinite atom, which no matrix can hold.
        with pytest.raises(ParameterError, match="infinite"):
            EntryDistribution("two-point-general", 1e-320)
        # A string is named as a bad prob, not a bare TypeError from "<".
        with pytest.raises(ParameterError, match="two-point prob"):
            EntryDistribution("two-point-general", "0.5")

    def test_parse(self):
        assert parse_distribution("gaussian").kind == "standard-gaussian"
        assert parse_distribution("two-point:0.25").prob == 0.25
        with pytest.raises(ParameterError):
            parse_distribution("cauchy")

    def test_sampled_moments_match(self):
        rng = RngStream(11, 0).generator()
        for dist in (RAD, GAUSS, EntryDistribution("uniform-symmetric"), EntryDistribution("two-point-general", 0.3)):
            xs = sample_entries(dist, rng, 200_000)
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

    @settings(max_examples=20)
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
        with pytest.raises(ParameterError, match="sparsity level p"):
            EnsembleParams(5, "0.5", RAD)

    def test_n_is_bounded_by_the_address_space(self):
        # 8 n^2 bytes must be addressable: 2^30 - 1 is the last such n.
        assert MAX_N == 2**30 - 1
        assert EnsembleParams(MAX_N, 0.5, RAD).n == MAX_N
        with pytest.raises(ParameterError, match=f"^n must be <= {MAX_N} .*, got {MAX_N + 1}$"):
            EnsembleParams(MAX_N + 1, 0.5, RAD)

    @pytest.mark.parametrize("n", [5.0, "5", None, True])
    def test_n_must_be_an_integer(self, n):
        # A ParameterError, never the bare TypeError of operator.index.
        with pytest.raises(ParameterError, match="n must be an integer"):
            EnsembleParams(n, 0.5, RAD)

    def test_numpy_integer_n_accepted(self):
        A = sample_matrix(EnsembleParams(np.int64(5), 0.5, RAD), RngStream(1, 0))
        assert np.array_equal(A.to_dense(), sample_matrix(EnsembleParams(5, 0.5, RAD), RngStream(1, 0)).to_dense())


def _triu_reference(params: EnsembleParams, stream: RngStream) -> tuple:
    """The sampler as written with np.triu_indices, on the same stream."""
    rng = stream.generator()
    iu, ju = np.triu_indices(params.n)
    mask = rng.random(iu.size) < params.p
    vals = ensemble.sample_entries(params.dist, rng, int(mask.sum()))
    keep = vals != 0.0
    return iu[mask][keep], ju[mask][keep], vals[keep]


LAWS = [RAD, GAUSS, EntryDistribution("uniform-symmetric"), EntryDistribution("two-point-general", 0.2)]


class TestSampleMatrixIndexing:
    """Row starts and searchsorted give the same (row, col, val) as np.triu_indices."""

    @pytest.mark.parametrize("law", LAWS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("n", [2, 3, 37, 300])
    @pytest.mark.parametrize("p", ["0", "1/n", "0.3", "1"])
    def test_matches_triu_indices(self, law, n, p):
        params = EnsembleParams(n, {"0": 0.0, "1/n": 1.0 / n, "0.3": 0.3, "1": 1.0}[p], law)
        stream = RngStream(2024, n)
        A = sample_matrix(params, stream)
        row, col, val = _triu_reference(params, stream)
        assert A.row.dtype == row.dtype and A.col.dtype == col.dtype
        assert np.array_equal(A.row, row) and np.array_equal(A.col, col)
        assert A.val.tobytes() == val.tobytes()

    def test_exact_zero_values_dropped_in_step(self, monkeypatch):
        # A continuous law's exact zero is dropped with its own position.
        real = ensemble.sample_entries

        def with_zeros(dist, rng, size):
            vals = real(dist, rng, size)
            vals[::3] = 0.0
            return vals

        monkeypatch.setattr(ensemble, "sample_entries", with_zeros)
        params = EnsembleParams(37, 0.3, GAUSS)
        A = sample_matrix(params, RngStream(7, 1))
        row, col, val = _triu_reference(params, RngStream(7, 1))
        assert 0 < A.nnz_upper == row.size
        assert np.array_equal(A.row, row) and np.array_equal(A.col, col) and np.array_equal(A.val, val)


def _keeps_the_rules(A: SparseSymmetricMatrix) -> None:
    """Every rule ``load_matrix`` applies, and the field types a loaded matrix has."""
    assert A.row.dtype == A.col.dtype == np.int64 and A.val.dtype == np.float64
    assert A.row.ndim == 1 and A.row.shape == A.col.shape == A.val.shape
    assert check_matrix(A) is A


class TestDrawsKeepTheRules:
    """The sampler's output is not checked as it is built; every draw keeps the rules."""

    @pytest.mark.parametrize("law", LAWS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("n", [2, 37])
    @pytest.mark.parametrize("p", ["1/n", "0.3", "1"])
    def test_sample_matrix(self, law, n, p):
        p = {"1/n": 1.0 / n, "0.3": 0.3, "1": 1.0}[p]
        for t in range(5):
            _keeps_the_rules(sample_matrix(EnsembleParams(n, p, law), trial_stream(7, Purpose.MATRIX, n, p, t)))

    @pytest.mark.parametrize("law", LAWS[1:3], ids=lambda d: d.kind)
    def test_exact_zeros_dropped(self, monkeypatch, law):
        # Continuous laws with exact zeros injected, as in test_exact_zero_values_dropped_in_step.
        real = ensemble.sample_entries

        def with_zeros(dist, rng, size):
            vals = real(dist, rng, size)
            vals[::3] = 0.0
            return vals

        monkeypatch.setattr(ensemble, "sample_entries", with_zeros)
        for n, p in ((2, 1.0), (37, 0.3), (37, 1.0)):
            A = sample_matrix(EnsembleParams(n, p, law), RngStream(7, n))
            assert 0 < A.nnz_upper
            _keeps_the_rules(A)


class TestSampleSparseVector:
    def test_p_zero(self):
        assert not np.any(sample_sparse_vector(5, 0.0, RAD, RngStream(1, 1)))

    def test_p_one_rademacher(self):
        v = sample_sparse_vector(5, 1.0, RAD, RngStream(1, 1))
        assert set(np.abs(v)) == {1.0}

    def test_masked_variance(self):
        v = sample_sparse_vector(100_000, 0.5, GAUSS, RngStream(2, 0))
        assert np.var(v) == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("law", LAWS, ids=lambda d: d.kind)
    def test_draws_equal_a_fresh_generator(self, law):
        # The sampler re-keys one generator per draw; each draw must equal
        # what a new generator on the same stream gives, whatever the
        # previous draw (another length, law, key or trial) left in its state.
        for k in range(200):
            n, p = 1 + 37 * (k % 5), (0.1, 0.5, 1.0)[k % 3]
            stream = trial_stream(9 + k % 4, Purpose.SMALLBALL_X, n, p, k)
            rng = stream.generator()
            mask = rng.random(n) < p
            expected = np.zeros(n)
            expected[mask] = sample_entries(law, rng, int(mask.sum()))
            assert sample_sparse_vector(n, p, law, stream).tobytes() == expected.tobytes()
            sample_sparse_vector(5 + k % 2, 0.7, LAWS[k % 4], RngStream(k, 1))


def _matrix_file(directory, text: str) -> str:
    """The path of a new file ``m.txt`` in ``directory`` that holds ``text``."""
    path = os.path.join(directory, "m.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _load_error(entries: str, n: int = 3) -> str:
    """The message ``load_matrix`` gives for a matrix file of these entry lines."""
    with tempfile.TemporaryDirectory() as directory, pytest.raises(ParameterError) as exc:
        load_matrix(_matrix_file(directory, f"{n} 0.5 1 0\n{entries}"))
    return str(exc.value)


class TestSparseSymmetricMatrix:
    """The storage rules, checked where a matrix enters: ``load_matrix``."""

    def test_duplicate_entry_rejected(self):
        assert _load_error("0 1 1.0\n0 1 2.0\n") == "duplicate (i, j) entry"
        # Out of order too.
        assert _load_error("1 2 1.0\n0 0 2.0\n1 2 3.0\n") == "duplicate (i, j) entry"

    def test_unsorted_entries_accepted(self, tmp_path):
        A = sample_matrix(EnsembleParams(12, 0.5, GAUSS), RngStream(22, 0))
        buf = io.StringIO()
        dump_matrix(buf, A, p=0.5, seed=22, stream=0)
        head, *lines = buf.getvalue().splitlines()
        order = np.random.default_rng(0).permutation(len(lines))
        shuffled = "\n".join([head] + [lines[k] for k in order]) + "\n"
        B = load_matrix(_matrix_file(tmp_path, shuffled))
        assert not np.all(np.diff(B.row * B.n + B.col) > 0)
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_lower_triangle_rejected(self):
        assert _load_error("2 0 1.0\n") == "entries must satisfy i <= j (upper triangle)"

    def test_zero_value_rejected(self):
        assert _load_error("0 1 0.0\n") == "stored values must be nonzero"

    @pytest.mark.parametrize("n", [0, -2])
    def test_dimension_below_one_rejected(self, n):
        assert _load_error("", n) == "matrix dimension must be >= 1"

    @pytest.mark.parametrize("entry", ["0 3 1.0", "3 3 1.0", "-1 2 1.0"])
    def test_index_outside_n_rejected(self, entry):
        assert _load_error(entry + "\n") == "entry index out of range"

    def test_index_past_int64_rejected(self):
        assert _load_error("0 18446744073709551616 1.0\n").endswith("expected 'i j value', got '0 18446744073709551616 1.0'")


class TestRowWitnessSets:
    def test_zero_matrix(self):
        A = SparseSymmetricMatrix(3, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        i1, i0 = row_witness_sets(A, [0], [1], [1], 0.5)
        assert i1 == set()
        assert i0 == {2}

    def test_single_offdiagonal_entry(self):
        A = SparseSymmetricMatrix(3, np.array([0, 0, 1, 2]), np.array([0, 2, 1, 2]), np.array([1.0, 1.0, 1.0, 1.0]))
        i1, i0 = row_witness_sets(A, [0], [1], [1], 0.5)
        assert i1 == {2}

    def test_sign_mismatch_excluded(self):
        A = SparseSymmetricMatrix(3, np.array([0, 0, 1, 2]), np.array([0, 2, 1, 2]), np.array([1.0, -1.0, 1.0, 1.0]))
        i1, _ = row_witness_sets(A, [0], [1], [1], 0.5)
        assert i1 == set()

    def test_disjointness_by_construction(self):
        A = sample_matrix(EnsembleParams(50, 0.3, RAD), RngStream(9, 0))
        J, Jp, s = [0, 3], [5, 7, 11], [1, -1]
        i1, i0 = row_witness_sets(A, J, Jp, s, 0.5)
        assert not (i1 | i0) & (set(J) | set(Jp))

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
    def test_round_trip(self, tmp_path):
        A = sample_matrix(EnsembleParams(12, 0.4, GAUSS), RngStream(21, 2))
        buf = io.StringIO()
        dump_matrix(buf, A, p=0.4, seed=21, stream=2)
        B = load_matrix(_matrix_file(tmp_path, buf.getvalue()))
        n, p, seed, stream = buf.getvalue().splitlines()[0].split()
        assert (int(n), float(p), int(seed), int(stream)) == (12, 0.4, 21, 2)
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_file_round_trip(self, tmp_path):
        A = sample_matrix(EnsembleParams(6, 0.5, RAD), RngStream(1, 0))
        path = tmp_path / "m.txt"
        with open(path, "w", encoding="utf-8") as fh:
            dump_matrix(fh, A, p=0.5, seed=1, stream=0)
        B = load_matrix(str(path))
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParameterError):
            load_matrix(_matrix_file(tmp_path, "3 0.5\n"))

    @pytest.mark.parametrize(
        "header",
        ["3 nan -5 -7", "3 -0.1 0 0", "3 1.5 0 0", "3 inf 0 0", "3 0.5 -1 0", f"3 0.5 {2**64} 0", "3 0.5 0 -1", f"3 0.5 0 {2**64}"],
    )
    def test_header_out_of_range(self, tmp_path, header):
        # The header holds what generate can write: p in [0, 1], seed and stream in [0, 2^64).
        path = _matrix_file(tmp_path, f"{header}\n0 0 1.0\n")
        with pytest.raises(ParameterError) as exc:
            load_matrix(path)
        assert str(exc.value).startswith(f"{path!r} line 1: header needs p in [0, 1]")

    @pytest.mark.parametrize("header", ["3 0 0 0", "3 -0 0 0", f"3 1 {2**64 - 1} {2**64 - 1}"])
    def test_header_at_its_bounds(self, tmp_path, header):
        assert load_matrix(_matrix_file(tmp_path, f"{header}\n0 0 1.0\n")).n == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        assert _load_error(f"0 0 1.0\n0 1 {value}\n2 2 2.0\n") == "stored values must be finite"


def _draw(seed: int, cell: str, t: int) -> tuple:
    return cell, t, float(trial_stream(seed, Purpose.MATRIX, len(cell), 0.5, t).generator().random())


class TestTrialStream:
    def test_key_and_counter(self):
        # Philox keyed by (seed, h(purpose, n, p)), trial t in the counter's
        # high word; at t = 0 the stream is the plain (seed, key) stream.
        stream = trial_stream(9, Purpose.QUADRATIC_X, 40, 0.3, 5)
        assert stream == RngStream(9, ensemble._cell_key(Purpose.QUADRATIC_X, 40, 0.3), 5)
        state = stream.generator().bit_generator.state["state"]
        assert state["counter"].tolist() == [0, 0, 0, 5]
        assert state["key"].tolist() == [9, stream.stream_id]
        plain = RngStream(9, stream.stream_id)
        assert np.array_equal(RngStream(stream.seed, stream.stream_id, 0).generator().random(8), plain.generator().random(8))
        assert not np.array_equal(stream.generator().random(8), plain.generator().random(8))

    def test_key_is_the_exact_cell(self):
        # numpy scalars key as the Python numbers they equal; p = 0.1 + 0.2
        # is not p = 0.3.
        key = ensemble._cell_key
        assert key(Purpose.MATRIX, np.int64(30), np.float64(0.3)) == key(Purpose.MATRIX, 30, 0.3)
        assert key(Purpose.MATRIX, 30, 1) == key(Purpose.MATRIX, 30, 1.0)
        assert key(Purpose.MATRIX, 30, 0.1 + 0.2) != key(Purpose.MATRIX, 30, 0.3)

    def test_no_two_draws_share_a_key(self):
        ns = range(1, 201)
        ps = [0.01 * k for k in range(1, 101)] + [1 / n for n in ns] + [math.log(n) / n for n in ns[1:]]
        keys = {ensemble._cell_key(purpose, n, p) for purpose in Purpose for n in ns for p in set(ps)}
        assert len(keys) == len(Purpose) * len(ns) * len(set(ps))


class TestRunTrials:
    CELLS = ("a", "bb", "ccc")  # three lengths n, so three keys

    def test_grid_order(self):
        out = run_trials(functools.partial(_draw, 4), self.CELLS, 5)
        assert [[r[:2] for r in recs] for recs in out] == [[(cell, t) for t in range(5)] for cell in self.CELLS]

    def test_workers_do_not_change_records(self, monkeypatch):
        # 39 tasks at 3 workers: each worker takes every third task, across all three cells.
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
        kernel = functools.partial(_draw, 4)
        assert run_trials(kernel, self.CELLS, 13, 3) == run_trials(kernel, self.CELLS, 13, 1)
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_zero_trials(self, workers):
        assert run_trials(functools.partial(_draw, 4), self.CELLS, 0, workers) == [[], [], []]

    def test_single_task_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_start_worker", None)
        kernel = functools.partial(_draw, 4)
        assert run_trials(kernel, ["a"], 1, 3) == run_trials(kernel, ["a"], 1)

    @pytest.mark.parametrize(
        "workers,trials,cpus,used", [(10_000, 400, 3, 3), (2, 400, 3, 2), (10_000, 2, 8, 6), (10_000, 1, 5, 3)]
    )
    def test_pool_size_is_capped(self, monkeypatch, workers, trials, cpus, used):
        # At most one worker per task and per CPU this process may run on.
        # The seam counts the workers started and refuses any past ``used``,
        # so a broken cap fails without starting more processes.
        sizes, start = [0], ensemble._start_worker

        def counted(job):
            sizes[0] += 1
            if sizes[0] > used:
                raise AssertionError(f"worker {sizes[0]} started, cap {used}")
            return start(job)

        monkeypatch.setattr(ensemble, "_start_worker", counted)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
        kernel = functools.partial(_draw, 1)
        assert run_trials(kernel, self.CELLS, trials, workers) == run_trials(kernel, self.CELLS, trials)
        assert sizes == [used]
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_earliest_failure_is_raised(self, monkeypatch, workers):
        # Tasks 4 and 2 fail, in the shares of workers 1 and 2 at three
        # workers; worker 1 is read first, yet task 2's error is raised.
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
        with pytest.raises(ParameterError, match="^task 2$"):
            run_trials(_fail_at_2_and_4, ["a"], 9, workers)
        _assert_no_child_left()

    def test_dead_worker_raises_child_process_error(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ChildProcessError):
            run_trials(_exit_at_3, ["a"], 6, 2)
        _assert_no_child_left()

    def test_interrupted_parent_kills_its_workers(self, monkeypatch):
        # The second start is interrupted while the first worker sleeps in
        # its kernel; run_trials kills and reaps it before re-raising.
        starts, start = [], ensemble._start_worker

        def interrupted(job):
            starts.append(job)
            if len(starts) == 2:
                raise KeyboardInterrupt
            return start(job)

        monkeypatch.setattr(ensemble, "_start_worker", interrupted)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_trials(_sleep, ["a"], 2, 2)
        assert time.monotonic() - began < 30
        _assert_no_child_left()

    def test_worker_stops_once_its_parent_is_gone(self):
        # A worker whose recorded parent is not its parent runs no further
        # task: the kernel would exit with status 3, the check exits with 1.
        job = functools.partial(ensemble._run_share, _exit_at_3, [("a", 3)], 0, 1, -1)
        pid, read_end = ensemble._start_worker(job)
        with open(read_end, "rb") as pipe:
            assert pipe.read() == b""
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
        _assert_no_child_left()


def _assert_no_child_left() -> None:
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_at_2_and_4(cell: str, t: int) -> int:
    if t in (2, 4):
        raise ParameterError(f"task {t}")
    return t


def _exit_at_3(cell: str, t: int) -> int:
    if t == 3:
        os._exit(3)
    return t


def _sleep(cell: str, t: int) -> int:
    time.sleep(60)
    return t
