import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import regularized_lcd
from ssrmlab import structure
from ssrmlab.ensemble import RngStream
from ssrmlab.errors import ParameterError
from ssrmlab.structure import (
    StructureConstants,
    classify_vector,
    is_dominated,
    lcd,
    sparse_tail_distance,
    spread_set,
)


def _unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def _lcd_grid_oracle(x, L, theta_max, step=1e-5):
    """First grid point theta with dist(theta x, Z^n) < L sqrt(log+(theta/L))."""
    x = np.asarray(x)
    lsq = L * L
    theta = L
    chunk = 200_000
    while theta < theta_max:
        hi = min(theta + chunk * step, theta_max)
        grid = np.arange(theta, hi, step)
        y = np.outer(grid, x)
        d2 = ((y - np.round(y)) ** 2).sum(axis=1)
        thr = lsq * np.log(np.maximum(grid / L, 1.0))
        hits = np.flatnonzero(d2 < thr)
        if hits.size:
            return float(grid[hits[0]])
        theta = hi
    return None


def _lcd_interval_scan(x, L, theta_cap=None, tol=1e-9):
    """Reference LCD scan: b and c of every interval by a direct rounding,
    O(intervals * n) work.  Returns (value, capped)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if theta_cap is None:
        theta_cap = 10.0 * n * math.sqrt(n)
        theta_cap = max(theta_cap, 2.0 * L)

    def _threshold_sq(theta, L):
        return L * L * np.log(np.maximum(theta / L, 1.0))

    a = float(x @ x)  # ~1 for unit input
    mags = np.abs(x[x != 0.0])

    # Half-integer crossing points of theta * |x_i| inside (L, cap).
    breakpoints = [np.array([L, theta_cap])]
    for m in np.unique(mags):
        k_lo = max(0, math.ceil(L * m - 0.5))
        k_hi = math.floor(theta_cap * m - 0.5)
        if k_hi >= k_lo:
            ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
            breakpoints.append((ks + 0.5) / m)
    grid = np.unique(np.concatenate(breakpoints))
    grid = grid[(grid >= L) & (grid <= theta_cap)]
    if grid[0] > L:
        grid = np.concatenate([[L], grid])
    if grid[-1] < theta_cap:
        grid = np.concatenate([grid, [theta_cap]])

    lsq = L * L
    chunk = 1 << 16
    for start in range(0, grid.size - 1, chunk):
        lo = grid[start : min(start + chunk, grid.size - 1)]
        hi = grid[start + 1 : min(start + chunk, grid.size - 1) + 1]
        mid = 0.5 * (lo + hi)
        m_round = np.round(np.outer(mid, x))
        b = -2.0 * (m_round @ x)
        c = (m_round * m_round).sum(axis=1)

        def f_at(theta):
            return a * theta * theta + b * theta + c - _threshold_sq(theta, L)

        f_lo = f_at(lo)
        f_hi = f_at(hi)
        # Interior stationary point of the convex difference:
        # 2 a theta^2 + b theta - L^2 = 0.
        disc = np.sqrt(b * b + 8.0 * a * lsq)
        t_star = (-b + disc) / (4.0 * a)
        inside = (t_star > lo) & (t_star < hi)
        f_star = np.where(inside, f_at(np.where(inside, t_star, mid)), np.inf)
        f_min = np.minimum(np.minimum(f_lo, f_hi), f_star)
        hits = np.flatnonzero(f_min < 0.0)
        if hits.size == 0:
            continue
        k = int(hits[0])

        def f_scalar(theta: float) -> float:
            mm = np.round(theta * x)
            d = theta * x - mm
            return float(d @ d) - lsq * max(math.log(theta / L), 0.0)

        left, right = float(lo[k]), float(hi[k])
        t_min = float(t_star[k]) if inside[k] else (left if f_lo[k] < f_hi[k] else right)
        if f_scalar(left) < 0.0:
            root = left
        else:
            # Leftmost crossing lies in [left, t_neg] where f(t_neg) < 0.
            t_neg = t_min
            if f_scalar(t_neg) >= 0.0:
                # Convex dip detected vectorized but endpoint noise: probe.
                probes = np.linspace(left, right, 64)
                neg = [p for p in probes if f_scalar(float(p)) < 0.0]
                if not neg:
                    continue
                t_neg = float(neg[0])
            a_br, b_br = left, t_neg
            while b_br - a_br > tol:
                m_br = 0.5 * (a_br + b_br)
                if f_scalar(m_br) < 0.0:
                    b_br = m_br
                else:
                    a_br = m_br
            root = 0.5 * (a_br + b_br)
        return float(root), False
    return float(theta_cap), True


def _lcd_test_vectors(count, seed):
    """(x, L, theta_cap): unit vectors with n <= 60, Gaussian, sparse, and
    lattice-like ones whose magnitudes tie (small integers, some of them
    repeated); every fourth gets a low cap that most scans reach."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(1, 61))
        kind = t % 3
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:
            x = rng.standard_normal(n) * (rng.random(n) < 0.3)
            x[int(rng.integers(n))] = 1.0
        else:
            x = rng.integers(-3, 4, size=n).astype(np.float64)
            x[int(rng.integers(n))] = 2.0
        L = 1.0 + t % 3
        yield x / np.linalg.norm(x), L, (L + 5.0 if t % 4 == 3 else None)


# Constants sized so that n=24 vectors have a 6-element spread set, and a
# subset fraction giving 2-element restriction subsets (15 candidate
# subsets in total).
WIDE, WIDE_LAM = StructureConstants(c_s=0.1, c_d=0.1, c_oo=0.25), 0.05


class TestStructureConstants:
    def test_defaults_valid(self):
        c = StructureConstants()
        assert 0.25 * c.c_s * c.c_d**2 <= c.c_oo <= 0.25

    def test_c_oo_window_enforced(self):
        with pytest.raises(ParameterError):
            StructureConstants(c_oo=0.3)
        with pytest.raises(ParameterError):
            StructureConstants(c_s=0.5, c_d=0.9, c_oo=0.05)  # below (1/4) c_s c_d^2


class TestSparseTailDistance:
    def test_basis_vector(self):
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert sparse_tail_distance(e1, 1) == 0.0

    def test_two_equal_coordinates(self):
        x = np.zeros(4)
        x[0] = x[1] = 1 / math.sqrt(2)
        assert sparse_tail_distance(x, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_matches_exhaustive_support_search(self):
        rng = np.random.default_rng(5)
        x = _unit(rng, 12)
        dist = sparse_tail_distance(x, 4)
        best = min(
            math.sqrt(max(0.0, 1.0 - float((x[list(s)] ** 2).sum())))
            for s in itertools.combinations(range(12), 4)
        )
        assert dist == pytest.approx(best, abs=1e-12)

    def test_rearrangement_norm_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = _unit(rng, 10)
            m = int(rng.integers(1, 9))
            # The nearest m-sparse vector keeps the m largest magnitudes.
            kept = np.sort(np.abs(x))[-m:]
            assert np.linalg.norm(kept) ** 2 + sparse_tail_distance(x, m) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestIsDominated:
    def test_sparse_vectors_always_dominated(self):
        x = np.zeros(8)
        x[2] = 0.6
        x[5] = 0.8
        assert is_dominated(x, 2, 0.5)

    def test_uniform_vector_not_dominated(self):
        n = 16
        x = np.full(n, 1 / math.sqrt(n))
        # tail l2 = sqrt(1/2) = 0.707 > 0.5 sqrt(n/2) / sqrt(n) = 0.354
        assert not is_dominated(x, n // 2, 0.5)

    def test_tie_permutation_independence(self):
        x = np.array([0.5, 0.5, 0.5, 0.5])
        rng = np.random.default_rng(0)
        results = {is_dominated(x[rng.permutation(4)], 2, 0.9) for _ in range(8)}
        assert len(results) == 1

    def test_alpha_validated(self):
        x = np.zeros(4)
        x[0] = 1.0
        with pytest.raises(ParameterError):
            is_dominated(x, 2, 1.0)

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -0.0, -1.0, -math.inf, math.inf, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # With alpha <= 0 no vector with a nonzero tail is dominated, so
        # such an alpha is rejected rather than answered.
        x = np.zeros(4)
        x[0] = 1.0
        with pytest.raises(ParameterError, match="alpha"):
            is_dominated(x, 2, alpha)

    def test_alpha_inside_unit_interval_accepted(self):
        x = np.full(4, 0.5)
        assert is_dominated(x, 3, 0.9) and not is_dominated(x, 3, 1e-9)


class TestSpreadSet:
    def test_uniform_vector_first_indices(self):
        n = 40
        consts = StructureConstants(c_s=0.1, c_d=0.5, c_oo=0.025)
        x = np.full(n, 1 / math.sqrt(n))
        got = spread_set(x, consts)
        assert got is not None
        assert list(got) == list(range(math.ceil(0.025 * n)))

    def test_basis_vector_undefined(self):
        e1 = np.zeros(10)
        e1[0] = 1.0
        assert spread_set(e1, StructureConstants()) is None

    def test_one_entry_undefined(self):
        # The budget m = 1 keeps the whole vector, so it is compressible.
        assert spread_set(np.array([-1.0]), StructureConstants()) is None

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        x = _unit(rng, 30)
        perm = rng.permutation(30)
        base = spread_set(x, WIDE)
        permuted = spread_set(x[perm], WIDE)
        assert base is not None and permuted is not None
        # index k of x lands at position perm^-1(k) in the permuted vector
        inv = np.empty(30, dtype=int)
        inv[perm] = np.arange(30)
        assert set(permuted.tolist()) == set(inv[base].tolist())

    def test_size_when_defined(self):
        rng = np.random.default_rng(10)
        x = _unit(rng, 24)
        got = spread_set(x, WIDE)
        assert got is not None and got.size == WIDE.spread_size(24)


class TestLcd:
    def test_basis_vector_value_is_integer_threshold(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        res = lcd(e1, 2.0, theta_cap=100.0)
        assert not res.capped
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_half_vector_matches_closed_form(self):
        # Bisection oracle for 2 - theta = sqrt(log theta) on (1, 2).
        lo, hi = 1.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (2.0 - mid) ** 2 - math.log(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        res = lcd(np.array([0.5, 0.5, 0.5, 0.5]), 1.0, theta_cap=10.0)
        assert res.value == pytest.approx(root, abs=1e-6)
        assert abs(res.value - 1.414) < 0.01

    def test_witness_certificate_replay(self):
        rng = np.random.default_rng(11)
        tol = 1e-9
        for L in (1.0, 2.0):
            for _ in range(20):
                x = _unit(rng, 6)
                res = lcd(x, L)
                if res.capped:
                    continue
                y = res.witness_theta * x
                dist = float(np.linalg.norm(y - np.round(y)))
                thr = L * math.sqrt(max(math.log(res.witness_theta / L), 0.0))
                assert dist < thr + tol
                assert abs(res.witness_theta - res.value) <= tol

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(12)
        for L in (1.0, 2.0):
            for _ in range(8):
                n = int(rng.integers(3, 9))
                x = _unit(rng, n)
                res = lcd(x, L)
                assert not res.capped
                grid = _lcd_grid_oracle(x, L, res.value + 0.01)
                assert grid is not None
                assert abs(grid - res.value) <= 1e-3

    def test_invariant_value_above_l(self):
        # The provable pointwise bound is value >= 1/(2 ||x||inf): below that
        # scale every coordinate of theta*x rounds to 0 and the lattice
        # distance equals theta itself, which never beats the threshold.
        # (The unweakened 1/||x||inf version fails on generic vectors; see
        # the acceptance suite for the worked counterexample.)
        rng = np.random.default_rng(13)
        for n in (4, 8, 16):
            for L in (1.0, 2.0):
                for _ in range(25):
                    x = _unit(rng, n)
                    res = lcd(x, L)
                    if not res.capped:
                        assert res.value > L
                    assert res.value >= 1.0 / (2.0 * np.abs(x).max()) - 1e-9

    def test_capped_result(self):
        # Uniform vector: below 1/(2 ||x||inf) = sqrt(n)/2 = 5 nothing can
        # qualify, so a cap of 2 certifies only the lower bound.
        x = np.full(100, 0.1)
        res = lcd(x, 1.0, theta_cap=2.0)
        assert res.capped and res.value == 2.0
        assert math.isnan(res.witness_theta)

    def test_agrees_with_interval_scan(self):
        tol = 1e-9
        for x, L, cap in _lcd_test_vectors(300, seed=15):
            res = lcd(x, L, theta_cap=cap)
            value, capped = _lcd_interval_scan(x, L, theta_cap=cap, tol=tol)
            assert res.capped == capped
            assert abs(res.value - value) <= tol

    @staticmethod
    def _check_windows(x, L, cap):
        """The windows tile [L, cap] with the breakpoint grid; c equals a
        direct rounding's exactly and b within the running sum's bound."""
        n = x.size
        eps = np.finfo(np.float64).eps
        mags = np.unique(np.abs(x[x != 0.0]))
        steps = [(np.arange(max(0, math.ceil(L * m - 0.5)), math.floor(cap * m - 0.5) + 1) + 0.5) / m for m in mags]
        grid = np.unique(np.concatenate([[L, cap], *steps]))
        grid = grid[(grid >= L) & (grid <= cap)]
        lo, hi, b, c = map(np.concatenate, zip(*structure._interval_windows(x, L, cap)))
        assert np.array_equal(lo, grid[:-1]) and np.array_equal(hi, grid[1:])
        # Tied breakpoints can land a few ulps apart; at the midpoint of
        # such an interval a direct rounding is itself ambiguous.
        wide = hi - lo > 1e-9 * hi
        lo, hi, b, c = lo[wide], hi[wide], b[wide], c[wide]
        m_round = np.round(np.outer(0.5 * (lo + hi), x))
        assert np.array_equal(c, (m_round * m_round).sum(axis=1))
        assert np.all(np.abs(b + 2.0 * (m_round @ x)) <= 3.0 * n * eps * (2.0 * hi + math.sqrt(n)))

    @pytest.mark.parametrize("window", [5, 64, 1 << 16])
    def test_running_sums_match_direct_rounding(self, monkeypatch, window):
        monkeypatch.setattr(structure, "_LCD_WINDOW", window)
        for x, L, cap in _lcd_test_vectors(40, seed=17):
            self._check_windows(x, L, cap or 20.0 * L)

    def test_running_sums_reanchored(self):
        # n=2 and 2.8e5 intervals: b's steps repeat, so without a
        # re-anchor every n intervals its rounding error grows linearly.
        self._check_windows(np.array([0.6, 0.8]), 1.0, 2e5)

    def test_memory_does_not_grow_with_breakpoints(self):
        # n=250 has about 5e5 breakpoints below the default cap; scanning
        # them all at once takes about 400 MB.
        x = _unit(np.random.default_rng(16), 250)
        tracemalloc.start()
        try:
            lcd(x, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_bad_cap(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        with pytest.raises(ParameterError):
            lcd(e1, 2.0, theta_cap=1.5)


class TestRegularizedLcd:
    def test_exact_enumeration_matches_exhaustive(self):
        rng = np.random.default_rng(14)
        x = _unit(rng, 24)
        spread = spread_set(x, WIDE)
        assert spread is not None and spread.size == 6
        k = math.ceil(WIDE_LAM * 24)
        assert k == 2
        res = regularized_lcd(x, WIDE, WIDE_LAM, budget=15, stream=RngStream(0, 0))
        assert res.exact
        best = -math.inf
        for combo in itertools.combinations(spread.tolist(), k):
            sub = x[list(combo)]
            sub = sub / np.linalg.norm(sub)
            best = max(best, lcd(sub, 1.0).value)
        assert res.lower_bound == pytest.approx(best, abs=1e-9)

    def test_randomized_below_exact(self):
        rng = np.random.default_rng(15)
        x = _unit(rng, 24)
        exact = regularized_lcd(x, WIDE, WIDE_LAM, budget=15, stream=RngStream(0, 0))
        for t in range(20):
            rand = regularized_lcd(x, WIDE, WIDE_LAM, budget=4, stream=RngStream(1, t))
            assert not rand.exact
            assert rand.lower_bound <= exact.lower_bound + 1e-9

    def test_budget_prefix_monotonicity(self):
        rng = np.random.default_rng(16)
        x = _unit(rng, 24)
        small = regularized_lcd(x, WIDE, WIDE_LAM, budget=3, stream=RngStream(7, 7))
        large = regularized_lcd(x, WIDE, WIDE_LAM, budget=9, stream=RngStream(7, 7))
        assert small.lower_bound <= large.lower_bound + 1e-12

    def test_certificate_replay(self):
        rng = np.random.default_rng(17)
        x = _unit(rng, 24)
        res = regularized_lcd(x, WIDE, WIDE_LAM, budget=15, stream=RngStream(0, 0))
        sub = x[list(res.witness_subset)]
        sub = sub / np.linalg.norm(sub)
        assert lcd(sub, 1.0).value == pytest.approx(res.lower_bound, abs=1e-9)

    def test_single_subset_case(self):
        # lambda close to c_oo so ceil(lam n) == |spread|: one candidate only.
        consts, lam = StructureConstants(c_s=0.1, c_d=0.1, c_oo=0.25), 0.24
        rng = np.random.default_rng(18)
        x = _unit(rng, 12)
        spread = spread_set(x, consts)
        assert spread is not None
        assert math.ceil(lam * 12) == spread.size == 3
        res = regularized_lcd(x, consts, lam, budget=1, stream=RngStream(0, 0))
        sub = x[spread]
        sub = sub / np.linalg.norm(sub)
        assert res.exact
        assert res.lower_bound == pytest.approx(lcd(sub, 1.0).value, abs=1e-12)


class TestClassificationInvariance:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_and_sign_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = _unit(rng, 12)
        consts = StructureConstants()
        base = classify_vector(x, consts)
        perm = rng.permutation(12)
        signs = rng.choice([-1.0, 1.0], size=12)
        other = classify_vector(x[perm] * signs, consts)
        assert base.comp_member == other.comp_member
        assert base.dom_member == other.dom_member
        assert base.dist_to_sparse == pytest.approx(other.dist_to_sparse, abs=1e-12)


def test_classify_vector_needs_two_entries():
    # Sparse(m) needs 1 <= m < n, and the budget m is at least 1.
    with pytest.raises(ParameterError, match="2 entries or more"):
        classify_vector(np.array([1.0]), StructureConstants())


@pytest.mark.parametrize(
    "kwargs,word",
    [
        ({"L": math.nan}, "L must"),
        ({"L": math.inf}, "L must"),
        ({"theta_cap": math.nan}, "theta_cap"),
        ({"theta_cap": math.inf}, "theta_cap"),
    ],
)
def test_lcd_non_finite_argument_rejected(kwargs, word):
    # NaN fails every comparison, and a scan to theta_cap = inf never ends.
    x = np.full(4, 0.5)
    with pytest.raises(ParameterError, match=word):
        lcd(x, **{"L": 1.0, **kwargs})

