import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import decoupling_consequence_check
from ssrmlab.ensemble import RngStream
from ssrmlab.model import EntryDistribution
from ssrmlab.smallball import lcd_smallball_bound, levy_concentration_scalar

RAD = EntryDistribution("rademacher")


def _levy_exact_oracle(values, probs, eps):
    """Independent enumeration: best open window over a finite law.

    For eps > 0 the optimum is attained by anchoring the window at an
    atom, [a, a + 2 eps); at eps = 0 it is the largest atom mass.
    """
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if eps == 0.0:
        return float(probs.max())
    best = 0.0
    for a in values:
        mass = probs[(values >= a) & (values < a + 2 * eps)].sum()
        best = max(best, float(mass))
    return best


def _samples_from_law(values, weights):
    """Sample multiset realizing exact rational frequencies."""
    out = []
    for v, w in zip(values, weights):
        out.extend([v] * w)
    return np.asarray(out, dtype=np.float64)


class TestLevyScalar:
    def test_constant_samples_any_eps(self):
        xs = np.zeros(100)
        for eps in (0.0, 0.3, 2.0):
            assert levy_concentration_scalar(xs, eps).value == 1.0

    def test_rademacher_exact_half(self):
        xs = _samples_from_law([-1.0, 1.0], [500, 500])
        assert levy_concentration_scalar(xs, 0.5).value == 0.5

    def test_masked_rademacher_three_atoms(self):
        # delta*xi at p = 1/2: atoms (-1, 0, 1) with masses (1/4, 1/2, 1/4);
        # the best open window of width 1 captures only the atom at 0.
        xs = _samples_from_law([-1.0, 0.0, 1.0], [25, 50, 25])
        assert levy_concentration_scalar(xs, 0.5).value == 0.5

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            values = np.sort(rng.normal(size=k))
            weights = rng.integers(1, 30, size=k)
            xs = _samples_from_law(values, weights)
            probs = weights / weights.sum()
            for eps in (0.0, 0.1, 0.5, 1.3):
                got = levy_concentration_scalar(xs, eps).value
                want = _levy_exact_oracle(values, probs, eps)
                assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_eps(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=200)
        values = [levy_concentration_scalar(xs, e).value for e in (0.0, 0.1, 0.2, 0.5, 1.0)]
        assert values == sorted(values)

    def test_ci_shrinks(self):
        small = levy_concentration_scalar(np.zeros(100), 0.1)
        large = levy_concentration_scalar(np.zeros(10_000), 0.1)
        assert large.ci_halfwidth < small.ci_halfwidth


class TestBoundBrackets:
    def test_lcd_bracket_limits(self):
        assert lcd_smallball_bound(0.25, 0.1, 20.0) == pytest.approx(0.2, abs=1e-15)

    def test_lcd_bracket_monotone(self):
        base = lcd_smallball_bound(0.5, 0.1, 10.0)
        assert lcd_smallball_bound(0.5, 0.2, 10.0) >= base
        assert lcd_smallball_bound(0.5, 0.1, 20.0) <= base


class TestDecoupling:
    def test_zero_matrix(self):
        check = decoupling_consequence_check(np.zeros((3, 3)), [0], RAD, 0.5, 2000, RngStream(37, 0))
        assert check.lhs.value == 1.0
        assert check.rhs.value == 1.0
        assert check.holds

    def test_diagonal_exact_case(self):
        # G = diag(1,1), J = {0}: the quadratic form is identically 2 and
        # the decoupled bilinear form identically 0, so both sides are
        # exactly 1 and the inequality holds with zero slack.  Verified
        # here by exact enumeration of the 16 sign patterns.
        G = np.eye(2)
        lhs_atoms = []
        rhs_atoms = []
        for x1 in (-1, 1):
            for x2 in (-1, 1):
                lhs_atoms.append(x1 * x1 + x2 * x2)
                for xp2 in (-1, 1):
                    rhs_atoms.append((x2 - xp2) * 0.0 * x1)
        assert _levy_exact_oracle([2.0], [1.0], 0.5) == 1.0
        assert set(lhs_atoms) == {2}
        assert set(rhs_atoms) == {0.0}
        check = decoupling_consequence_check(G, [0], RAD, 0.5, 4096, RngStream(37, 1))
        assert check.lhs.value == 1.0
        assert check.rhs.value == 1.0
        assert check.lhs.value**2 <= check.rhs.value  # zero slack needed

    def test_random_configurations_hold(self):
        rng = np.random.default_rng(38)
        for t in range(20):
            G = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
            G = np.triu(G) + np.triu(G, 1).T
            size = int(rng.integers(1, 6))
            J = rng.choice(6, size=size, replace=False).tolist()
            check = decoupling_consequence_check(G, J, RAD, 0.75, 4000, RngStream(39, t))
            assert check.holds
