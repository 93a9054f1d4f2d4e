"""Levy concentration estimators and the small-ball bound brackets.

Window convention for the scalar estimator: the supremum is taken over
open windows (u - eps, u + eps) for eps > 0 and over single points at
eps = 0.  For continuous laws this coincides with the closed-ball
definition; for atomic laws it excludes atoms sitting exactly on the
window boundary, which keeps the estimate a conservative lower bound of
the closed-ball concentration function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensemble import EntryDistribution, RngStream
from .errors import CapabilityError, ParameterError

Sampler = Callable[[np.random.Generator, tuple], np.ndarray]


def dkw_halfwidth(n: int, alpha: float = 0.05) -> float:
    """Interval-mass error bound from the DKW inequality.

    sup-norm CDF error sqrt(log(2/alpha) / (2n)) enters twice because a
    window mass is a difference of two CDF values.
    """
    return 2.0 * math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@dataclass(frozen=True)
class ConcentrationEstimate:
    epsilon: float
    value: float
    samples: int
    ci_halfwidth: float


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite-support law given by atoms and probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ParameterError("values and probs must be matching nonempty 1-d arrays")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ParameterError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def moment(self, k: int) -> float:
        return float((self.values**k) @ self.probs)

    def transform(self, fn) -> "DiscreteLaw":
        """Law of fn(xi); merges atoms that map to the same value."""
        mapped = np.array([fn(v) for v in self.values], dtype=np.float64)
        vals, inverse = np.unique(mapped, return_inverse=True)
        probs = np.zeros_like(vals)
        np.add.at(probs, inverse, self.probs)
        return DiscreteLaw(vals, probs)


def law_of_masked_entry(dist: EntryDistribution, p: float) -> DiscreteLaw:
    """Finite law of delta * xi for discrete xi: adds the atom at zero."""
    at = dist.atoms()
    if at is None:
        raise CapabilityError(f"{dist.kind} has no finite support")
    values, probs = at
    values = np.concatenate([values, [0.0]])
    probs = np.concatenate([probs * p, [1.0 - p]])
    order = np.argsort(values)
    merged_vals, inverse = np.unique(values[order], return_inverse=True)
    merged = np.zeros_like(merged_vals)
    np.add.at(merged, inverse, probs[order])
    return DiscreteLaw(merged_vals, merged)


def levy_concentration_scalar(samples, eps: float) -> ConcentrationEstimate:
    """Exact sliding-window maximization of empirical window mass.

    For eps > 0 this computes max_i #{samples in [s_i, s_i + 2 eps)} / N,
    which equals the supremum over open windows of width 2 eps; at
    eps = 0 it is the largest point multiplicity.
    """
    s = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if s.size == 0:
        raise ParameterError("empty sample list")
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    n = s.size
    if eps == 0.0:
        _, counts = np.unique(s, return_counts=True)
        best = int(counts.max())
    else:
        upper = np.searchsorted(s, s + 2.0 * eps, side="left")
        best = int((upper - np.arange(n)).max())
    return ConcentrationEstimate(eps, best / n, n, dkw_halfwidth(n))


def levy_concentration_vector(
    samples, eps: float, centers: np.ndarray | None = None
) -> ConcentrationEstimate:
    """Lower-bound estimate of the vector concentration function.

    Candidate centers default to every sample point plus the origin; the
    reported value is the best closed-ball mass over the candidates,
    which lower-bounds the supremum over all of R^n.  The CI halfwidth is
    the Wilson halfwidth at the winning count.
    """
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.size == 0:
        raise ParameterError("expected a nonempty (N, d) sample array")
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    n, d = pts.shape
    if d == 1 and centers is None:
        # Dimension one admits the exact sliding-window supremum.
        return levy_concentration_scalar(pts.ravel(), eps)
    if centers is None:
        centers = np.vstack([pts, np.zeros((1, d))])
    else:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != d:
            raise ParameterError("centers dimension mismatch")
    # Imported here, so that importing ssrmlab (every CLI process) skips scipy.spatial.
    from scipy.spatial import cKDTree
    tree = cKDTree(pts)
    counts = tree.query_ball_point(centers, r=eps, return_length=True)
    best = int(np.max(counts))
    from .stats import wilson_interval

    lo, hi = wilson_interval(best, n)
    return ConcentrationEstimate(eps, best / n, n, (hi - lo) / 2.0)


def lcd_smallball_bound(x, L: float, p: float, eps: float, lcd_value: float) -> float:
    """LCD small-ball bracket eps + 1 / (sqrt(p) D).

    The accompanying absolute constant is unknown and not applied;
    callers compare shapes and orderings, not levels.
    """
    if not 0.0 < p <= 1.0:
        raise ParameterError("p must lie in (0, 1]")
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    if L < 1.0:
        raise ParameterError("L must be >= 1")
    if lcd_value <= 0:
        raise ParameterError("lcd_value must be positive")
    tail = 0.0 if math.isinf(lcd_value) else 1.0 / (math.sqrt(p) * lcd_value)
    return eps + tail


def rlcd_smallball_bound(x, consts, p: float, eps: float, rlcd_lower: float) -> float:
    """Bracket eps / sqrt(lambda) + 1 / (sqrt(p) D_hat) for the regularized LCD."""
    lam = consts.lam
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    if not 0.0 < p <= 1.0:
        raise ParameterError("p must lie in (0, 1]")
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    if rlcd_lower <= 0:
        raise ParameterError("rlcd_lower must be positive")
    tail = 0.0 if math.isinf(rlcd_lower) else 1.0 / (math.sqrt(p) * rlcd_lower)
    return eps / math.sqrt(lam) + tail


def matrix_bracket_log(bracket: float, n: int, lam: float) -> float:
    """log of bracket^(n - lambda n), evaluated in log space to avoid overflow."""
    if bracket <= 0:
        raise ParameterError("bracket must be positive")
    if not 0.0 < lam < 1.0:
        raise ParameterError("lambda must lie in (0, 1)")
    return (n - lam * n) * math.log(bracket)


def paley_zygmund_check(law, theta: float) -> bool:
    """Verify P(xi > theta E xi) >= (E xi - theta E xi)^2 / E xi^2 exactly.

    Accepts a DiscreteLaw or a finite-support EntryDistribution.  This is
    a theorem; a False return signals an implementation bug somewhere.
    """
    if isinstance(law, EntryDistribution):
        at = law.atoms()
        if at is None:
            raise CapabilityError(f"{law.kind} has infinite support")
        law = DiscreteLaw(*at)
    if not isinstance(law, DiscreteLaw):
        raise ParameterError("expected a DiscreteLaw or finite EntryDistribution")
    if not 0.0 <= theta <= 1.0:
        raise ParameterError("theta must lie in [0, 1]")
    mean = law.mean()
    if mean <= 0:
        raise ParameterError("Paley-Zygmund requires E xi > 0")
    second = law.moment(2)
    lhs = float(law.probs[law.values > theta * mean].sum())
    rhs = (mean - theta * mean) ** 2 / second
    return lhs >= rhs - 1e-15


@dataclass(frozen=True)
class TensorizationReport:
    n: int
    eps: float
    coordinate_estimate: ConcentrationEstimate
    vector_estimate: ConcentrationEstimate
    c_hat: float


def tensorization_check(
    coordinate_law: Sampler, n: int, eps: float, trials: int, stream: RngStream
) -> TensorizationReport:
    """Estimate both sides of the tensorization inequality.

    Reports the smallest constant C_hat with
    vector_estimate <= (C_hat * coordinate_estimate)^n, for shape
    validation against the product form.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = stream.generator()
    block = np.asarray(coordinate_law(rng, (trials, n)), dtype=np.float64)
    if block.shape != (trials, n):
        raise ParameterError("sampler returned a wrong shape")
    coord = levy_concentration_scalar(block.ravel(), eps)
    vec = levy_concentration_vector(block, eps * math.sqrt(n))
    if coord.value > 0 and vec.value > 0:
        c_hat = vec.value ** (1.0 / n) / coord.value
    else:
        c_hat = math.nan
    return TensorizationReport(n, eps, coord, vec, c_hat)


@dataclass(frozen=True)
class DecouplingCheck:
    lhs: ConcentrationEstimate
    rhs: ConcentrationEstimate
    slack: float
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def decoupling_consequence_check(
    G: np.ndarray,
    J: Sequence[int],
    dist: EntryDistribution,
    eps: float,
    trials: int,
    stream: RngStream,
) -> DecouplingCheck:
    """Monte Carlo check of the decoupling consequence
    L(<GX, X>, eps)^2 <= L(<G P_Jc (X - X'), P_J X>, eps) + slack.

    The right-hand side takes the supremum over centers, which dominates
    the existential shift in the underlying inequality; slack is the sum
    of the two CI halfwidths.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ParameterError("G must be square")
    if not np.allclose(G, G.T, atol=1e-12):
        raise ParameterError("G must be symmetric")
    n = G.shape[0]
    J = sorted(set(int(j) for j in J))
    if not J or len(J) >= n:
        raise ParameterError("J must be a proper nonempty subset")
    if any(j < 0 or j >= n for j in J):
        raise ParameterError("J index out of range")
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = stream.generator()

    X = dist.sample(rng, (trials, n))
    quad = np.einsum("ti,ij,tj->t", X, G, X)
    lhs = levy_concentration_scalar(quad, eps)

    mask_j = np.zeros(n, dtype=bool)
    mask_j[J] = True
    X2 = dist.sample(rng, (trials, n))
    X2p = dist.sample(rng, (trials, n))
    Y = (X2 - X2p) * (~mask_j)
    bilinear = np.einsum("ti,ij,tj->t", Y, G, X2 * mask_j)
    rhs = levy_concentration_scalar(bilinear, eps)

    slack = lhs.ci_halfwidth + rhs.ci_halfwidth
    return DecouplingCheck(lhs, rhs, slack, lhs.value**2 <= rhs.value + slack)
