"""The Levy concentration estimator for scalar samples, the LCD small-ball
bracket and the decoupling-consequence check for quadratic forms.

Window convention: the supremum is taken over open windows
(u - eps, u + eps) for eps > 0 and over single points at eps = 0.  For
continuous laws this coincides with the closed-ball definition; for
atomic laws it excludes atoms sitting exactly on the window boundary,
which keeps the estimate a conservative lower bound of the closed-ball
concentration function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .ensemble import RngStream, run_trials, sample_entries, sample_sparse_vector, trial_stream
from .errors import ParameterError
from .model import EntryDistribution


def dkw_halfwidth(n: int) -> float:
    """Interval-mass error bound from the DKW inequality at level 0.05.

    sup-norm CDF error sqrt(log(2/0.05) / (2n)) enters twice because a
    window mass is a difference of two CDF values.
    """
    return 2.0 * math.sqrt(math.log(2.0 / 0.05) / (2.0 * n))


@dataclass(frozen=True)
class ConcentrationEstimate:
    value: float
    ci_halfwidth: float


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
    return ConcentrationEstimate(best / n, dkw_halfwidth(n))


def _sparse_sum_trial(master_seed: int, p: float, dist: EntryDistribution, x: np.ndarray, c: int, t: int) -> float:
    return float(x @ sample_sparse_vector(x.size, p, dist, trial_stream(master_seed, c, t)))


def sparse_sum_samples(
    x: np.ndarray, p: float, dist: EntryDistribution, trials: int, master_seed: int, workers: int = 1
) -> np.ndarray:
    """<x, X> for trial t's sparse vector X (coordinates delta * xi) from ``trial_stream(master_seed, 0, t)``."""
    return np.array(run_trials(partial(_sparse_sum_trial, master_seed, p, dist), [x], trials, workers)[0])


def lcd_smallball_bound(p: float, eps: float, lcd_value: float) -> float:
    """LCD small-ball bracket eps + 1 / (sqrt(p) D), with D = ``lcd_value``.

    The accompanying absolute constant is unknown and not applied;
    callers compare shapes and orderings, not levels.
    """
    if not 0.0 < p <= 1.0:
        raise ParameterError("p must lie in (0, 1]")
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    if lcd_value <= 0:
        raise ParameterError("lcd_value must be positive")
    tail = 0.0 if math.isinf(lcd_value) else 1.0 / (math.sqrt(p) * lcd_value)
    return eps + tail


@dataclass(frozen=True)
class DecouplingCheck:
    lhs: ConcentrationEstimate
    rhs: ConcentrationEstimate
    holds: bool


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

    X = sample_entries(dist, rng, (trials, n))
    quad = np.einsum("ti,ij,tj->t", X, G, X)
    lhs = levy_concentration_scalar(quad, eps)

    mask_j = np.zeros(n, dtype=bool)
    mask_j[J] = True
    X2 = sample_entries(dist, rng, (trials, n))
    X2p = sample_entries(dist, rng, (trials, n))
    Y = (X2 - X2p) * (~mask_j)
    bilinear = np.einsum("ti,ij,tj->t", Y, G, X2 * mask_j)
    rhs = levy_concentration_scalar(bilinear, eps)

    slack = lhs.ci_halfwidth + rhs.ci_halfwidth
    return DecouplingCheck(lhs, rhs, lhs.value**2 <= rhs.value + slack)
