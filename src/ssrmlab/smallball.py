"""The Levy concentration estimator for scalar samples and the LCD small-ball
bracket: the two sides that the ``smallball`` kind compares.

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

import numpy as np

from .ensemble import Purpose, run_trials, sample_sparse_vector, trial_stream
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
    eps = 0 it is the largest point multiplicity.  Needs one sample or
    more and eps >= 0 (checked by ``harness``'s smallball record).
    """
    s = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = s.size
    if eps == 0.0:
        _, counts = np.unique(s, return_counts=True)
        best = int(counts.max())
    else:
        upper = np.searchsorted(s, s + 2.0 * eps, side="left")
        best = int((upper - np.arange(n)).max())
    return ConcentrationEstimate(best / n, dkw_halfwidth(n))


def _sparse_sum_trial(master_seed: int, p: float, dist: EntryDistribution, x: np.ndarray, t: int) -> float:
    return float(x @ sample_sparse_vector(x.size, p, dist, trial_stream(master_seed, Purpose.SMALLBALL_X, x.size, p, t)))


def sparse_sum_samples(
    x: np.ndarray, p: float, dist: EntryDistribution, trials: int, master_seed: int, workers: int = 1
) -> np.ndarray:
    """<x, X> for trial t's sparse vector X (coordinates delta * xi), drawn as ``Purpose.SMALLBALL_X``."""
    return np.array(run_trials(partial(_sparse_sum_trial, master_seed, p, dist), [x], trials, workers)[0])


def lcd_smallball_bound(p: float, eps: float, lcd_value: float) -> float:
    """LCD small-ball bracket eps + 1 / (sqrt(p) D), with D = ``lcd_value``.

    The accompanying absolute constant is unknown and not applied;
    callers compare shapes and orderings, not levels.  Needs 0 < p <= 1,
    eps >= 0 (``harness``'s smallball record) and a finite D > 0 (an ``lcd`` value).
    """
    return eps + 1.0 / (math.sqrt(p) * lcd_value)
