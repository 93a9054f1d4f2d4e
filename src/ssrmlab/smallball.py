"""The Levy concentration estimator for scalar samples and the LCD small-ball
bracket: the two sides that the ``smallball`` kind compares, and the
comparison itself (``smallball_experiment``).

Window convention: the supremum is taken over open windows
(u - eps, u + eps) for eps > 0 and over single points at eps = 0.  For
continuous laws this coincides with the closed-ball definition; for
atomic laws it excludes atoms sitting exactly on the window boundary,
which keeps the estimate a conservative lower bound of the closed-ball
concentration function.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .ensemble import Purpose, run_trials, sample_sparse_vector, trial_stream
from .model import EntryDistribution
from .structure import lcd


def dkw_halfwidth(n: int) -> float:
    """Interval-mass error bound from the DKW inequality at level 0.05.

    sup-norm CDF error sqrt(log(2/0.05) / (2n)) enters twice because a
    window mass is a difference of two CDF values.
    """
    return 2.0 * math.sqrt(math.log(2.0 / 0.05) / (2.0 * n))


class ConcentrationEstimate(NamedTuple):
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


def lcd_smallball_bound(p: float, eps: float, lcd_value: float) -> float:
    """LCD small-ball bracket eps + 1 / (sqrt(p) D), with D = ``lcd_value``.

    The accompanying absolute constant is unknown and not applied;
    callers compare shapes and orderings, not levels.  Needs 0 < p <= 1,
    eps >= 0 (``harness``'s smallball record) and a finite D > 0 (an ``lcd`` value).
    """
    return eps + 1.0 / (math.sqrt(p) * lcd_value)


def smallball_experiment(
    n: int, p: float, dist: EntryDistribution, eps_grid, trials: int, master_seed: int = 0, workers: int = 1
) -> tuple[list[list], dict]:
    """The smallball kind's rows at x = (1, ..., 1) / sqrt(n), per eps: the estimated concentration
    of <x, X> at eps sqrt(p), its CI, the bracket at D = LCD(x) and whether the estimate is within
    the fitted constant times the bracket; and the sidecar's summary.  Needs n >= 1, 0 < p <= 1,
    eps points >= 0 and trials >= 1 (checked by ``harness``)."""
    x = np.full(n, 1.0 / math.sqrt(n))
    d = lcd(x, 1.0)
    # One sample set of <x, X_t> serves the whole eps grid (monotone estimates).
    sums = np.array(run_trials(partial(_sparse_sum_trial, master_seed, p, dist), [x], trials, workers)[0])
    rows = []
    for eps in eps_grid:
        est = levy_concentration_scalar(sums, eps * math.sqrt(p))
        rows.append([eps, est.value, est.ci_halfwidth, lcd_smallball_bound(p, eps, d.value)])
    # Each bracket eps + 1/(sqrt(p) D) is > 0: D is finite and p > 0.
    c_hat = max(row[1] / row[3] for row in rows)
    rows = [row + [row[1] <= c_hat * row[3] + 1e-12] for row in rows]
    return rows, {"fitted_constant": c_hat, "lcd_value": d.value, "lcd_capped": d.capped}
