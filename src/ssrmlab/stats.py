"""Shared statistical helpers: Wilson intervals, medians and log-log slope fits."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# 95% two-sided normal quantile; tail probabilities near 0 are the
# regime of interest, hence Wilson rather than Wald.
Z95 = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; needs
    0 <= successes <= trials and trials >= 1 (``harness`` checks trials)."""
    phat, z = successes / trials, Z95
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - margin), min(1.0, center + margin)


def median(values: np.ndarray) -> float:
    """The median of a nonempty sample, the very float ``np.median`` gives
    (NaN if any value is), without its import of ``numpy.ma`` (about 19 ms)."""
    s = np.sort(values)
    k = s.size // 2
    return math.nan if np.isnan(s[-1]) else float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2)


class SlopeFit(NamedTuple):
    slope: float
    ci_halfwidth: float
    intercept: float
    n_points: int


def determined_slope(points) -> SlopeFit | None:
    """Least-squares slope of log y against log x through the (x, y)
    ``points``, each x, y > 0, with a normal-theory CI; None when there
    are fewer than four points or their logs of x are all equal (distinct
    x can share one log)."""
    if len(points) < 4:
        return None
    x, y = zip(*points)
    lx, ly = np.log(np.asarray(x, dtype=np.float64)), np.log(np.asarray(y, dtype=np.float64))
    if (lx == lx[0]).all():
        return None
    mx = lx.mean()
    sxx = float(((lx - mx) ** 2).sum())
    slope = float(((lx - mx) * (ly - ly.mean())).sum() / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (slope * lx + intercept)
    se = math.sqrt(float((resid**2).sum()) / (lx.size - 2) / sxx)
    return SlopeFit(slope, Z95 * se, intercept, lx.size)
