"""Shared statistical helpers: Wilson intervals and log-log slope fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# 95% two-sided normal quantile; tail probabilities near 0 are the
# regime of interest, hence Wilson rather than Wald.
Z95 = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ParameterError("need 0 <= successes <= trials")
    if trials == 0:
        return 0.0, 1.0
    phat, z = successes / trials, Z95
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - margin), min(1.0, center + margin)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    ci_halfwidth: float
    intercept: float
    n_points: int


def fit_loglog_slope(x, y) -> SlopeFit:
    """Least-squares slope of log y against log x with a normal-theory CI."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError("x and y must be matching 1-d arrays")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ParameterError("log-log fit needs strictly positive data")
    if x.size < 2:
        raise ParameterError("need at least two points")
    lx, ly = np.log(x), np.log(y)
    mx = lx.mean()
    sxx = float(((lx - mx) ** 2).sum())
    if sxx == 0.0:
        raise ParameterError("x values are all equal")
    slope = float(((lx - mx) * (ly - ly.mean())).sum() / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (slope * lx + intercept)
    if x.size > 2:
        se = math.sqrt(float((resid**2).sum()) / (x.size - 2) / sxx)
    else:
        se = 0.0
    return SlopeFit(slope, Z95 * se, intercept, int(x.size))


def determined_slope(points) -> SlopeFit | None:
    """The log-log slope through (x, y) ``points``, or None when there are
    fewer than four of them or they share one x value."""
    if len(points) < 4 or len({x for x, _ in points}) < 2:
        return None
    return fit_loglog_slope(*zip(*points))
