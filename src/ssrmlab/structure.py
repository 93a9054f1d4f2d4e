"""Vector structure: sparse/compressible/dominated classes, spread sets,
and the least-common-denominator (LCD) search engines.

The LCD of a unit vector x at scale L is the infimum of theta > 0 with
dist(theta x, Z^n) < L sqrt(log+(theta / L)).  Between consecutive
half-integer crossings of the coordinates theta * x_i, the squared
lattice distance is an explicit quadratic in theta, and the squared
threshold is concave, so their difference is convex per interval; the
scan walks the intervals in order and brackets the first sign change.

Every function here takes x as a 1-d float64 unit vector (up to
rounding) and does not check it: ``cli`` reads, checks and normalizes a
vector file once, and the other callers pass eigenvectors or vectors they
normalize themselves.  ``classify_vector`` checks the budget rule
1 <= m < n, and ``harness`` checks distance-check's M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Breakpoints generated, sorted and scanned at a time by ``lcd``.  About 21
# arrays of this length are live at once (2.7 MB at 1 << 14, 10.6 MB at
# 1 << 16); at 1 << 12 the per-window overhead slows the scan.
_LCD_WINDOW = 1 << 14

_LCD_BUDGET = 10**10  # breakpoints ``lcd`` scans with no witness before it refuses: ~30 min for 400 entries
_LCD_TOL = 1e-9  # ``lcd``'s bisection width, unless its ends are adjacent floats first


@dataclass(frozen=True)
class StructureConstants:
    """The constants of ``classify_vector`` and ``spread_set``.

    Defaults satisfy the convention (1/4) c_s c_d^2 <= c_oo <= 1/4.
    """

    c_s: float = 0.1
    c_d: float = 0.1
    c_oo: float = 0.025

    def __post_init__(self):
        if not 0.0 < self.c_s < 1.0:
            raise ParameterError("c_s must lie in (0, 1)")
        if not 0.0 < self.c_d < 1.0:
            raise ParameterError("c_d must lie in (0, 1)")
        lo = 0.25 * self.c_s * self.c_d**2
        if not lo <= self.c_oo <= 0.25:
            raise ParameterError(
                f"c_oo must lie in [{lo:g}, 0.25], got {self.c_oo!r}"
            )

    def sparsity_budget(self, n: int) -> int:
        """Integer sparsity budget m for Comp(c_s n, c_d) at dimension n."""
        return max(1, int(math.floor(self.c_s * n)))

    def spread_size(self, n: int) -> int:
        return int(math.ceil(self.c_oo * n))


@dataclass(frozen=True)
class StructureReport:
    m: int
    dist_to_sparse: float
    comp_member: bool
    dom_member: bool
    spread_set: tuple[int, ...] | None


@dataclass(frozen=True)
class LcdResult:
    value: float
    witness_theta: float
    witness_dist: float
    capped: bool


def sparse_tail_distance(x, m: int) -> float:
    """Distance from unit x to Sparse(m), for 1 <= m < n.

    The nearest m-sparse vector keeps the m largest-magnitude coordinates,
    so the distance is the norm of the rest (whichever of tied
    coordinates is kept).
    """
    order = np.argsort(-np.abs(x), kind="stable")
    return float(np.linalg.norm(x[order[m:]]))


def is_dominated(x, m: int, alpha: float) -> bool:
    """Dominated-tail test on the non-increasing rearrangement:
    ||x_[m+1:n]||_2 <= alpha sqrt(m) ||x_[m+1:n]||_inf, for 1 <= m < n."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    tail = np.sort(np.abs(x))[: x.size - m]
    tail_l2 = float(np.linalg.norm(tail))
    tail_inf = float(tail.max(initial=0.0))
    return tail_l2 <= alpha * math.sqrt(m) * tail_inf


def spread_set(x, consts: StructureConstants) -> np.ndarray | None:
    """The spread coordinate set of an incompressible unit vector.

    Returns ceil(c_oo n) indices k with c_d / sqrt(2n) <= |x_k| <=
    1 / sqrt(c_s n), preferring larger magnitudes and then lower indices.
    Undefined (None) when x is compressible or too few indices qualify.
    """
    n = x.size
    if sparse_tail_distance(x, consts.sparsity_budget(n)) <= consts.c_d:
        return None
    lo = consts.c_d / math.sqrt(2.0 * n)
    hi = 1.0 / math.sqrt(consts.c_s * n)
    mags = np.abs(x)
    qualifying = np.flatnonzero((mags >= lo) & (mags <= hi))
    size = consts.spread_size(n)
    if qualifying.size < size:
        return None
    order = np.argsort(-mags[qualifying], kind="stable")
    chosen = qualifying[order[:size]]
    return np.sort(chosen)


def _lattice_dist(theta: float, x: np.ndarray) -> float:
    y = theta * x
    return float(np.linalg.norm(y - np.round(y)))


def _threshold_sq(theta, L: float):
    # L^2 * log+(theta / L); valid for theta >= L where log is nonnegative.
    return L * L * np.log(np.maximum(theta / L, 1.0))


def _rounded_coefficients(mid, x: np.ndarray):
    """b and c of the intervals around ``mid`` by a direct rounding."""
    m_round = np.round(np.outer(mid, x))
    return -2.0 * (m_round @ x), (m_round * m_round).sum(axis=1)


def _interval_minima(a: float, L: float, lo, hi, b, c):
    """Per interval: f(lo), f(hi), the stationary point, whether it lies
    inside, and min f, for f = a theta^2 + b theta + c - threshold^2."""

    def f_at(theta):
        return a * theta * theta + b * theta + c - _threshold_sq(theta, L)

    f_lo = f_at(lo)
    f_hi = f_at(hi)
    # Interior stationary point of the convex difference:
    # 2 a theta^2 + b theta - L^2 = 0.
    disc = np.sqrt(b * b + 8.0 * a * L * L)
    t_star = (-b + disc) / (4.0 * a)
    inside = (t_star > lo) & (t_star < hi)
    f_star = np.where(inside, f_at(np.where(inside, t_star, 0.5 * (lo + hi))), np.inf)
    return f_lo, f_hi, t_star, inside, np.minimum(np.minimum(f_lo, f_hi), f_star)


def _confirm(x: np.ndarray, a: float, L: float, left: float, right: float) -> LcdResult | None:
    """The first crossing in [left, right], with b and c from a direct
    rounding at the interval's midpoint, or None when none is confirmed."""
    lo, hi = np.array([left]), np.array([right])
    b, c = _rounded_coefficients(0.5 * (lo + hi), x)
    f_lo, f_hi, t_star, inside, f_min = _interval_minima(a, L, lo, hi, b, c)
    if not f_min[0] < 0.0:
        return None
    lsq = L * L

    def f_scalar(theta: float) -> float:
        mm = np.round(theta * x)
        d = theta * x - mm
        return float(d @ d) - lsq * max(math.log(theta / L), 0.0)

    t_min = float(t_star[0]) if inside[0] else (left if f_lo[0] < f_hi[0] else right)
    if f_scalar(left) < 0.0:
        root = neg = left
    else:
        # Leftmost crossing lies in [left, t_neg] where f(t_neg) < 0.
        t_neg = t_min
        if f_scalar(t_neg) >= 0.0:
            # Convex dip detected vectorized but endpoint noise: probe.
            probes = np.linspace(left, right, 64)
            below = [p for p in probes if f_scalar(float(p)) < 0.0]
            if not below:
                return None
            t_neg = float(below[0])
        a_br, b_br = left, t_neg
        while b_br - a_br > _LCD_TOL:
            m_br = 0.5 * (a_br + b_br)
            if m_br in (a_br, b_br):
                break  # adjacent floats: the bracket cannot narrow
            if f_scalar(m_br) < 0.0:
                b_br = m_br
            else:
                a_br = m_br
        root, neg = 0.5 * (a_br + b_br), b_br
    # f(neg) < 0: the fallback where, at adjacent floats, f = 0 at both.
    witness = root + 0.5 * _LCD_TOL
    if not (witness < right and f_scalar(witness) < 0.0):
        witness = root if f_scalar(root) < 0.0 else neg
    return LcdResult(
        value=float(root),
        witness_theta=float(witness),
        witness_dist=_lattice_dist(float(witness), x),
        capped=False,
    )


def _interval_windows(x: np.ndarray, L: float, theta_cap: float):
    """Yield (lo, hi, b, c) for the breakpoint intervals of [L, theta_cap],
    in order, about _LCD_WINDOW intervals at a time (see ``lcd``)."""
    n = x.size
    mags, mult = np.unique(np.abs(x[x != 0.0]), return_counts=True)
    # Per magnitude, the next breakpoint index k to generate and the last.
    k_next = np.maximum(np.ceil(L * mags - 0.5), 0.0)
    k_last = np.floor(theta_cap * mags - 0.5)
    span = _LCD_WINDOW / mags.sum()  # theta range holding about one window
    edge, reach = L, L
    while True:
        reach += span
        count = (np.minimum(np.floor(reach * mags - 0.5), k_last) - k_next + 1.0).clip(0.0).astype(np.int64)
        which = np.repeat(np.arange(mags.size), count)
        k = k_next[which] + (np.arange(which.size) - np.repeat(np.cumsum(count) - count, count))
        points = (k + 0.5) / mags[which]
        # Keep the breakpoints below every magnitude's first ungenerated
        # one; the rest are generated again by the next window.
        pending = k_next + count
        open_ = pending <= k_last
        limit = float(((pending[open_] + 0.5) / mags[open_]).min()) if open_.any() else math.inf
        order = np.argsort(points, kind="stable")
        order = order[: np.searchsorted(points[order], limit)]
        which, k, points = which[order], k[order], points[order]
        k_next = k_next + np.bincount(which, minlength=mags.size)
        inner = (points > L) & (points < theta_cap)
        which, k, points = which[inner], k[inner], points[inner]
        grid, first = np.unique(points, return_index=True)
        done = not open_.any()
        hi = np.r_[grid, theta_cap] if done else grid
        size = hi.size
        if size:
            lo = np.r_[edge, grid][:size]
            rows = -(-size // n)
            # Row-major (rows, n): entry j is the step into interval j.
            b = np.zeros(rows * n)
            c = np.zeros(rows * n)
            b[1:size] = np.add.reduceat(-2.0 * mags[which] * mult[which], first)[: size - 1]
            c[1:size] = np.add.reduceat((2.0 * k + 1.0) * mult[which], first)[: size - 1]
            b, c = b.reshape(rows, n), c.reshape(rows, n)
            b[:, 0], c[:, 0] = _rounded_coefficients(0.5 * (lo[::n] + hi[::n]), x)
            yield lo, hi, b.cumsum(axis=1).ravel()[:size], c.cumsum(axis=1).ravel()[:size]
            edge = float(hi[-1])
        if done:
            return


def lcd(x, L: float, theta_cap: float | None = None) -> LcdResult:
    """Least common denominator of a unit vector by event-driven scan.

    Scans theta in [L, theta_cap]: interval endpoints are the points
    where some theta * x_i crosses a half-integer (plus L itself, where
    the threshold kinks).  Within an interval f(theta) = dist^2 - threshold^2
    = a theta^2 + b theta + c - threshold^2 is convex, so its minimum and
    leftmost root are found in closed form plus a safeguarded bisection.
    A capped result certifies D >= theta_cap.

    The filter costs O(1) per breakpoint, not O(n): at the breakpoint
    (k + 1/2) / |x_i| the rounding r_i of theta |x_i| steps from k to k + 1
    (for every coordinate of that magnitude), so b = -2 sum |x_i| r_i moves
    by -2|x_i| and c = sum r_i^2, integer-valued and exact, by 2k + 1.  b
    and c are re-anchored from a direct rounding at the midpoint of every
    n-th interval, which keeps b's error within that of one direct
    rounding's dot product.  Breakpoints are generated, sorted and scanned
    in windows of a fixed size, so memory does not grow with n.  Each
    interval the filter flags, within a slack for rounding, is evaluated
    again from a direct rounding before the scalar confirmation.

    Guarantees: an uncapped value is >= L (the infimum is L when dist(L x,
    Z^n) = 0); its witness_theta > L satisfies the strict inequality.  The value
    is >= 1/(2||x||_inf) up to _LCD_TOL (one float spacing past theta =
    2^23), since below that each |theta x_i| < 1/2, so
    dist(theta x, Z^n) = theta > L sqrt(log+(theta/L)).  1/||x||_inf is
    not a lower bound: past 1/(2||x||_inf) the largest coordinate rounds
    to +-1 and the distance can fall under the threshold.

    Bound: theta_cap ||x||_inf must stay below 2^52.  Past it k + 1/2 is
    not a float, so theta x_i keeps no fractional bit to measure a lattice
    distance with, and breakpoints merge; such a cap is a ParameterError.
    So is a scan that passes _LCD_BUDGET breakpoints with no witness.
    """
    n = x.size
    if not 1.0 <= L < math.inf:
        raise ParameterError("L must be finite and >= 1")
    if theta_cap is None:
        theta_cap = 10.0 * n * math.sqrt(n)
        theta_cap = max(theta_cap, 2.0 * L)
    if not L < theta_cap < math.inf:
        raise ParameterError("theta_cap must be finite and exceed L")
    top = theta_cap * float(np.abs(x).max())
    if top >= 2.0**52:
        raise ParameterError(f"theta_cap * max|x_i| must stay below 2^52 (float resolution), got {top:g}")

    a = float(x @ x)  # ~1 for unit input
    eps = np.finfo(np.float64).eps
    scanned = 0
    for lo, hi, b, c in _interval_windows(x, L, theta_cap):
        f_min = _interval_minima(a, L, lo, hi, b, c)[-1]
        # c is exact.  b carries fewer than n roundings of eps |b| past its
        # anchor, and each direct rounding's dot product at most n more, so
        # with |b| <= 2 theta + sqrt(n), b theta may differ from a direct
        # evaluation by 6 n eps (theta + sqrt(n))^2: the slack is twice that
        # plus the rounding of the evaluation itself.
        slack = (16.0 * n + 64.0) * eps * (hi + math.sqrt(n)) ** 2
        for j in np.flatnonzero(f_min < slack):
            hit = _confirm(x, a, L, float(lo[j]), float(hi[j]))
            if hit is not None:
                return hit
        scanned += lo.size
        if scanned > _LCD_BUDGET:
            raise ParameterError(f"lcd passed {_LCD_BUDGET:.0e} breakpoints at theta = {float(hi[-1]):g} with no witness")
    return LcdResult(
        value=float(theta_cap),
        witness_theta=math.nan,
        witness_dist=math.nan,
        capped=True,
    )


def classify_vector(x, consts: StructureConstants, alpha: float = 0.5) -> StructureReport:
    """StructureReport for one unit vector at the configured constants."""
    n = x.size
    m = consts.sparsity_budget(n)
    if m >= n:  # m >= 1 always, and m < n exactly when n >= 2
        raise ParameterError("structure needs a vector of 2 entries or more")
    dist = sparse_tail_distance(x, m)
    spread = spread_set(x, consts)
    return StructureReport(
        m=m,
        dist_to_sparse=dist,
        comp_member=dist <= consts.c_d,
        dom_member=is_dominated(x, m, alpha),
        spread_set=tuple(int(i) for i in spread) if spread is not None else None,
    )
