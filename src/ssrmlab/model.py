"""The ensemble's parameters: the law of one entry, and (n, p, law).

Pure Python, so that configs are parsed and checked without numpy;
``ensemble.sample_entries`` draws from a law.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

from .errors import ParameterError

# The largest n whose n x n float64 array (8 n^2 bytes) is addressable;
# it bounds a vector kind's length too.  Past it numpy fails with
# ValueError or OverflowError, not MemoryError.
MAX_N = math.isqrt(sys.maxsize // 8)

_KINDS = ("rademacher", "standard-gaussian", "uniform-symmetric", "two-point-general")


@dataclass(frozen=True)
class EntryDistribution:
    """Law of a single entry xi: mean 0, variance 1, finite fourth moment.

    ``(kind, prob)`` fixes the law.  Only two-point laws take ``prob``,
    the mass of their positive atom ``a``; the negative atom is forced by
    mean zero, and ``a`` by unit variance.
    """

    kind: str
    prob: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown entry distribution kind {self.kind!r}")
        if self.kind != "two-point-general":
            if self.prob is not None:
                raise ParameterError(f"{self.kind} takes no atom parameters")
            return
        if not isinstance(self.prob, numbers.Real) or not 0.0 < self.prob < 1.0:
            raise ParameterError("two-point prob must lie in (0, 1)")
        if not math.isfinite(self.fourth_moment):
            raise ParameterError(f"two-point prob {self.prob!r} gives an infinite fourth moment")

    @property
    def fourth_moment(self) -> float:
        """E[xi^4]."""
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "standard-gaussian":
            return 3.0
        if self.kind == "uniform-symmetric":
            return 9.0 / 5.0
        q = 1.0 - self.prob
        return q * q / self.prob + self.prob * self.prob / q

    @property
    def a(self) -> float:
        """The positive atom of a two-point law."""
        return math.sqrt((1.0 - self.prob) / self.prob)


# The kind each name of a law without parameters stands for in configs and
# on the CLI; a two-point law is written ``two-point:<prob>``.
_ALIASES = {
    "rademacher": "rademacher",
    "sign": "rademacher",
    "standard-gaussian": "standard-gaussian",
    "gaussian": "standard-gaussian",
    "normal": "standard-gaussian",
    "uniform-symmetric": "uniform-symmetric",
    "uniform": "uniform-symmetric",
}


def parse_distribution(text: str) -> EntryDistribution:
    """Parse a distribution name as used in configs and on the CLI."""
    text = text.strip()
    if text in _ALIASES:
        return EntryDistribution(_ALIASES[text])
    if text.startswith("two-point:"):
        try:
            prob = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"bad two-point spec {text!r}") from exc
        return EntryDistribution("two-point-general", prob)
    raise ParameterError(f"unknown distribution {text!r}")


@dataclass(frozen=True)
class EnsembleParams:
    """Dimension, sparsity level and entry law: exactly what ``sample_matrix`` reads."""

    n: int
    p: float
    dist: EntryDistribution

    def __post_init__(self):
        try:  # admits int and numpy integers, not floats or strings
            n = operator.index(self.n)
        except TypeError:
            n = 0
        if n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n!r}")
        if n > MAX_N:
            raise ParameterError(f"n must be <= {MAX_N} (an n x n float64 array must be addressable), got {n}")
        # p == 0 is admitted (degenerate zero matrix); experiments reject p < 1/n.
        if not isinstance(self.p, numbers.Real) or not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"sparsity level p must lie in [0, 1], got {self.p!r}")
