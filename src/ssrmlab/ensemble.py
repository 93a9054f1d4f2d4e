"""Sampling of the sparse symmetric ensemble.

Matrices have entries a_ij = delta_ij * xi_ij on the upper triangle
(diagonal included), mirrored below, where delta_ij is Bernoulli(p) and
xi_ij is a centered unit-variance law with finite fourth moment.

Randomness flows through Philox streams keyed by ``(seed, stream_id)``.
Experiments draw from :func:`trial_stream`, id ``(lane << 32) | index``:
lane = cell index for trial t's matrix (single-cell experiments are cell
0), lane 1 for trial t's auxiliary draw (comparison matrix, vector X,
regularized-LCD sampler), lane 2 at index t * x_draws + k for the k-th
of x_draws vectors.  :func:`run_trials`, the one trial engine, keys every
trial by its (cell, trial), so its records are the same at any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import ParameterError

_KINDS = ("rademacher", "standard-gaussian", "uniform-symmetric", "two-point-general")

# Uniform-symmetric support endpoint giving unit variance: Var(U[-a,a]) = a^2/3.
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)


@dataclass(frozen=True)
class EntryDistribution:
    """Law of a single entry xi: mean 0, variance 1, finite fourth moment.

    ``fourth_moment`` stores E[xi^4] and is checked against the analytic
    value for the kind.  Two-point laws carry their positive atom ``a``
    and its probability ``prob``; the negative atom is forced by mean zero.
    """

    kind: str
    variance: float = 1.0
    fourth_moment: float = 1.0
    a: float | None = None
    prob: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown entry distribution kind {self.kind!r}")
        if abs(self.variance - 1.0) > 1e-12:
            raise ParameterError("entry distributions must have unit variance")
        if self.kind == "two-point-general":
            if self.a is None or self.prob is None:
                raise ParameterError("two-point-general requires a and prob")
            if not 0.0 < self.prob < 1.0:
                raise ParameterError("two-point prob must lie in (0, 1)")
            want = math.sqrt((1.0 - self.prob) / self.prob)
            if abs(self.a - want) > 1e-9:
                raise ParameterError(
                    "two-point atoms do not give mean 0 / variance 1: "
                    f"a={self.a!r}, expected {want!r} for prob={self.prob!r}"
                )
        elif self.a is not None or self.prob is not None:
            raise ParameterError(f"{self.kind} takes no atom parameters")
        if abs(self.fourth_moment - self._analytic_fourth_moment()) > 1e-12:
            raise ParameterError(
                f"fourth_moment {self.fourth_moment!r} does not match the "
                f"analytic value {self._analytic_fourth_moment()!r} for {self.kind}"
            )

    def _analytic_fourth_moment(self) -> float:
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "standard-gaussian":
            return 3.0
        if self.kind == "uniform-symmetric":
            return 9.0 / 5.0
        q = 1.0 - self.prob
        return q * q / self.prob + self.prob * self.prob / q

    @classmethod
    def rademacher(cls) -> "EntryDistribution":
        return cls("rademacher", fourth_moment=1.0)

    @classmethod
    def standard_gaussian(cls) -> "EntryDistribution":
        return cls("standard-gaussian", fourth_moment=3.0)

    @classmethod
    def uniform_symmetric(cls) -> "EntryDistribution":
        return cls("uniform-symmetric", fourth_moment=9.0 / 5.0)

    @classmethod
    def two_point(cls, prob: float) -> "EntryDistribution":
        """Asymmetric two-point law: atom sqrt((1-prob)/prob) with mass prob."""
        if not 0.0 < prob < 1.0:
            raise ParameterError("two-point prob must lie in (0, 1)")
        a = math.sqrt((1.0 - prob) / prob)
        q = 1.0 - prob
        m4 = q * q / prob + prob * prob / q
        if not math.isfinite(m4):
            raise ParameterError(f"two-point prob {prob!r} gives an infinite fourth moment")
        return cls("two-point-general", fourth_moment=m4, a=a, prob=prob)

    @property
    def is_subgaussian(self) -> bool:
        # All current kinds are bounded or Gaussian.
        return True

    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, probabilities) for finite-support kinds, else None."""
        if self.kind == "rademacher":
            return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
        if self.kind == "two-point-general":
            b = -self.a * self.prob / (1.0 - self.prob)
            return np.array([b, self.a]), np.array([1.0 - self.prob, self.prob])
        return None

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "rademacher":
            return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
        if self.kind == "standard-gaussian":
            return rng.standard_normal(size)
        if self.kind == "uniform-symmetric":
            return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
        b = -self.a * self.prob / (1.0 - self.prob)
        hit = rng.random(size) < self.prob
        return np.where(hit, self.a, b)


def parse_distribution(text: str) -> EntryDistribution:
    """Parse a distribution name as used in configs and on the CLI."""
    text = text.strip()
    if text in ("rademacher", "sign"):
        return EntryDistribution.rademacher()
    if text in ("standard-gaussian", "gaussian", "normal"):
        return EntryDistribution.standard_gaussian()
    if text in ("uniform-symmetric", "uniform"):
        return EntryDistribution.uniform_symmetric()
    if text.startswith("two-point:"):
        try:
            prob = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"bad two-point spec {text!r}") from exc
        return EntryDistribution.two_point(prob)
    raise ParameterError(f"unknown distribution {text!r}")


@dataclass(frozen=True)
class EnsembleParams:
    """Dimension, sparsity level, entry law, and the operator-norm constant."""

    n: int
    p: float
    dist: EntryDistribution
    c_op: float = 3.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n!r}")
        # p == 0 is admitted (degenerate zero matrix); experiments reject p < 1/n.
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"sparsity level p must lie in [0, 1], got {self.p!r}")
        if self.c_op <= 0:
            raise ParameterError("c_op must be positive")


@dataclass(frozen=True)
class RngStream:
    """Counter-based randomness handle.

    A (seed, stream_id) pair keys a Philox generator, so the sample
    sequence depends only on the pair, never on execution order or
    thread count.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= int(v) < 1 << 64:
                raise ParameterError(f"{name} must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def trial_stream(seed: int, lane: int, index: int) -> RngStream:
    """The stream of draw ``index`` in ``lane``: id ``(lane << 32) | index``."""
    if not 0 <= index < 1 << 32:
        raise ParameterError(f"stream index {index} outside [0, 2**32)")
    return RngStream(seed, (lane << 32) | index)


def run_trials(kernel: Callable, cells: Sequence, trials: int, workers: int = 1) -> list[list]:
    """``kernel(cell, c, t)`` for every cell c and trial t; per cell, records in trial order.

    With more than one worker and task, a pool of at most one process per
    task runs the (cell, trial) tasks in grid order, in chunks of
    ceil(trials / (4 workers)) consecutive tasks; the kernel must pickle
    (a module-level function or a partial of one).
    """
    tasks = [(cell, c, t) for c, cell in enumerate(cells) for t in range(trials)]
    workers = min(workers, len(tasks))
    if workers <= 1:
        records = [kernel(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(kernel, *zip(*tasks), chunksize=max(1, -(-trials // (4 * workers)))))
    return [records[c * trials : (c + 1) * trials] for c in range(len(cells))]


@dataclass(frozen=True)
class SparseSymmetricMatrix:
    """Upper-triangle coordinate storage of an exactly symmetric matrix.

    Only nonzero entries with i <= j are stored; a_ji mirrors a_ij.
    Arrays are frozen after construction.
    """

    n: int
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        row = np.asarray(self.row, dtype=np.int64)
        col = np.asarray(self.col, dtype=np.int64)
        val = np.asarray(self.val, dtype=np.float64)
        if not (row.shape == col.shape == val.shape) or row.ndim != 1:
            raise ParameterError("row, col, val must be 1-d arrays of equal length")
        if self.n < 1:
            raise ParameterError("matrix dimension must be >= 1")
        if row.size:
            if row.min() < 0 or col.max() >= self.n:
                raise ParameterError("entry index out of range")
            if np.any(row > col):
                raise ParameterError("entries must satisfy i <= j (upper triangle)")
            if np.any(val == 0.0):
                raise ParameterError("stored values must be nonzero")
            if not np.isfinite(val).all():
                raise ParameterError("stored values must be finite")
            # Sampler output is in row-major order, so the O(nnz) strictly-
            # increasing test settles it; other orders fall back to a sort.
            keys = row * self.n + col
            if not np.all(keys[1:] > keys[:-1]) and np.unique(keys).size != keys.size:
                raise ParameterError("duplicate (i, j) entry")
        for arr, name in ((row, "row"), (col, "col"), (val, "val")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def nnz_upper(self) -> int:
        return int(self.row.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.row, self.col] = self.val
        dense[self.col, self.row] = self.val
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseSymmetricMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ParameterError("dense input must be a square matrix")
        if not np.array_equal(dense, dense.T):
            raise ParameterError("dense input is not exactly symmetric")
        i, j = np.nonzero(np.triu(dense))
        return cls(dense.shape[0], i, j, dense[i, j])


def sample_matrix(params: EnsembleParams, stream: RngStream) -> SparseSymmetricMatrix:
    """Draw one realization of the masked symmetric ensemble.

    Every upper-triangle position (diagonal included) is independently
    present with probability p; present entries take i.i.d. values from
    ``params.dist``.  Pure function of (params, stream).
    """
    rng = stream.generator()
    iu, ju = np.triu_indices(params.n)
    mask = rng.random(iu.size) < params.p
    vals = params.dist.sample(rng, int(mask.sum()))
    keep = vals != 0.0  # continuous laws can emit exact zeros with prob 0
    return SparseSymmetricMatrix(params.n, iu[mask][keep], ju[mask][keep], vals[keep])


def sample_sparse_vector(
    n: int, p: float, dist: EntryDistribution, stream: RngStream
) -> np.ndarray:
    """Vector with i.i.d. coordinates delta * xi, delta ~ Bernoulli(p)."""
    if n < 1:
        raise ParameterError("vector dimension must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"sparsity level p must lie in [0, 1], got {p!r}")
    rng = stream.generator()
    mask = rng.random(n) < p
    out = np.zeros(n)
    out[mask] = dist.sample(rng, int(mask.sum()))
    return out


def two_sided_tail_estimate(
    dist: EntryDistribution, c: float, samples: int, stream: RngStream
) -> tuple[float, float]:
    """Empirical frequencies (P(xi <= -c), P(xi >= c))."""
    if c <= 0:
        raise ParameterError("threshold c must be positive")
    if samples < 1:
        raise ParameterError("need at least one sample")
    xs = dist.sample(stream.generator(), samples)
    return float(np.mean(xs <= -c)), float(np.mean(xs >= c))


def row_witness_sets(
    A: SparseSymmetricMatrix,
    J: Sequence[int],
    Jp: Sequence[int],
    s: Sequence[int],
    c1: float,
) -> tuple[set[int], set[int]]:
    """Witness row sets for the sparse-vector lower-bound argument.

    I1: rows outside J u J' whose restriction to the J columns has exactly
    one nonzero entry, and that entry has magnitude >= c1 with the sign
    prescribed for its column.  I0: rows outside J u J' with all J'
    columns zero.  ``s`` is aligned with the order of ``J``.
    """
    J = list(J)
    Jp = list(Jp)
    if set(J) & set(Jp):
        raise ParameterError("J and J' must be disjoint")
    if len(s) != len(J):
        raise ParameterError("sign vector must align with J")
    if c1 <= 0:
        raise ParameterError("c1 must be positive")
    sgn = np.asarray(s, dtype=np.float64)
    if np.any(np.abs(sgn) != 1.0):
        raise ParameterError("signs must be +-1")

    dense = A.to_dense()
    excluded = set(J) | set(Jp)
    rows = np.array([i for i in range(A.n) if i not in excluded], dtype=np.int64)
    if rows.size == 0:
        return set(), set()

    if J:
        sub = dense[np.ix_(rows, J)]
        nonzero = sub != 0.0
        counts = nonzero.sum(axis=1)
        good = (np.abs(sub) >= c1) & (np.sign(sub) == sgn)
        one_hit = (counts == 1) & ((nonzero & good).sum(axis=1) == 1)
        i1 = set(int(r) for r in rows[one_hit])
    else:
        i1 = set()

    if Jp:
        zero_rows = (dense[np.ix_(rows, Jp)] != 0.0).sum(axis=1) == 0
        i0 = set(int(r) for r in rows[zero_rows])
    else:
        i0 = set(int(r) for r in rows)
    return i1, i0


def dump_matrix(
    target: str | TextIO,
    A: SparseSymmetricMatrix,
    *,
    p: float,
    seed: int,
    stream_id: int,
) -> None:
    """Write the coordinate text format: header ``n p seed stream`` then
    one ``i j value`` line per stored upper-triangle entry."""

    def _write(fh: TextIO) -> None:
        fh.write(f"{A.n} {p:.17g} {seed} {stream_id}\n")
        for i, j, v in zip(A.row, A.col, A.val):
            fh.write(f"{i} {j} {v:.17g}\n")

    if isinstance(target, (str, bytes)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(target)


def load_matrix(source: str | TextIO) -> tuple[SparseSymmetricMatrix, dict]:
    """Inverse of :func:`dump_matrix`; returns the matrix and header fields.
    A malformed line raises ParameterError naming the source and the line."""
    if isinstance(source, (str, bytes)):
        name = source
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        name = getattr(source, "name", "<stream>")
        text = source.read()
    lines = [(k, ln.split()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParameterError(f"empty matrix file {name!r}")

    def fields(k: int, parts: list[str], types: tuple, form: str) -> list:
        try:  # a wrong field count is a ValueError from zip(strict=True)
            return [parse(tok) for parse, tok in zip(types, parts, strict=True)]
        except ValueError:
            raise ParameterError(f"{name!r} line {k}: expected {form!r}, got {' '.join(parts)!r}") from None

    (k0, head), *entries = lines
    n, p, seed, stream = fields(k0, head, (int, float, int, int), "n p seed stream")
    triples = [fields(k, parts, (int, int, float), "i j value") for k, parts in entries]
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    A = SparseSymmetricMatrix(n, np.array(rows, np.int64), np.array(cols, np.int64), np.array(vals, np.float64))
    return A, {"n": n, "p": p, "seed": seed, "stream": stream}
