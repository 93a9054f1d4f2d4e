"""Sampling of the sparse symmetric ensemble.

Matrices have entries a_ij = delta_ij * xi_ij on the upper triangle
(diagonal included), mirrored below, where delta_ij is Bernoulli(p) and
xi_ij is a centered unit-variance law with finite fourth moment.  The
laws and the (n, p, law) parameters are defined in ``ssrmlab.model``.

Every draw is keyed by what it is (Salmon et al., SC 2011):
:func:`trial_stream` keys trial t's draw of a :class:`Purpose` in cell
(n, p) by (seed, h(purpose, n, p)), h a 64-bit hash, with t in the
counter.  So it is the same in any grid that holds the cell, for every
kind that draws it, and at any worker count of :func:`run_trials`, the
one trial engine.  The entry law is not in the key: two laws at one seed
share sparsity patterns.

Input is checked where it enters: a config by ``ExperimentConfig``, a
vector file by ``cli._read_unit_vector``, a matrix file by :func:`load_matrix`
and ``generate``'s flags by ``cli``.  The package's own draws are not re-checked.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
    from .model import EnsembleParams, EntryDistribution

# Uniform-symmetric support endpoint giving unit variance: Var(U[-a,a]) = a^2/3.
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)


def sample_entries(dist: EntryDistribution, rng: np.random.Generator, size) -> np.ndarray:
    """``size`` i.i.d. draws of the law ``dist`` from ``rng``."""
    if dist.kind == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if dist.kind == "standard-gaussian":
        return rng.standard_normal(size)
    if dist.kind == "uniform-symmetric":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
    b = -dist.a * dist.prob / (1.0 - dist.prob)
    hit = rng.random(size) < dist.prob
    return np.where(hit, dist.a, b)


@dataclass(frozen=True)
class RngStream:
    """Counter-based randomness handle: Philox keyed by (seed, stream_id), its
    256-bit counter from [0, 0, 0, trial].  The draws depend only on the
    triple; a trial draws fewer than 2^192 blocks, so trials never meet."""

    seed: int
    stream_id: int = 0
    trial: int = 0

    def generator(self) -> np.random.Generator:
        key, counter = np.array([self.seed, self.stream_id], np.uint64), np.array([0, 0, 0, self.trial], np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))


class Purpose(enum.IntEnum):
    """What a draw is for; with its cell's n and p it keys the draw."""

    MATRIX = 0  # the ensemble matrix A, for every matrix kind
    NORM_CHECK_W = 1  # norm-check's Gaussian comparison values on A's pattern
    QUADRATIC_X = 2  # quadratic's vector X
    SMALLBALL_X = 3  # smallball's sparse vector


@lru_cache(maxsize=256)
def _cell_key(purpose: Purpose, n: int, p: float) -> int:
    """h(purpose, n, p): 64 bits of blake2b over the purpose and the exact n and p, once per cell."""
    import hashlib

    digest = hashlib.blake2b(f"{int(purpose)} {int(n)} {float(p).hex()}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def trial_stream(seed: int, purpose: Purpose, n: int, p: float, t: int) -> RngStream:
    """The stream of trial t's ``purpose`` draw in cell (n, p): the package's one key."""
    return RngStream(seed, _cell_key(purpose, n, p), t)


def run_trials(kernel: Callable, cells: Sequence, trials: int, workers: int = 1) -> list[list]:
    """``kernel(cell, t)`` for every cell and trial t; per cell, records in trial order.

    With more than one worker and task, a pool of at most one process per
    task and per CPU this process may run on (``os.sched_getaffinity``)
    runs the (cell, trial) tasks in grid order, in chunks of
    ceil(trials / (4 workers)) consecutive tasks; the kernel must pickle
    (a module-level function or a partial of one).  The records do not
    depend on the worker count.
    """
    tasks = [(cell, t) for cell in cells for t in range(trials)]
    workers = min(workers, len(tasks), len(os.sched_getaffinity(0)))
    if workers <= 1:
        records = [kernel(*task) for task in tasks]
    else:
        # Imported here, so that the kinds and subcommands that never start a pool skip it.
        from concurrent.futures import ProcessPoolExecutor

        # A worker's first draw loads hashlib and OpenSSL; loaded before the fork,
        # they are shared: about 3 MB less resident per worker at n=500.
        import hashlib  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(kernel, *zip(*tasks), chunksize=max(1, -(-trials // (4 * workers)))))
    return [records[c * trials : (c + 1) * trials] for c in range(len(cells))]


@dataclass(frozen=True)
class SparseSymmetricMatrix:
    """Upper-triangle coordinate storage of an exactly symmetric matrix.

    Only nonzero entries with i <= j are stored (the rules of :func:`check_matrix`,
    which only :func:`load_matrix` applies); a_ji mirrors a_ij.
    """

    n: int
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @property
    def nnz_upper(self) -> int:
        return int(self.row.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.row, self.col] = self.val
        dense[self.col, self.row] = self.val
        return dense


def sample_matrix(params: EnsembleParams, stream: RngStream) -> SparseSymmetricMatrix:
    """Draw one realization of the masked symmetric ensemble.

    Every upper-triangle position (diagonal included) is independently
    present with probability p; present entries take i.i.d. values from
    ``params.dist``.  Pure function of (params, stream).
    """
    n = params.n
    rng = stream.generator()
    # One draw per upper-triangle position, row by row (np.triu_indices order).
    flat = np.flatnonzero(rng.random(n * (n + 1) // 2) < params.p)
    vals = sample_entries(params.dist, rng, flat.size)
    keep = vals != 0.0  # continuous laws can emit exact zeros with prob 0
    if not keep.all():
        flat, vals = flat[keep], vals[keep]
    # Row i starts at flat index i n - i (i - 1) / 2, so no n^2 index
    # arrays; col is formed in flat's own buffer.
    i = np.arange(n)
    starts = i * n - i * (i - 1) // 2
    row = np.searchsorted(starts, flat, side="right") - 1
    col = flat
    col -= starts[row]
    col += row
    return SparseSymmetricMatrix(n, row, col, vals)


# sample_sparse_vector's generator.  Building a keyed Philox generator costs
# about 20 us and a smallball run draws 10^4 vectors, so each thread keeps
# one and re-keys it per draw, for about 4 us; per thread, so that no caller
# re-keys another's generator between its draws.
_THREAD_RNG = threading.local()


def _rekeyed_generator(stream: RngStream) -> np.random.Generator:
    """This thread's generator, reset to draw exactly what ``stream.generator()``
    draws: the stream's key and counter, empty buffer.  The next call re-keys
    it, so the caller must take all its draws first."""
    rng = getattr(_THREAD_RNG, "rng", None)
    if rng is None:
        rng = _THREAD_RNG.rng = np.random.Generator(np.random.Philox(0))
    # Tuples, not arrays: the setter reads them item by item, and a draw skips ~2 us of array building.
    state = {"counter": (0, 0, 0, stream.trial), "key": (stream.seed, stream.stream_id)}
    empty = {"buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rng.bit_generator.state = {"bit_generator": "Philox", "state": state, **empty}
    return rng


def sample_sparse_vector(
    n: int, p: float, dist: EntryDistribution, stream: RngStream
) -> np.ndarray:
    """Vector with i.i.d. coordinates delta * xi, delta ~ Bernoulli(p); needs n >= 1
    and 0 <= p <= 1 (checked by ``EnsembleParams`` or ``harness``'s smallball record)."""
    rng = _rekeyed_generator(stream)
    mask = rng.random(n) < p
    out = np.zeros(n)
    out[mask] = sample_entries(dist, rng, int(mask.sum()))
    return out


def dump_matrix(target: str | TextIO, A: SparseSymmetricMatrix, *, p: float, seed: int, stream: int) -> None:
    """Write the coordinate text format: header ``n p seed stream`` then one
    ``i j value`` line per stored upper-triangle entry; ``stream`` is the
    trial index of a drawn matrix (``generate --stream``)."""
    with open(target, "w", encoding="utf-8") if isinstance(target, (str, bytes)) else contextlib.nullcontext(target) as fh:
        fh.write(f"{A.n} {p:.17g} {seed} {stream}\n")
        fh.writelines(f"{i} {j} {v:.17g}\n" for i, j, v in zip(A.row, A.col, A.val))


def check_matrix(A: SparseSymmetricMatrix) -> SparseSymmetricMatrix:
    """``A``, or ParameterError naming the first storage rule it breaks: n >= 1,
    indices in [0, n), i <= j, nonzero finite values, no (i, j) stored twice."""
    n, row, col, val = A.n, A.row, A.col, A.val
    if n < 1:
        raise ParameterError("matrix dimension must be >= 1")
    if row.size:
        if row.min() < 0 or col.max() >= n:
            raise ParameterError("entry index out of range")
        if np.any(row > col):
            raise ParameterError("entries must satisfy i <= j (upper triangle)")
        if np.any(val == 0.0):
            raise ParameterError("stored values must be nonzero")
        if not np.isfinite(val).all():
            raise ParameterError("stored values must be finite")
        if not np.diff(np.sort(row * n + col)).all():  # np.sort, not np.unique, which loads numpy.ma
            raise ParameterError("duplicate (i, j) entry")
    return A


def load_matrix(source: str | TextIO) -> tuple[SparseSymmetricMatrix, dict]:
    """Inverse of :func:`dump_matrix`; returns the matrix and header fields.
    A malformed line, or a matrix that breaks :func:`check_matrix`'s rules, raises ParameterError."""
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
        try:  # a wrong field count is a ValueError from zip(strict=True), an index past int64 an OverflowError
            return [parse(tok) for parse, tok in zip(types, parts, strict=True)]
        except (ValueError, OverflowError):
            raise ParameterError(f"{name!r} line {k}: expected {form!r}, got {' '.join(parts)!r}") from None

    (k0, head), *entries = lines
    n, p, seed, stream = fields(k0, head, (int, float, int, int), "n p seed stream")
    triples = [fields(k, parts, (np.int64, np.int64, float), "i j value") for k, parts in entries]
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    A = SparseSymmetricMatrix(n, np.array(rows, np.int64), np.array(cols, np.int64), np.array(vals, np.float64))
    return check_matrix(A), {"n": n, "p": p, "seed": seed, "stream": stream}
