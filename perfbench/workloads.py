"""The benchmark's workloads and the inputs generated for them.

Every config and vector file is generated from the workload seed into a
scratch directory; the program receives only those files.  Grids and
sizes are fixed per workload, the seed drives the random streams, so a
second seed runs unchanged.

Why these three:

* ``tail-dense`` is the paper's headline tail sweep on the dense-oracle
  path.  Its work is ``full_symmetric_spectrum`` and ``sample_matrix``,
  and it is the only workload that uses the harness process pool.  A
  dense n=300 matrix (0.7 MB) fits a 4 MiB L2; n=1000 (8 MB) does not.
* ``scaling-iterative`` runs ``scaling`` just above ``DENSE_CAP = 2048``,
  the only route through the Householder+Sturm ``smallest_singular_value``
  (plus the power-iteration ``spectral_norm``).  One process, no pool:
  the plain single-process baseline and the large-n memory case.  A run
  holds a single 21-37 s trial, too few to be steady, so BENCHMARK.json
  leaves it out; it runs by hand.
* ``serial-kinds`` is one session of the kinds that run serial loops
  (distance-check, quadratic, norm-check, smallball) plus ``lcd`` and
  ``structure`` on random unit vectors.  It bypasses the dense oracle
  and the pool.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

NPROC = len(os.sched_getaffinity(0))

TAIL_EPS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
SERIAL_EPS = (0.05, 0.1, 0.2, 0.4, 0.8)

_WRITE = frozenset({"cli.main", "harness.run", "harness.load_config", "harness.write_csv", "harness.write_sidecar"})
_SAMPLE = frozenset({"ensemble.sample_matrix", "ensemble.to_dense"})


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``facts`` is what the output check needs to know."""

    slot: str
    argv: tuple[str, ...]
    facts: dict
    realizations: int
    pooled: bool  # takes --workers

    def command(self, workers: int) -> list[str]:
        return list(self.argv) + (["--workers", str(workers)] if self.pooled else [])

    def blas_threads(self, workers: int) -> int:
        """Workers x BLAS threads = nproc; calls without a pool count as one worker."""
        return max(1, NPROC // (workers if self.pooled else 1))


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    workers: int
    expected: frozenset  # traced functions one batch must call
    worker_invariant: bool = False  # outputs promised byte-identical at any worker count

    @property
    def realizations(self) -> int:
        return sum(inv.realizations for inv in self.invocations)

    @property
    def configs(self) -> list[Invocation]:
        return [inv for inv in self.invocations if inv.pooled]


def _config(workdir: str, slot: str, kind: str, seed: int, trials: int, n, p, eps) -> tuple[list[str], dict]:
    path = os.path.join(workdir, f"{slot}.ini")
    out = os.path.join(workdir, f"{slot}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "[experiment]\n"
            f"kind = {kind}\ntrials = {trials}\nseed = {seed}\nworkers = 1\nout = {out}\n"
            "[ensemble]\ndist = rademacher\n"
            "[grid]\n"
            f"n = {','.join(str(v) for v in n)}\n"
            f"p = {','.join(repr(v) for v in p)}\n"
            f"eps = {','.join(repr(v) for v in eps)}\n"
        )
    facts = {"kind": kind, "seed": seed, "trials": trials, "n": list(n), "p": list(p), "eps": list(eps), "csv": out}
    return [kind, "--config", path], facts


def _vector(workdir: str, slot: str, seed: int, n: int) -> tuple[str, dict]:
    rng = random.Random(seed * 100_003 + n)
    x = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = sum(v * v for v in x) ** 0.5
    path = os.path.join(workdir, f"{slot}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(repr(v / norm) for v in x) + "\n")
    return path, {"n": n}


def tail_dense(workdir: str, seed: int, quick: bool) -> Workload:
    n, p, trials = ((24, 40), (0.1, 0.3), 2) if quick else ((300, 1000), (0.05, 0.3), 8)
    argv, facts = _config(workdir, "tail-sweep", "tail-sweep", seed, trials, n, p, TAIL_EPS)
    inv = Invocation("tail-sweep", tuple(argv), facts, len(n) * len(p) * trials, True)
    expected = _WRITE | _SAMPLE | {"harness.tail_sweep", "spectra.full_symmetric_spectrum"}
    # Criterion 12: the tail-sweep CSV is byte-identical at any worker count.
    return Workload("tail-dense", (inv,), NPROC, expected, worker_invariant=True)


def scaling_iterative(workdir: str, seed: int, quick: bool) -> Workload:
    # n=2100 is just above DENSE_CAP; the quick mode stays on the dense path.
    n, p, trials = (40, 0.2, 2) if quick else (2100, 0.05, 1)
    argv, facts = _config(workdir, "scaling", "scaling", seed, trials, (n,), (p,), (0.001,))
    inv = Invocation("scaling", tuple(argv), facts, trials, True)
    spectra = {"spectra.full_symmetric_spectrum"} if quick else {"spectra.smallest_singular_value", "spectra.spectral_norm"}
    return Workload("scaling-iterative", (inv,), 1, _WRITE | _SAMPLE | {"harness.scaling_consistency"} | spectra)


def serial_kinds(workdir: str, seed: int, quick: bool) -> Workload:
    n, p = (40, 0.2) if quick else (500, 0.1)
    # A norm-check trial's power iterations cost 0.09 s at the median but up
    # to 1 s; few of them keep that tail from setting the run-to-run spread.
    trials = {"distance-check": 3, "quadratic": 5, "norm-check": 3, "smallball": 500} if quick else {
        "distance-check": 10,
        "quadratic": 40,
        "norm-check": 4,
        "smallball": 10_000,
    }
    invs = []
    for kind, count in trials.items():
        argv, facts = _config(workdir, kind, kind, seed, count, (n,), (p,), SERIAL_EPS)
        invs.append(Invocation(kind, tuple(argv), facts, 0 if kind == "smallball" else count, True))
    # At n=150 the LCD scan usually finds a witness; at 200 and 250 it reaches the cap.
    for vn in (20, 30, 40) if quick else (150, 200, 250):
        path, facts = _vector(workdir, f"vector-{vn}", seed, vn)
        invs.append(Invocation(f"lcd-{vn}", ("lcd", "--vector", path), {"kind": "lcd", **facts}, 0, False))
        invs.append(Invocation(f"structure-{vn}", ("structure", "--vector", path), {"kind": "structure", **facts}, 0, False))
    expected = _WRITE | _SAMPLE | {
        "ensemble.sample_sparse_vector",
        "spectra.spectral_norm",
        "spectra.norm_bound_experiment",
        "inverse_geometry.all_column_distances",
        "inverse_geometry.invertibility_via_distance_experiment",
        "inverse_geometry.quadratic_smallball_experiment",
        "structure.lcd",
        "structure.sparse_tail_distance",
        "structure.classify_vector",
        "smallball.levy_concentration_scalar",
    }
    return Workload("serial-kinds", tuple(invs), NPROC, expected)


WORKLOADS = {
    "tail-dense": tail_dense,
    "scaling-iterative": scaling_iterative,
    "serial-kinds": serial_kinds,
}
