"""Batches, checks and metrics for one benchmark run.

See run.py for what a run measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_invocation
from tracer import TraceError, aggregate, require_calls
from workloads import NPROC, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run must end within 180 s; children still running at this point are killed.
DEADLINE_S = 170.0
SETUP_REPEATS = 5  # set-up samples per run, at least


@dataclass
class Outcome:
    slot: str
    wall: float
    errors: list[str]
    digest: str | None
    excluded: int = 0


@dataclass
class Batch:
    label: str
    workers: int
    wall: float
    cpu: float
    outcomes: list[Outcome] = field(default_factory=list)
    span_files: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.errors)


class Runner:
    """Launches children one at a time and kills any still running at the deadline."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline

    def child(self, args: list[str], blas: int, spans: str | None = None, run_id: str = "") -> tuple[int, str, str]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = str(blas)
        if spans is None:
            cmd = [sys.executable, "-m", "ssrmlab.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), spans, run_id, *args]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return -1, "", "not started: run deadline reached"
        proc = subprocess.Popen(
            cmd, cwd=self.workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the group holds any pool workers too
            out, err = proc.communicate()
            err += "\nkilled: run deadline reached"
        return proc.returncode, out, err


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_batch(wl: Workload, runner: Runner, workers: int, label: str, traced: bool = False) -> Batch:
    """One pass over the workload's invocations; outputs are checked after the clock stops."""
    spans_dir = os.path.join(runner.workdir, f"spans-{label}")
    if traced:
        os.makedirs(spans_dir, exist_ok=True)
    finished = []
    cpu0 = _cpu_children()
    t0 = last = time.perf_counter()
    for i, inv in enumerate(wl.invocations):
        spans = os.path.join(spans_dir, f"{i}-{inv.slot}.json") if traced else None
        rc, out, err = runner.child(inv.command(workers), inv.blas_threads(workers), spans, f"{label}/{inv.slot}")
        now = time.perf_counter()
        finished.append((rc, out, err, now - last))
        last = now
    batch = Batch(label, workers, last - t0, _cpu_children() - cpu0)
    for inv, (rc, out, err, wall) in zip(wl.invocations, finished):
        errors, digest, excluded = check_invocation(inv.facts, rc, out)
        if rc != 0 and err.strip():
            errors.append(err.strip().splitlines()[-1])
        batch.outcomes.append(Outcome(inv.slot, wall, errors, digest, excluded))
    if traced:
        batch.span_files = sorted(str(p) for p in Path(spans_dir).glob("*.json"))
    return batch


def digest_mismatches(ref: Batch, batch: Batch) -> list[Outcome]:
    return [
        outcome
        for first, outcome in zip(ref.outcomes, batch.outcomes)
        if first.digest and outcome.digest and outcome.digest != first.digest
    ]


def check_determinism(batches: list[Batch]) -> None:
    """Every batch must reproduce the first batch's output digest, slot by slot."""
    for batch in batches[1:]:
        for outcome in digest_mismatches(batches[0], batch):
            outcome.errors.append(f"digest differs from batch {batches[0].label}")


def dry_run(wl: Workload, runner: Runner, i: int) -> tuple[float, bool]:
    """Wall time of one --dry-run child (fresh interpreter to config parsed) and whether it passed."""
    inv = wl.configs[i % len(wl.configs)]
    t0 = time.perf_counter()
    rc, out, _ = runner.child(inv.command(wl.workers) + ["--dry-run"], inv.blas_threads(wl.workers))
    return time.perf_counter() - t0, rc == 0 and out.startswith(f"dry-run: kind={inv.facts['kind']} ")


def end_to_end(wl: Workload, runner: Runner, seconds: float) -> dict:
    """Batches back to back for ``seconds``, with set-up samples spread between them.

    The machine's speed drifts, so set-up is sampled after each batch
    rather than all at once; a warm-up dry-run comes first.
    """
    setups = [dry_run(wl, runner, 0)]
    batches: list[Batch] = []
    start = time.perf_counter()
    while True:
        batches.append(run_batch(wl, runner, wl.workers, f"b{len(batches)}"))
        setups.append(dry_run(wl, runner, len(batches)))
        now = time.perf_counter()
        if now - start >= seconds or now + batches[-1].wall > runner.deadline:
            break
    while len(setups) <= SETUP_REPEATS:
        setups.append(dry_run(wl, runner, len(setups)))
    setup = [elapsed for elapsed, _ in setups[1:]]
    setup_failed = sum(not ok for _, ok in setups)
    check_determinism(batches)
    rates = [wl.realizations / b.wall for b in batches]
    cpu = [b.cpu / wl.realizations for b in batches]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = len(setups) + sum(len(b.outcomes) for b in batches)
    failed = setup_failed + sum(b.failed for b in batches)
    metrics = {
        "trials_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb * 1024 / 1e6, "MB"),
        "cpu_s_per_trial": (statistics.median(cpu), "s"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    detail = {
        "batches": [_batch_detail(b) for b in batches],
        "trials_per_s_by_batch": rates,
        "cpu_s_per_trial_by_batch": cpu,
        "setup_s_by_run": setup,
    }
    return {"attempted": attempted, "failed": failed, "metrics": _tagged(metrics), "detail": detail}


def per_layer(wl: Workload, runner: Runner) -> dict:
    """Traced and untraced batches at workers=1, one at the workload's workers; per-layer metrics."""
    # Untraced batches on both sides of the traced one, so that a slow first
    # batch or a drift in machine speed does not count as tracing overhead.
    before = run_batch(wl, runner, 1, "plain-w1-before")
    traced = run_batch(wl, runner, 1, "traced-w1", traced=True)
    after = run_batch(wl, runner, 1, "plain-w1-after")
    plain_wall = (before.wall + after.wall) / 2
    batches = [traced, before, after]
    check_determinism(batches)
    # Outputs that change with the worker count (and so with BLAS threads) are
    # recorded; they fail the run only where the program promises invariance.
    worker_dependent = []
    if wl.workers > 1:
        batches.append(run_batch(wl, runner, wl.workers, f"plain-w{wl.workers}"))
        if wl.worker_invariant:
            check_determinism([traced, batches[-1]])
        else:
            worker_dependent = [o.slot for o in digest_mismatches(traced, batches[-1])]
    agg = aggregate(traced.span_files)
    fns = agg["functions"]
    require_calls(fns, wl.expected)
    metrics = {}
    for name, stats in fns.items():
        for stat, value in stats.items():
            metrics[f"{name}.{stat}"] = (value, "count" if stat == "calls" else stat.rsplit("_", 1)[-1])
    for layer, stats in agg["layers"].items():
        metrics[f"{layer}.self_s"] = (stats["self_s"], "s")
    counters = agg["counters"]
    metrics["ensemble.sample_matrix.nnz"] = (counters.get("ensemble.sample_matrix.nnz", 0), "count")
    metrics["harness.write_csv.bytes"] = (counters.get("harness.write_csv.bytes", 0), "B")
    if fns["structure.lcd"]["calls"]:
        capped = counters.get("structure.lcd.capped", 0)
        metrics["structure.lcd.capped_frac"] = (capped / fns["structure.lcd"]["calls"], "ratio")
    sweep = fns["harness.tail_sweep"]["self_s"] + fns["harness.scaling_consistency"]["self_s"]
    if fns["harness.tail_sweep"]["calls"] + fns["harness.scaling_consistency"]["calls"]:
        metrics["harness.sweep.self_s"] = (sweep, "s")
    if wl.realizations:
        metrics["harness.excluded_frac"] = (sum(o.excluded for o in traced.outcomes) / wl.realizations, "ratio")
    if wl.workers > 1:
        metrics["harness.parallel_efficiency"] = (plain_wall / (wl.workers * batches[-1].wall), "ratio")
    metrics["trace.overhead_frac"] = (traced.wall / plain_wall - 1.0, "ratio")
    # Share of the traced batch's wall time spent in each layer, for the most-work split.
    detail = {
        "batches": [_batch_detail(b) for b in batches],
        "layer_share": {layer: s["self_s"] / traced.wall for layer, s in agg["layers"].items()},
        # Interpreter start-up, imports and exit: the batch time outside every span.
        "outside_spans_share": 1.0 - sum(s["self_s"] for s in agg["layers"].values()) / traced.wall,
        "outputs_differing_at_workers_1_vs_n": worker_dependent,
    }
    attempted = sum(len(b.outcomes) for b in batches)
    failed = sum(b.failed for b in batches)
    return {"attempted": attempted, "failed": failed, "metrics": _tagged(metrics), "detail": detail}


def _tagged(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _batch_detail(b: Batch) -> dict:
    return {
        "label": b.label,
        "workers": b.workers,
        "wall_s": b.wall,
        "cpu_s": b.cpu,
        "outputs": {o.slot: {"wall_s": o.wall, "sha256": o.digest, "errors": o.errors} for o in b.outcomes},
    }


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(wl: Workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(SRC.rglob("*.py"))
    src_lines = sum(len(p.read_text().splitlines()) for p in sources)
    # Identifies the measured code where the checkout is not a git repository.
    src_digest = hashlib.sha256()
    for path in sources:
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": NPROC,
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "workers": wl.workers,
        "blas_threads": {inv.slot: inv.blas_threads(wl.workers) for inv in wl.invocations},
        "blas_threads_at_workers_1": {inv.slot: inv.blas_threads(1) for inv in wl.invocations},
        "git_sha": _git_sha(),
        "src_sha256": src_digest.hexdigest(),
        "src_lines": src_lines,
    }


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def run_once(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        runner = Runner(workdir, time.perf_counter() + DEADLINE_S)
        wl = WORKLOADS[name](workdir, seed, quick)
        result = per_layer(wl, runner) if trace else end_to_end(wl, runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(wl)
    result["workload"], result["seed"], result["trace"] = name, seed, int(trace)
    return result


def report(result: dict, trace: bool) -> dict:
    """The contract line: exactly the metrics BENCHMARK.json declares, with their units."""
    metrics = {}
    for decl in declared_metrics(trace):
        if decl["name"] not in result["metrics"]:
            raise TraceError(f"metric {decl['name']} was not measured on {result['workload']}")
        metric = result["metrics"][decl["name"]]
        if metric["unit"] != decl["unit"]:
            raise TraceError(f"metric {decl['name']} measured in {metric['unit']}, declared in {decl['unit']}")
        metrics[decl["name"]] = metric
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
