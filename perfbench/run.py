"""ssrmlab benchmark: end-to-end and per-layer numbers for three CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload tail-dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --quick

Every CLI invocation runs in a fresh child process (``python3 -m
ssrmlab.cli`` with ``PYTHONPATH=src``) launched by this one driver
process.  A *batch* is one pass over the workload's invocations; batches
run back to back (a closed loop with one client) until ``--seconds``
have passed.  Each child gets BLAS threads so that workers x BLAS
threads = nproc.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
trials per second and CPU seconds per trial (medians over batches), the
set-up time (median of ``--dry-run`` children, one after each batch) and
the peak resident set of any child.  ``--trace 1`` runs a traced batch
at workers=1 between two untraced ones, plus one untraced batch at the
workload's workers where that is more than one, and reports the
per-layer metrics.  Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the full detail, including the environment, every
per-layer statistic and the output digests, and the same detail is
saved under ``.bench_work/results/``.

An invocation fails if it exits nonzero, fails its output check
(checks.py), or writes an output whose digest differs from the first
batch's for the same slot.  ``--quick`` runs the whole pipeline at tiny
sizes, plus negative cases, in about a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from measure import SRC, WORK, report, run_once
from tracer import TraceError
from workloads import WORKLOADS


def save(result: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny self-test of the whole pipeline")
    args = parser.parse_args(argv)
    if not (SRC / "ssrmlab" / "cli.py").is_file():
        print(f"error: no ssrmlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        from selftest import selftest

        return selftest()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    try:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
        line = report(result, bool(args.trace))
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(result)
    print(json.dumps({"detail": result}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
