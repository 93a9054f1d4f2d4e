"""Quick self-test: the whole pipeline at tiny sizes, plus negative cases.

Runs every workload untraced and traced at quick sizes, then checks
that a corrupted CSV and a changed digest each count as a failure and
that a traced function with zero calls fails the traced run.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import replace

from checks import check_invocation
from measure import WORK, Batch, Outcome, Runner, check_determinism, per_layer, report, run_batch, run_once
from tracer import TraceError
from workloads import WORKLOADS, tail_dense

QUICK_SEED = 7
QUICK_SECONDS = 1.5


def _corruptions(csv_path: str) -> dict[str, str]:
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[5] = "2"  # p_hat above 1 and above wilson_hi
    successes = [line.split(",") for line in lines[2:10]]
    successes[-1][3] = "0"  # successes drop at the top of the eps grid
    successes[0][3] = "1"
    return {
        "dropped row": "".join(lines[:-1]),
        "p_hat out of interval": "".join(lines[:2] + [",".join(fields)] + lines[3:]),
        "successes decrease in eps": "".join(lines[:2] + [",".join(r) for r in successes] + lines[10:]),
        "schema line": "# ssrmlab scaling v1\n" + "".join(lines[1:]),
    }


def _negative_cases(workdir: str) -> list[tuple[str, bool]]:
    results = []
    wl = tail_dense(workdir, QUICK_SEED, quick=True)
    runner = Runner(workdir, time.perf_counter() + 120.0)
    good = run_batch(wl, runner, 1, "good")
    results.append(("quick tail-sweep batch passes its checks", good.failed == 0))
    facts = wl.invocations[0].facts
    with open(facts["csv"], encoding="utf-8") as fh:
        original = fh.read()
    for label, text in _corruptions(facts["csv"]).items():
        with open(facts["csv"], "w", encoding="utf-8") as fh:
            fh.write(text)
        errors, _, _ = check_invocation(facts, 0, "")
        results.append((f"corrupted CSV ({label}) fails the output check", bool(errors)))
    with open(facts["csv"], "w", encoding="utf-8") as fh:
        fh.write(original)
    # A batch whose output digest differs counts as a failed invocation.
    twin = Batch("changed", 1, good.wall, good.cpu, [Outcome("tail-sweep", good.wall, [], "0" * 64)])
    check_determinism([good, twin])
    results.append(("changed CSV digest fails the determinism check", twin.failed == 1))
    # The dense tail sweep never reaches the iterative path.
    expects_more = replace(wl, expected=wl.expected | {"spectra.smallest_singular_value"})
    try:
        per_layer(expects_more, runner)
        results.append(("zero-call traced function fails the traced run", False))
    except TraceError:
        results.append(("zero-call traced function fails the traced run", True))
    return results


def selftest() -> int:
    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            try:
                result = run_once(name, QUICK_SEED, QUICK_SECONDS, trace, quick=True)
                line = report(result, trace)
                ok = line["correct"] and line["attempted"] > 0
            except TraceError as exc:
                print(f"  {name} trace={int(trace)}: {exc}")
                ok = False
            results.append((f"{name} trace={int(trace)} runs clean and reports every declared metric", ok))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        results += _negative_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    failed = sum(not ok for _, ok in results)
    print(f"{len(results) - failed}/{len(results)} self-test checks passed")
    return 1 if failed else 0
