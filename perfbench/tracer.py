"""Span tracing around the calls into each ssrmlab layer.

The benchmark records spans from its own files: it replaces every
binding of a traced public function, in every loaded ``ssrmlab``
module, with a wrapper that records a span.  Spans carry a name, start,
end, the index of the enclosing span and the run id of the CLI
invocation; they stay in memory and are written out when the
invocation ends.  ``aggregate`` folds the span files of one batch into
per-function and per-layer statistics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# (layer, attribute) of every traced function.  A dotted attribute is a
# method; its span is named after the method alone (``ensemble.to_dense``).
TRACED = (
    ("cli", "main"),
    ("harness", "run"),
    ("harness", "load_config"),
    ("harness", "tail_sweep"),
    ("harness", "scaling_consistency"),
    ("harness", "write_csv"),
    ("harness", "write_sidecar"),
    ("ensemble", "sample_matrix"),
    ("ensemble", "SparseSymmetricMatrix.to_dense"),
    ("ensemble", "sample_sparse_vector"),
    ("spectra", "full_symmetric_spectrum"),
    ("spectra", "smallest_singular_value"),
    ("spectra", "spectral_norm"),
    ("spectra", "norm_bound_experiment"),
    ("inverse_geometry", "all_column_distances"),
    ("inverse_geometry", "invertibility_via_distance_experiment"),
    ("inverse_geometry", "quadratic_smallball_experiment"),
    ("structure", "lcd"),
    ("structure", "sparse_tail_distance"),
    ("structure", "classify_vector"),
    ("smallball", "levy_concentration_scalar"),
)

LAYERS = ("ensemble", "spectra", "structure", "smallball", "inverse_geometry", "harness", "cli")

# Counts taken from a traced call's arguments and result.
COUNTERS = {
    "ensemble.sample_matrix": lambda args, result: {"nnz": result.nnz_upper},
    "structure.lcd": lambda args, result: {"capped": int(result.capped)},
    "harness.write_csv": lambda args, result: {"bytes": os.path.getsize(args[0])},
}

# A latency percentile is reported only above this many calls.
P90_MIN_CALLS = 100


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class TraceError(RuntimeError):
    """A layer cannot be reported: a traced function is missing, recorded no
    calls where expected, or a declared metric was not measured."""


class Tracer:
    """Records spans for one CLI invocation (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[f"{name}.{key}"] = self.counters.get(f"{name}.{key}", 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED wherever an ssrmlab module binds it.

        Functions are looked up by identity, so a re-import under another
        name is wrapped too.  A name that no longer exists raises.
        """
        modules = [m for name, m in list(sys.modules.items()) if name == "ssrmlab" or name.startswith("ssrmlab.")]
        for layer, attr in TRACED:
            module = sys.modules.get(f"ssrmlab.{layer}")
            if module is None:
                raise TraceError(f"module ssrmlab.{layer} is not loaded")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name, None)
            if not callable(original):
                raise TraceError(f"ssrmlab.{layer}.{attr} not found")
            wrapper = self.wrap(span_name(layer, attr), original)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counters": self.counters}, fh)


def aggregate(span_files: list[str]) -> dict:
    """Per-function calls, self time, latencies and counters over a batch.

    Self time is a span's duration minus the durations of its child
    spans; spans of one invocation run on one thread, so children never
    overlap.
    """
    calls: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        spans = record["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            calls.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
    functions = {}
    for layer, attr in TRACED:
        name = span_name(layer, attr)
        durations = calls.get(name, [])
        stats = {"calls": len(durations), "self_s": self_s.get(name, 0.0)}
        if durations:
            stats["p50_ms"] = 1e3 * statistics.median(durations)
        if len(durations) >= P90_MIN_CALLS:
            stats["p90_ms"] = 1e3 * statistics.quantiles(durations, n=10)[8]
        functions[name] = stats
    layers = {
        layer: {"self_s": sum(s["self_s"] for n, s in functions.items() if n.startswith(layer + "."))}
        for layer in LAYERS
    }
    return {"functions": functions, "layers": layers, "counters": counters}


def require_calls(functions: dict, expected) -> None:
    """Fail loudly when a function the workload must call recorded no calls."""
    missing = sorted(name for name in expected if functions.get(name, {}).get("calls", 0) == 0)
    if missing:
        raise TraceError("traced functions with zero calls: " + ", ".join(missing))
