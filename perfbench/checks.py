"""Output checks for one CLI invocation.

A check never compares against a stored digest: a deliberate byte
change with a schema bump stays legal.  It checks the exit status, the
CSV's schema line, header and row count for its config, the per-kind
invariants and the sidecar; ``lcd`` and ``structure`` print one JSON
record, which is checked instead.  The digest of the output is returned
for the determinism check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re

HEADERS = {
    "tail-sweep": ["n", "p", "eps", "successes", "trials", "p_hat", "wilson_lo", "wilson_hi"],
    "scaling": ["n", "p", "trials", "median_smin_scaled", "median_cond_over_n", "singular_count", "ratio_to_prev"],
    "norm-check": ["trial", "norm", "norm_over_sqrt_pn", "omega_event", "bvh_bound", "bvh_satisfied"],
    "distance-check": ["trial", "s_min", "minimizer_incompressible", "lhs_event", "rhs_value"],
    "smallball": ["eps", "estimate", "ci", "bound_bracket", "pass"],
    "quadratic": ["eps", "p_hat_zero", "p_hat_median"],
}

# CSV floats carry 12 significant digits.
_TOL = 1e-9


def _expected_rows(facts: dict) -> int:
    kind = facts["kind"]
    cells = len(facts["n"]) * len(facts["p"])
    if kind == "tail-sweep":
        return cells * len(facts["eps"])
    if kind == "scaling":
        return cells
    if kind in ("norm-check", "distance-check"):
        return facts["trials"]
    return len(facts["eps"])


def _nondecreasing(values) -> bool:
    return all(b >= a - _TOL for a, b in zip(values, values[1:]))


def _kind_errors(kind: str, facts: dict, rows: list[dict]) -> list[str]:
    errors = []
    if kind == "tail-sweep":
        per_eps = len(facts["eps"])
        for start in range(0, len(rows), per_eps):
            cell = rows[start : start + per_eps]
            if not _nondecreasing([int(r["successes"]) for r in cell]):
                errors.append(f"successes decrease in eps in cell n={cell[0]['n']} p={cell[0]['p']}")
        for r in rows:
            lo, mid, hi = float(r["wilson_lo"]), float(r["p_hat"]), float(r["wilson_hi"])
            if not (-_TOL <= lo <= mid + _TOL and mid <= hi + _TOL and hi <= 1 + _TOL):
                errors.append(f"wilson interval out of order at eps={r['eps']}")
            if int(r["trials"]) != facts["trials"]:
                errors.append("trials column differs from the config")
    elif kind == "scaling":
        for r in rows:
            if not 0 <= int(r["singular_count"]) <= int(r["trials"]) == facts["trials"]:
                errors.append(f"singular_count {r['singular_count']} outside [0, trials]")
    elif kind == "quadratic":
        for col in ("p_hat_zero", "p_hat_median"):
            vals = [float(r[col]) for r in rows]
            if not _nondecreasing(vals) or not all(-_TOL <= v <= 1 + _TOL for v in vals):
                errors.append(f"{col} not a nondecreasing probability in eps")
    elif kind == "smallball":
        if not _nondecreasing([float(r["estimate"]) for r in rows]):
            errors.append("small-ball estimate decreases in eps")
    elif kind in ("norm-check", "distance-check"):
        if [int(r["trial"]) for r in rows] != list(range(facts["trials"])):
            errors.append("trial column is not 0..trials-1")
    return errors


def _record_errors(kind: str, facts: dict, record: dict) -> list[str]:
    errors = []
    if record.get("n") != facts["n"]:
        errors.append(f"record n={record.get('n')} for a vector of length {facts['n']}")
    if kind == "lcd":
        value, theta = record["value"], record["witness_theta"]
        if not (isinstance(value, float) and value > 0):
            errors.append(f"lcd value {value!r} is not positive")
        elif not record["capped"] and not (theta is not None and theta >= value):
            errors.append(f"uncapped lcd with witness_theta {theta!r} < value {value!r}")
    elif not 0.0 <= record["dist_to_sparse"] <= 1.0 + _TOL:
        errors.append("dist_to_sparse outside [0, 1]")
    return errors


def check_invocation(facts: dict, returncode: int, stdout: str) -> tuple[list[str], str | None, int]:
    """(errors, output sha256, singular exclusions) for one finished invocation."""
    if returncode != 0:
        return [f"exit status {returncode}"], None, 0
    kind = facts["kind"]
    if kind in ("lcd", "structure"):
        text = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        try:
            record = json.loads(text)
            errors = _record_errors(kind, facts, record)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"bad {kind} record: {exc}"], None, 0
        return errors, hashlib.sha256(text.encode()).hexdigest(), 0
    try:
        with open(facts["csv"], "rb") as fh:
            data = fh.read()
        with open(facts["csv"] + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"missing or unreadable output: {exc}"], None, 0
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8", errors="replace").splitlines()
    errors = []
    if not lines or not re.fullmatch(rf"# ssrmlab {re.escape(kind)} v\d+", lines[0]):
        errors.append(f"schema line {lines[0] if lines else ''!r} is not '# ssrmlab {kind} v<N>'")
    table = list(csv.reader(lines[1:]))
    if not table or table[0] != HEADERS[kind]:
        errors.append(f"header {table[0] if table else None} differs from {HEADERS[kind]}")
        return errors, digest, 0
    body = table[1:]
    if len(body) != _expected_rows(facts) or any(len(r) != len(HEADERS[kind]) for r in body):
        errors.append(f"{len(body)} rows, expected {_expected_rows(facts)} of {len(HEADERS[kind])} fields")
        return errors, digest, 0
    rows = [dict(zip(HEADERS[kind], r)) for r in body]
    try:
        errors += _kind_errors(kind, facts, rows)
    except ValueError as exc:
        errors.append(f"unparseable field: {exc}")
    config = meta.get("config", {})
    for key in ("kind", "seed", "trials"):
        if config.get(key) != facts[key]:
            errors.append(f"sidecar {key}={config.get(key)!r}, run used {facts[key]!r}")
    excluded = 0
    if kind == "scaling" and not errors:
        excluded = sum(int(r["singular_count"]) for r in rows)
    elif kind == "quadratic":
        excluded = int(meta.get("results", {}).get("excluded_singular", 0))
    return errors, digest, excluded
