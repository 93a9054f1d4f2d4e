"""Output bytes pinned across versions.

``tests/golden/`` holds one tiny config per experiment kind, a vector file
and a matrix file, plus ``distance-check-singular.ini``: a
``distance-check`` run at small p whose realizations are all singular,
which pins ``all_column_distances`` with a nonempty null block.
``digests.json`` records the SHA-256 of each kind's CSV
and of the ``lcd``/``structure`` records of the vector and the ``spectra``
record of the matrix, together with the ``ARTIFACT_VERSION`` they were
made at.  For every config case it also records the SHA-256 of the
sidecar's ``results`` block, as ``json.dumps(results, sort_keys=True)``
(``null`` for a kind that writes none).  A change to any of those bytes
is deliberate only with a version bump, regenerated digests and a
CHANGES.md line saying what moved.  Every sidecar and record must also
parse as strict JSON (RFC 8259), which has no NaN or Infinity.

The runs pin the BLAS and OpenMP thread counts to 1, as every CLI process
also does itself (``test_threads.py`` checks that the caller's setting
does not move the bytes).  The digests are exact only on the CPU
family they were recorded on (x86-64); OpenBLAS picks its kernels per CPU,
so another CPU may move a last digit of the float columns.  If a digest
differs on a new machine with no code change, the fix is to compare the
integer columns exactly and the float columns within a stated tolerance,
not to record that machine's digests.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssrmlab
from ssrmlab import cli, harness

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDED = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))

_RECORDS = {
    "lcd": ["lcd", "--vector", str(GOLDEN / "vector.txt")],
    "structure": ["structure", "--vector", str(GOLDEN / "vector.txt")],
    "spectra": ["spectra", "--matrix", str(GOLDEN / "matrix.txt")],
}

# Config cases beyond one per kind: case -> the kind whose subcommand runs it.
_EXTRA_CONFIGS = {"distance-check-singular": "distance-check"}


def _output(case: str, workdir: Path) -> bytes:
    """The bytes case ``case`` pins: a kind's CSV, or a subcommand's stdout record."""
    src = os.path.dirname(os.path.dirname(ssrmlab.__file__))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    out = workdir / "out.csv"
    argv = _RECORDS.get(case) or [_EXTRA_CONFIGS.get(case, case), "--config", str(GOLDEN / f"{case}.ini"), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "ssrmlab.cli", *argv], cwd=workdir, env=env, capture_output=True, check=True, timeout=120
    )
    return proc.stdout if case in _RECORDS else out.read_bytes()


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON: a NaN, Infinity or -Infinity token fails."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def _results_digest(workdir: Path) -> str:
    """SHA-256 of the ``results`` block of the sidecar the case wrote in ``workdir``."""
    meta = _strict_json((workdir / "out.csv.meta.json").read_text(encoding="utf-8"))
    return hashlib.sha256(json.dumps(meta.get("results"), sort_keys=True).encode()).hexdigest()


def test_every_kind_and_record_is_pinned():
    assert set(RECORDED["sha256"]) == set(harness.EXPERIMENT_KINDS) | set(_RECORDS) | set(_EXTRA_CONFIGS)
    assert set(RECORDED["results_sha256"]) == set(harness.EXPERIMENT_KINDS) | set(_EXTRA_CONFIGS)


def test_singular_case_draws_singular_matrices(tmp_path):
    # The case pins the null block only while some realization is singular.
    rows = _output("distance-check-singular", tmp_path).decode().splitlines()[2:]
    assert any(row.split(",")[1] == "0" for row in rows)


@pytest.mark.parametrize("case", sorted(RECORDED["sha256"]))
def test_output_bytes_match_digest(case, tmp_path):
    output = _output(case, tmp_path)
    if case in _RECORDS:
        _strict_json(output.decode())
    got = hashlib.sha256(output).hexdigest()
    assert got == RECORDED["sha256"][case], (
        f"{case} output bytes changed (sha256 {got}). A deliberate byte change needs an "
        "ARTIFACT_VERSION bump, regenerated tests/golden/digests.json and a CHANGES.md line."
    )
    if case in RECORDED["results_sha256"]:
        got = _results_digest(tmp_path)
        assert got == RECORDED["results_sha256"][case], f"{case} sidecar results changed (sha256 {got})."


def test_json_text_writes_non_finite_floats_by_one_rule():
    # NaN is null and an infinity "inf" or "-inf", the forms the spectra
    # and lcd records have always used.
    assert harness.json_text({"a": [math.nan, math.inf, -math.inf]}) == '{"a": [null, "inf", "-inf"]}'


def test_one_trial_sidecar_is_strict_json(tmp_path):
    # At trials = 1 distance-check has no spread to estimate its right
    # side's halfwidth from, so the halfwidth is infinite.
    cfg = tmp_path / "one.ini"
    cfg.write_text((GOLDEN / "distance-check.ini").read_text(encoding="utf-8").replace("trials = 5", "trials = 1"))
    assert harness.run(str(cfg), out=str(tmp_path / "out.csv")) == 0
    meta = _strict_json((tmp_path / "out.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["config"]["trials"] == 1 and meta["results"]["rhs_halfwidth"] == "inf"


@pytest.mark.parametrize(
    "argv,text,expected",
    [
        # Row 2 is empty, so the matrix is singular.
        (["spectra", "--matrix"], "3 0.5 0 0\n0 1 1.0\n", {"s_min": 0.0, "condition_number": "inf"}),
        # The LCD is about 1.41, past the cap.
        (["lcd", "--cap", "1.2", "--vector"], "0.5 0.5 0.5 0.5\n", {"capped": True, "witness_theta": None, "witness_dist": None}),
    ],
    ids=["singular-spectra", "capped-lcd"],
)
def test_non_finite_record_is_strict_json(tmp_path, capsys, argv, text, expected):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.main([*argv, str(path)]) == 0
    assert expected.items() <= _strict_json(capsys.readouterr().out).items()


def test_digests_were_made_at_this_version():
    assert RECORDED["artifact_version"] == harness.ARTIFACT_VERSION, (
        "ARTIFACT_VERSION moved: re-run tests/golden/ at the new version and record it in digests.json."
    )


@pytest.mark.parametrize("case", sorted(RECORDED["results_sha256"]))
def test_artifact_id_recomputes_from_sidecar(case, tmp_path):
    # The id hashes the sidecar's own config block without workers, so the
    # sidecar file alone recomputes it.
    out = tmp_path / "out.csv"
    assert harness.run(str(GOLDEN / f"{case}.ini"), out=str(out)) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text(encoding="utf-8"))
    block = {key: value for key, value in meta["config"].items() if key != "workers"}
    digest = hashlib.sha1(json.dumps(block, sort_keys=True).encode()).hexdigest()[:12]
    assert meta["artifact"] == f"ssrmlab-{RECORDED['artifact_version']}+cfg.{digest}"
