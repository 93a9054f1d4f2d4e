"""Command-line interface.

Subcommands: generate, spectra, lcd, structure, tail-sweep, scaling,
norm-check, distance-check, smallball, quadratic.  Sweep-style commands
read a config file; the vector/matrix utilities take direct flags and
emit single-line JSON records.

Every CLI process runs BLAS at one thread, whatever the caller's
environment says: numpy's and scipy's OpenBLAS read the thread count
when they load, so it is set here, before any handler loads numpy,
and forked trial workers inherit it.  Output bytes then do not depend
on the thread count, no idle BLAS thread spins, and ``--workers`` is
the only source of parallelism.

Each handler, and each kind's runner in ``harness``, imports the modules
only it runs, numpy included, so no subcommand pays for another's
imports, and ``--help``, a ``--dry-run`` or a config error loads no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from . import harness
from .errors import REPORTED, ParameterError, report

if TYPE_CHECKING:
    import numpy as np

    from .structure import StructureConstants


def _read_unit_vector(path: str) -> np.ndarray:
    import numpy as np

    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for k, line in enumerate(fh, 1):
            for tok in line.split():
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise ParameterError(f"{path!r} line {k}: {tok!r} is not a number") from None
    x = np.asarray(vals)
    if not np.isfinite(x).all():
        raise ParameterError(f"{path!r}: vector entries must be finite")
    if not np.any(x):
        raise ParameterError(f"no nonzero numbers in {path!r}")
    # A power-of-two scale is exact and keeps the norm from over- or underflowing.
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    return x / np.linalg.norm(x)


def _emit(record: dict) -> None:
    """Print a record: its result type's fields, plus n and the inputs it echoes."""
    print(harness.json_text(record))


# structure's flag for each StructureConstants field that classify_vector reads.
_CONSTANT_FLAGS = {"c_s": "c-s", "c_d": "c-d", "c_oo": "c-oo"}


def _constants_from_args(args) -> StructureConstants:
    from .structure import StructureConstants

    values = {attr: getattr(args, attr) for attr in _CONSTANT_FLAGS}
    return StructureConstants(**{attr: v for attr, v in values.items() if v is not None})


def _cmd_generate(args) -> int:
    from .ensemble import Purpose, dump_matrix, sample_matrix, trial_stream
    from .model import EnsembleParams, parse_distribution

    params = EnsembleParams(n=args.n, p=args.p, dist=parse_distribution(args.dist))
    for flag, value in (("--seed", args.seed), ("--stream", args.stream)):
        if not 0 <= value < 2**64:
            raise ParameterError(f"{flag} must lie in [0, 2^64), got {value}")
    A = sample_matrix(params, trial_stream(args.seed, Purpose.MATRIX, args.n, args.p, args.stream))
    dump_matrix(args.out or sys.stdout, A, p=args.p, seed=args.seed, stream=args.stream)
    return 0


def _cmd_spectra(args) -> int:
    from .ensemble import load_matrix
    from .spectra import spectral_summary  # loads scipy; imported here so other subcommands skip it

    A, _ = load_matrix(args.matrix)
    _emit({"n": A.n, **asdict(spectral_summary(A))})
    return 0


def _cmd_lcd(args) -> int:
    from .structure import lcd

    x = _read_unit_vector(args.vector)
    _emit({"n": x.size, "L": args.scale_l, **asdict(lcd(x, args.scale_l, theta_cap=args.cap))})
    return 0


def _cmd_structure(args) -> int:
    from .structure import classify_vector

    x = _read_unit_vector(args.vector)
    consts = _constants_from_args(args)
    _emit({"n": x.size, **asdict(classify_vector(x, consts, alpha=args.alpha)), "constants": asdict(consts)})
    return 0


def _cmd_run(args) -> int:
    return harness.run(
        args.config, dry_run=args.dry_run, seed=args.seed, workers=args.workers, out=args.out, kind=args.command
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssrmlab",
        description="Monte Carlo experiments on sparse symmetric random matrices. The generate subcommand "
        "samples one matrix; spectra, lcd and structure read a matrix or vector file and print a JSON record; "
        "the other subcommands run an experiment from a config file and write a CSV table with a JSON sidecar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample one matrix to coordinate text format")
    g.add_argument("-n", type=harness._integer, required=True)
    g.add_argument("-p", type=float, required=True)
    g.add_argument("--dist", default="rademacher")
    g.add_argument("--seed", type=harness._integer, default=0)
    g.add_argument("--stream", type=harness._integer, default=0, help="trial index T: write the matrix trial T of cell (n, p) draws")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("spectra", help="spectral summary of a matrix file")
    s.add_argument("--matrix", required=True)
    s.set_defaults(func=_cmd_spectra)

    l = sub.add_parser("lcd", help="least common denominator of a vector file")
    l.add_argument("--vector", required=True)
    l.add_argument("--scale-l", dest="scale_l", type=float, default=1.0)
    l.add_argument("--cap", type=float, default=None)
    l.set_defaults(func=_cmd_lcd)

    st = sub.add_parser("structure", help="classify a vector file")
    st.add_argument("--vector", required=True)
    st.add_argument("--alpha", type=float, default=0.5)
    for attr, flag in _CONSTANT_FLAGS.items():
        st.add_argument(f"--{flag}", dest=attr, type=float, default=None)
    st.set_defaults(func=_cmd_structure)

    for kind in harness.EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment from a config")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=harness._integer, default=None)
        p.add_argument("--workers", type=harness._integer, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--dry-run", action="store_true")
        p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except REPORTED as exc:
        return report(exc)


if __name__ == "__main__":
    raise SystemExit(main())
