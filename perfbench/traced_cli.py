"""One ssrmlab CLI invocation with span tracing.

Usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID CLI_ARGS...

Imports every ssrmlab layer, wraps the traced functions, calls
``ssrmlab.cli.main(CLI_ARGS)`` and writes the spans to SPANS_JSON, even
when the invocation fails.  Exits with the CLI's status.
"""

from __future__ import annotations

import sys


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import ssrmlab.cli
    import ssrmlab.inverse_geometry  # noqa: F401  (imported lazily by the harness)
    import ssrmlab.smallball  # noqa: F401

    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return ssrmlab.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
