"""Exception types shared across the package, and the exit status of each."""

import sys


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ConfigError(ParameterError):
    """A config file is malformed; carries the offending key in the message."""


# (type, exit status, stderr prefix) of every error a command reports in one
# line.  The first row whose type matches decides, so ConfigError precedes
# its base class ParameterError.
EXIT_TABLE = (
    (ConfigError, 2, "config error"),
    (ParameterError, 2, "error"),
    (NumericalError, 1, "numerical error"),
    (MemoryError, 1, "memory error"),
    (OSError, 1, "io error"),
)

REPORTED = tuple(kind for kind, _, _ in EXIT_TABLE)


def report(exc: Exception) -> int:
    """Print ``exc`` as one ``<prefix>: <message>`` line on stderr and return its exit status."""
    for kind, status, prefix in EXIT_TABLE:
        if isinstance(exc, kind):
            print(f"{prefix}: {exc}", file=sys.stderr)
            return status
    raise exc
