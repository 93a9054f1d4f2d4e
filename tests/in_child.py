"""Run one property-test example in a child process with a deadline.

The hypothesis profile (``conftest.py``) sets no per-example deadline,
since an example's time depends on the machine, so a hang in process
would stall the whole suite.  Each CLI example instead runs in a child
forked from the test process, which inherits its modules, so an example
costs milliseconds; a spawned child would import numpy and the test
module again, a few tenths of a second for each of some 450 examples.
A child that outlives the deadline is killed, and the example fails
naming its input.
"""

from __future__ import annotations

import multiprocessing
import traceback

# Seconds.  A CLI example here takes well under one; the slack covers a
# loaded machine, not a slower algorithm.
DEADLINE = 60.0


def _serve(conn, fn, args) -> None:
    try:
        conn.send((True, fn(*args)))
    except BaseException:  # reported to the parent, which raises it; the child then exits
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def in_child(fn, *args, deadline: float = DEADLINE):
    """``fn(*args)`` in a forked child: its result, which must pickle, or an
    AssertionError carrying the child's traceback or naming ``args`` when
    the child was still running at the deadline."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_serve, args=(send, fn, args))
    child.start()
    send.close()
    try:
        if not recv.poll(deadline):
            raise AssertionError(f"example still running after {deadline:g} s: {fn.__name__}{args!r}")
        try:
            ok, value = recv.recv()
        except EOFError:
            raise AssertionError(f"example's child died without a result: {fn.__name__}{args!r}") from None
    finally:
        recv.close()
        child.kill()
        child.join(10)
    if not ok:
        raise AssertionError(f"example failed in its child: {fn.__name__}{args!r}\n{value}")
    return value
