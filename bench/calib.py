"""Machine-speed calibration for the benchmark's timings.

On a shared machine the CPU time of the same Python work drifts by a
quarter over tens of seconds.  A fixed pure-Python loop is timed next to
each measured call, and the call's CPU time is scaled by REFERENCE_S over
the loop's time: the result is the call's time on a machine that runs the
loop in REFERENCE_S, which is about what an idle core of the 2-core
machine the benchmark was built on takes.  The loop does the same kind of
work as tilelab, so most of the drift cancels.
"""

from time import process_time

REFERENCE_S = 0.0025


def loop_seconds() -> float:
    """CPU time of a fixed loop that builds and hashes small tuples, as
    tilelab's window scans and searches do; a plain arithmetic loop tracks
    the drift only half as well."""
    t0 = process_time()
    table = {}
    for i in range(4000):
        table[(i % 97, i % 89, i)] = tuple(range(i % 13))
    keys = frozenset(table)
    sum(1 for k in table if k in keys)
    return process_time() - t0


def normalized(seconds: float, loop: float) -> float:
    return seconds * REFERENCE_S / loop
