"""Closed-loop client: runs one workload's queries through tilelab.cli.main.

Usage: python3 bench/worker.py MANIFEST RESULT

Runs in a fresh process per workload, so its peak RSS belongs to that
workload.  One client sends the next query only after the previous one has
returned.  A call's latency is the CPU time this process spends in it,
calibrated as calib.py describes: the CLI is single-threaded and does no
I/O beyond reading its small input files, so on an idle machine its CPU
time equals its wall time, and on a shared one it leaves out the time the
machine gives to others.  A warm-up pass comes first; then whole passes over the query list
repeat until the time is spent (and at least the manifest's minimum number
of passes has run).  In trace mode untraced and traced passes alternate and
the tracer's per-layer summary is returned.  Every call's exit code and
stdout are kept, one copy per distinct output, for the reference check.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
from time import perf_counter, process_time

import tilelab.cli
import tilelab.presentation

import calib
from spans import Tracer


def reset_process_caches() -> None:
    """Make the next call as cold as a fresh `tilelab` process.

    tilelab.presentation keeps per-presentation scan caches in a
    process-wide table keyed by presentation value whose entries hold their
    keys alive, so without this a repeated query would be answered from
    the scans of an earlier call."""
    analyses = getattr(tilelab.presentation, "_ANALYSES", None)
    if analyses is not None:
        analyses.clear()


# calibration loops timed between two calls; a call is scaled by the median
# of the loops on both sides of it, which follows the machine's speed from
# one call to the next
LOOPS_BETWEEN = 2


class Client:
    def __init__(self, queries: list[list[str]]):
        self.queries = queries
        self.outputs: list[dict[tuple, int]] = [{} for _ in queries]
        self.calls = 0
        self.loops = self.time_loops()

    @staticmethod
    def time_loops() -> list[float]:
        return [calib.loop_seconds() for _ in range(LOOPS_BETWEEN)]

    def call(self, i: int) -> float:
        """Run query i; return its CPU time, calibrated by the loops timed
        just before and just after it."""
        reset_process_caches()
        # start every call from a collected heap, so one call's garbage is
        # not collected on the next call's clock
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        t0 = process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = tilelab.cli.main(list(self.queries[i]))
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a raising query counts as failed, the run goes on
            rc = f"raised {type(e).__name__}: {e}"
        dt = process_time() - t0
        before, self.loops = self.loops, self.time_loops()
        key = (rc, out.getvalue())
        self.outputs[i][key] = self.outputs[i].get(key, 0) + 1
        self.calls += 1
        return calib.normalized(dt, statistics.median(before + self.loops))

    def run_pass(self, latencies: list[float] | None = None, tracer: Tracer | None = None) -> float:
        """Calibrated seconds spent inside cli.main over one pass."""
        total = 0.0
        for i in range(len(self.queries)):
            if tracer is not None:
                tracer.current_query = i
            dt = self.call(i)
            total += dt
            if latencies is not None:
                latencies.append(dt)
        return total


def main(manifest_path: str, result_path: str) -> None:
    with open(manifest_path) as f:
        manifest = json.load(f)
    client = Client(manifest["queries"])
    seconds, min_passes = manifest["seconds"], manifest["min_passes"]
    client.run_pass()
    # what the import and the warm-up left alive stays; the per-call
    # collections then scan only what calls allocate
    gc.freeze()
    result: dict = {}
    if not manifest["trace"]:
        latencies: list[float] = []
        passes, busy = 0, 0.0
        t0 = perf_counter()
        while passes < min_passes or perf_counter() - t0 < seconds:
            busy += client.run_pass(latencies)
            passes += 1
        result.update(latencies=latencies, busy_s=busy, passes=passes)
    else:
        tracer = Tracer()
        plain, traced = [], []
        t0 = perf_counter()
        last = 0
        while not traced or perf_counter() - t0 < seconds:
            plain.append(client.run_pass())
            last = len(tracer.t0)
            tracer.install()
            try:
                traced.append(client.run_pass(tracer=tracer))
            finally:
                tracer.uninstall()
        layers = tracer.summary(len(traced))
        overhead = statistics.median(traced) - statistics.median(plain)
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_ratio"] = overhead / statistics.median(plain)
        result.update(layers=layers, passes=len(traced))
        if manifest.get("spans_out"):
            tracer.write(manifest["spans_out"], last)
    result["calls"] = client.calls
    result["outputs"] = [[[rc, out, n] for (rc, out), n in o.items()] for o in client.outputs]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:3])
