"""tilelab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, computes their reference
answers with oracle/brute.py, then runs the queries through
tilelab.cli.main in a fresh worker process (bench/worker.py) as a closed
loop with one client.  Every output is checked against the reference
outside the timed region.  The last line of stdout is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The
metric lists below match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_s", "s"),
    ("query_tail_s", "s"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# per pass of the workload's query list, from the traced run
PER_LAYER = (
    ("import.tilelab_cli_s", "s"),
    ("import.networkx_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("core.Pattern.calls", "count"),
    ("core.Pattern.self_s", "s"),
    ("lang.iter_admissible_squares.self_s", "s"),
    ("lang.iter_admissible_squares.yielded", "count"),
    ("lang.extensible_squares.self_s", "s"),
    ("lang.build_transfer_graph.calls", "count"),
    ("lang.build_transfer_graph.self_s", "s"),
    ("lang.transfer_graph.vertices", "count"),
    ("lang.transfer_graph.edges", "count"),
    ("solver.enumerate_torus.self_s", "s"),
    ("solver.enumerate_torus.returned", "count"),
    ("solver.classify.self_s", "s"),
    ("solver.weak_periodic_witness.calls", "count"),
    ("solver.weak_periodic_witness.self_s", "s"),
    ("solver.weak_periodic_witness.found", "count"),
    ("solver.cycles_examined", "count"),
    ("networkx.self_s", "s"),
    ("presentation.rect_window_keys.calls", "count"),
    ("presentation.rect_window_keys.self_s", "s"),
    ("presentation.rect_window_keys.keys_returned", "count"),
    *((f"presentation.{f}.{m}", u) for f in
      ("is_valid", "period_lattice", "equal", "shift", "type_of", "occurrences")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("order.preceq.calls", "count"),
    ("order.preceq.self_s", "s"),
    ("order.le.calls", "count"),
    ("order.le.hit_ratio", "ratio"),
    ("order.equivalence_classes.calls", "count"),
    ("order.equivalence_classes.self_s", "s"),
    ("order.level_of.calls", "count"),
    ("order.level_of.self_s", "s"),
    ("order.hasse.self_s", "s"),
    ("order.minimal_classes.self_s", "s"),
    ("order.maximal_classes.self_s", "s"),
    ("cb.ranks.self_s", "s"),
    ("cb.rounds", "count"),
    ("cb.isolating_pattern.calls", "count"),
    ("cb.isolating_pattern.self_s", "s"),
    ("cb.isolating_pattern.found_ratio", "ratio"),
    *((f"{m}.self_s", "s") for m in ("cli", "core", "lang", "solver", "presentation", "order", "cb")),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    """sizes (tiny_sizes for the self-test) are the size arguments of the
    generator of the same name in gen.py.  Each pass runs the same odd
    number of distinct queries, so the median falls among the repeats of
    one query, not between two."""

    sizes: tuple
    tiny_sizes: tuple
    min_passes: int


WORKLOADS = {
    # 55 tile sets, 11 per query kind; 5+ passes
    "tileset_queries": Workload((55,), (5,), 5),
    # 5 families x (order at windows 6 and 8, cb at 6); 4+ passes
    "family_ranks": Workload(((6, 7, 8, 9, 10),), ((2, 3),), 4),
    # 8 tall-band queries + 5 block planes; 4+ passes
    "presentation_scan": Workload(((1000, 3000), 5), ((20, 40), 1), 4),
}


def tail_fraction(pool: int, min_passes: int) -> float:
    """The tail percentile, as a fraction: the highest that keeps at least
    ten samples beyond it at the minimum pass count, placed half a query
    into the pool so that it falls among the repeats of one query.  It
    depends on the workload only, not on how many passes a run manages."""
    k = max(0, int(pool - 0.5 - 10 / min_passes))
    return (k + 0.5) / pool


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between order statistics (the inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * fraction
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


IMPORT_RUNS = 11


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), str(BENCH)])
    # str hashes, and with them dict and set layouts, repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(runs: int) -> float:
    """Median calibrated CPU time of `import tilelab.cli`, timed inside
    fresh interpreters (calib.py)."""
    code = ("import time, calib; a = calib.loop_seconds(); t = time.process_time(); "
            "import tilelab.cli; d = time.process_time() - t; "
            "print(calib.normalized(d, (a + calib.loop_seconds()) / 2))")
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=_env(), check=True, capture_output=True, timeout=120)  # byte-compile
    return statistics.median(
        float(subprocess.run(cmd, env=_env(), check=True, capture_output=True, text=True,
                             timeout=120).stdout)
        for _ in range(runs))


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_profile(runs: int) -> dict[str, float]:
    """Medians over fresh interpreters of `-X importtime` cumulative times:
    all top-level tilelab imports, and networkx wherever it loads."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import tilelab.cli"]
    cli, nx = [], []
    for _ in range(runs):
        err = subprocess.run(cmd, env=_env(), check=True, capture_output=True, text=True,
                             timeout=120).stderr
        rows = [(int(us), len(pad), name) for us, pad, name in _IMPORTTIME.findall(err)]
        top = min(pad for _, pad, _ in rows)
        cli.append(sum(us for us, pad, name in rows if pad == top and name.split(".")[0] == "tilelab"))
        nx.append(sum(us for us, _, name in rows if name == "networkx"))
    return {"import.tilelab_cli_s": statistics.median(cli) / 1e6,
            "import.networkx_s": statistics.median(nx) / 1e6}


def prepare(name: str, seed: int, work: Path, tiny: bool, cache_dir: Path | None):
    """Generate the inputs under work and their reference answers."""
    import gen
    import reference

    wl = WORKLOADS[name]
    queries = getattr(gen, name)(seed, work, *(wl.tiny_sizes if tiny else wl.sizes))
    ref = reference.Reference(reference.OracleCache(cache_dir))
    ref.prepare(queries)
    return queries, ref


# workloads whose reference answers depend only on the fixed catalogue;
# the first run in a checkout computes them all (its build step)
CATALOGUE_WORKLOADS = ("tileset_queries", "family_ranks")


def build_reference_cache(work: Path, cache_dir: Path) -> None:
    for name in CATALOGUE_WORKLOADS:
        d = work / f"build-{name}"
        d.mkdir()
        prepare(name, 0, d, False, cache_dir)


def run_worker(queries, work: Path, seconds: float, min_passes: int, trace: bool,
               spans_out: Path | None = None) -> dict:
    manifest = work / "manifest.json"
    result = work / "result.json"
    manifest.write_text(json.dumps({
        "queries": [list(q.argv) for q in queries], "seconds": seconds,
        "min_passes": min_passes, "trace": trace,
        "spans_out": str(spans_out) if spans_out else None,
    }))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(manifest), str(result)],
                   env=_env(), check=True, timeout=170)
    return json.loads(result.read_text())


def score(raw: dict, queries, ref) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): every call, warm-up included, is checked."""
    failed, reasons = 0, []
    for q, outputs in zip(queries, raw["outputs"]):
        for rc, out, n in outputs:
            why = ref.check(q, rc, out)
            if why:
                failed += n
                reasons.append(f"{q.name}: {why}")
    return raw["calls"], failed, reasons


def end_to_end(raw: dict, tail: float, setup_s: float) -> dict[str, float]:
    lat = raw["latencies"]
    return {
        "setup_s": setup_s,
        "query_p50_s": statistics.median(lat),
        "query_tail_s": percentile(lat, tail),
        "queries_per_s": len(lat) / raw["busy_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Everything but the printing; returns the result object plus details."""
    wl = WORKLOADS[name]
    clock = time.perf_counter()
    work = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cache_dir = None if tiny else ROOT / ".bench_cache"
        if cache_dir is not None:
            build_reference_cache(work, cache_dir)
        queries, ref = prepare(name, seed, work, tiny, cache_dir)
        phases = {"prepare": time.perf_counter() - clock}
        spans_out = None
        if trace:
            (ROOT / ".bench_trace").mkdir(exist_ok=True)
            spans_out = ROOT / ".bench_trace" / f"{name}.tsv"
        raw = run_worker(queries, work, seconds, 1 if tiny else wl.min_passes, trace, spans_out)
        phases["run"] = time.perf_counter() - clock - phases["prepare"]
        attempted, failed, reasons = score(raw, queries, ref)
        if trace:
            values = {**raw["layers"], **import_profile(3 if tiny else IMPORT_RUNS)}
            units = PER_LAYER
        else:
            tail = tail_fraction(len(queries), wl.min_passes)
            values = end_to_end(raw, tail, import_seconds(3 if tiny else IMPORT_RUNS))
            units = END_TO_END
        metrics = {m: {"value": values.get(m, 0.0), "unit": u} for m, u in units}
        phases["check"] = time.perf_counter() - clock - phases["prepare"] - phases["run"]
        return {
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics},
            "raw": raw, "queries": queries, "ref": ref, "reasons": reasons,
            "unverified": ref.unverified, "phases": phases,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tilelab" / "cli.py").is_file() or not (ROOT / "oracle" / "brute.py").is_file():
        print(f"error: {ROOT} holds no tilelab sources (src/tilelab) or oracle (oracle/brute.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(BENCH)]
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    raw, res = out["raw"], out["result"]
    wl = WORKLOADS[args.workload]
    for why in out["reasons"][:20]:
        print(f"MISMATCH {why}")
    print(f"{args.workload} seed={args.seed}: {len(out['queries'])} queries x {raw['passes']} passes, "
          f"{res['attempted']} calls checked, failed {res['failed']} "
          f"(failed_ratio {res['failed'] / res['attempted']:.6f}), "
          f"unverified negatives {out['unverified']}; "
          + ", ".join(f"{k} {v:.1f} s" for k, v in out["phases"].items()))
    if args.trace:
        m = res["metrics"]
        print(f"tracing overhead: {m['trace.overhead_s']['value']:+.4f} s per pass "
              f"({m['trace.overhead_ratio']['value']:+.1%} of an untraced pass)")
    else:
        n = len(raw["latencies"])
        tail = tail_fraction(len(out["queries"]), wl.min_passes)
        print(f"query_tail_s is p{100 * tail:.2f} of {n} timed samples "
              f"({n - 1 - int((n - 1) * tail)} beyond it)")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
