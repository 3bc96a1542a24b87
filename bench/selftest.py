"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted output of every query kind is counted as failed, that
traced and untraced runs produce identical CLI outputs, that the generated
family matches the corpus files, and that the benchmark refuses to run
without the program.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[selftest] {'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def corrupt(kind: str, rc, out: str) -> tuple:
    """A wrong answer of the same shape for each query kind."""
    if kind == "count":
        return rc, f"{int(out) + 1}\n"
    obj = json.loads(out)
    if kind in ("margin", "torus"):
        obj["count"] += 1
    elif kind == "classify":
        obj = {"outcome": "unknown", "budget": 3}
    elif kind == "weak":
        if obj["found"]:
            obj["period_lattice"]["rank"] = 2
        else:
            rc = 0
    elif kind == "validate":
        obj["valid"] = not obj["valid"]
    elif kind == "analyze":
        obj["period_lattice"]["rank"] = 1 - min(obj["period_lattice"]["rank"], 1)
    elif kind == "order":
        obj["classes"][0]["level"] += 1
    elif kind == "cb":
        name = next(n for n, r in obj["ranks"].items() if r is not None)
        obj["ranks"][name] += 1
    return rc, json.dumps(obj)


def declared() -> tuple[list, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main() -> int:
    e2e, layers = declared()
    check(e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layers == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.PER_LAYER")
    for name in run.WORKLOADS:
        plain = run.run(name, 7, 0.5, False, tiny=True)
        traced = run.run(name, 7, 0.5, True, tiny=True)
        for out, want in ((plain, e2e), (traced, layers)):
            res = out["result"]
            got = [(m, v["unit"]) for m, v in res["metrics"].items()]
            check(got == want and all(isinstance(v["value"], float) for v in res["metrics"].values()),
                  f"{name}: every {'per-layer' if out is traced else 'end-to-end'} metric printed with its unit")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name}: tiny run correct ({res['failed']} of {res['attempted']} failed)")
        same = all(
            {tuple(o[:2]) for o in a} == {tuple(o[:2]) for o in b}
            for a, b in zip(plain["raw"]["outputs"], traced["raw"]["outputs"]))
        check(same, f"{name}: traced and untraced runs print identical CLI outputs")
        caught = []
        for i, q in enumerate(plain["queries"]):
            raw = copy.deepcopy(plain["raw"])
            rc, text, n = raw["outputs"][i][0]
            raw["outputs"][i][0][:2] = corrupt(q.ref[0], rc, text)
            attempted, failed, _ = run.score(raw, plain["queries"], plain["ref"])
            caught.append(failed == n)
        check(all(caught), f"{name}: a corrupted output of each of {len(caught)} queries counts as failed")

    from tilelab.cli import parse_presentation

    st = gen.Stripes(None)
    members = gen.family_members(st.alphabet, 6)
    corpus = sorted((ROOT / "corpus" / "family").glob("*.pres"))
    check(sorted(f.stem for f in corpus) == sorted(members)
          and all(parse_presentation(f, st.alphabet) == members[f.stem][0] for f in corpus),
          "generated family at i_max 6 equals corpus/family")

    bare = ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family_ranks", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the program the benchmark exits nonzero and prints no result")

    print(f"[selftest] {'OK' if not FAILURES else f'{len(FAILURES)} FAILED'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
