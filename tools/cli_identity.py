"""Check that two source trees give byte-identical CLI answers.

    python3 tools/cli_identity.py PARENT CHANGE [--seeds 11 12]

PARENT and CHANGE are checkouts of this repository.  The calls are every
benchmark query of the three workloads at each seed, generated once with
bench/gen.py at the benchmark's own sizes, each torus and classify query
again at larger sizes (torus 4 x 3 and 3 x 4, classify budget 4), and a
fixed list of calls on the corpus (`--seeds` with no value runs the corpus
calls only).  Each tree runs all calls in one subprocess of its own, through
its own `tilelab.cli.main`, on the same input files, in one temporary
working directory: the corpus calls name the mixed family and the malformed
tile-set files written there by a relative path, and the dot file of
`order --dot` too.  Exit code, stdout,
stderr and the text of a written dot file are compared call by call; the
script prints each difference and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
OUTCOMES = CORPUS / "outcomes"
MIXED = "mixed_family"  # written by write_mixed_family in the runners' working directory

# reads a JSON list of argv lists on stdin; prints [exit code, stdout, stderr,
# dot text] per call, the dot text None unless the call wrote its --dot file
_RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tilelab.cli
assert tilelab.cli.__file__.startswith(sys.argv[1]), tilelab.cli.__file__
out = []
for argv in json.load(sys.stdin):
    dot = Path(argv[argv.index("--dot") + 1]) if "--dot" in argv else None
    if dot:
        dot.unlink(missing_ok=True)  # the other tree's file
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = tilelab.cli.main(argv)
        except SystemExit as e:  # argparse refusals
            code = e.code
    out.append([code, so.getvalue(), se.getvalue(), dot.read_text() if dot and dot.exists() else None])
json.dump(out, sys.stdout)
"""


def write_mixed_family(work: Path) -> None:
    """The corpus family plus two invalid members, a vertical and a horizontal
    seam that stripes forbids, whose stems sort apart: a family that is refused
    for its first invalid member in name order, with another one after it."""
    shutil.copytree(CORPUS / "family", work / MIXED)
    shutil.copy(CORPUS / "invalid" / "white_over_green.pres", work / MIXED)
    (work / MIXED / "green_left_of_white.pres").write_text(
        "presentation\nxcuts 0\nregion 0 0 1 1\nG\nregion 1 0 1 1\nW\n")


# one malformed tile-set file per refusal of cli.parse_tileset, written by
# write_bad_tilesets into BAD in the runners' working directory
BAD = "bad_tilesets"
BAD_TILESETS = {
    "not_utf8": b"alphabet a b\nhpair a \xff\n",
    "duplicate_alphabet": "alphabet a b\nalphabet a b\nhpair a b\n",
    "bad_alphabet": "alphabet a a\nhpair a a\n",
    "duplicate_mode": "alphabet a b\nmode allowed\nmode allowed\nhpair a b\n",
    "bad_mode": "alphabet a b\nmode maybe\nhpair a b\n",
    "pair_before_alphabet": "vpair a b\nalphabet a b\n",
    "pair_of_three": "alphabet a b\nvpair a b a\n",
    "pair_token": "alphabet a b\nhpair a b\nvpair b c\n",
    "pattern_before_alphabet": "pattern\ncell 0 0 a\nend\nalphabet a b\n",
    "pattern_arguments": "alphabet a b\npattern 2\ncell 0 0 a\nend\n",
    "bad_cell_line": "alphabet a b\npattern\ncell 0 0 a\ncell 1 0\nend\n",
    "bad_cell_offset": "alphabet a b\npattern\ncell 0 y a\nend\n",
    "duplicate_cell": "alphabet a b\npattern\ncell 1 -1 a\ncell 1 -1 b\nend\n",
    "cell_token": "alphabet a b\npattern\ncell 0 0 a\ncell -1 0 c\nend\n",
    "unclosed_pattern": "alphabet a b\npattern\ncell 0 0 a\n",
    "empty_pattern": "alphabet a b\nhpair a b\npattern\nend\n",
    "unknown_directive": "alphabet a b\nwpair a b\n",
    "missing_alphabet": "# no alphabet line\nmode allowed\n",
    "no_constraint": "alphabet a b\nmode forbidden\n",
    "complement_too_large": "alphabet a b\nmode forbidden\npattern\n"
                            + "".join(f"cell {x} 0 a\n" for x in range(17)) + "end\n",
}


def write_bad_tilesets(work: Path) -> None:
    (work / BAD).mkdir()
    for name, text in BAD_TILESETS.items():
        path = work / BAD / f"{name}.tiles"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())


def corpus_calls() -> list[list[str]]:
    """validate and analyze on every corpus plane; order and cb on the corpus
    family, on the invalid corpus directory and on the mixed family (both
    exit 2); the tile-set subcommands on both corpus tile sets; and the
    outcomes that these calls do not reach, on the small sets of
    corpus/outcomes: an empty and an unknown classify answer, an empty torus
    listing, tokens that JSON escapes, a forbidden-mode file, a witness found
    only in the transposed orientation, a malformed tile-set file and a
    malformed plane (both exit 2), and `order --dot`; and `patterns` on each
    file of BAD_TILESETS (exit 2)."""
    stripes, sets = str(CORPUS / "stripes.tiles"), [str(CORPUS / n) for n in ("stripes.tiles", "checkerboard.tiles")]
    planes = sorted((CORPUS / "family").glob("*.pres")) + sorted((CORPUS / "invalid").glob("*.pres"))
    calls = [[cmd, stripes, str(p)] for p in planes for cmd in ("validate", "analyze")]
    calls += [[cmd, stripes, str(CORPUS / "family"), "--window", str(w)] for w in (2, 3, 4, 6, 8) for cmd in ("order", "cb")]
    calls += [[cmd, stripes, fam, "--window", "6"] for fam in (str(CORPUS / "invalid"), MIXED) for cmd in ("order", "cb")]
    for ts in sets:
        calls += [["weak-periodic", ts, "--max-period", str(m)] for m in range(1, 5)]
        calls += [["patterns", ts, "--size", str(n), "--margin", str(m), *c]
                  for n in range(1, 4) for m in range(3) for c in ([], ["--count"])]
        calls += [["torus", ts, "--max-p", "3", "--max-q", "3"], ["classify", ts, "--budget", "3"]]
    dies, cycle, hard, rows, escaped, bad, bad_plane = (str(OUTCOMES / n) for n in (
        "dies_at_3.tiles", "four_cycle.tiles", "hard_squares.tiles", "constant_rows.tiles", "escaped_tokens.tiles",
        "bad_token.tiles", "bad_row.pres"))
    calls += [["classify", dies, "--budget", "4"], ["torus", dies, "--max-p", "3", "--max-q", "3"],
              ["torus", escaped, "--max-p", "3", "--max-q", "3"], ["classify", escaped, "--budget", "3"],
              ["patterns", escaped, "--size", "2"], ["classify", cycle, "--budget", "3"],
              ["torus", cycle, "--max-p", "4", "--max-q", "2"], ["patterns", cycle, "--size", "5", "--count"],
              ["patterns", hard, "--size", "3"], ["patterns", hard, "--size", "4", "--count"],
              ["classify", hard, "--budget", "3"], ["weak-periodic", rows, "--max-period", "2"],
              ["validate", bad, str(CORPUS / "family" / "a1.pres")], ["torus", bad, "--max-p", "2", "--max-q", "2"],
              ["validate", stripes, bad_plane], ["analyze", stripes, bad_plane],
              ["order", stripes, str(CORPUS / "family"), "--window", "6", "--dot", "order.dot"]]
    calls += [["patterns", f"{BAD}/{name}.tiles", "--size", "1"] for name in BAD_TILESETS]
    return calls


# sizes past the benchmark's 3 x 3, added on each catalogue set that the benchmark
# queries with the same subcommand: they reach p = 4 walks and vertical rotations of order 4
LARGER = {"torus": (("--max-p", "4", "--max-q", "3"), ("--max-p", "3", "--max-q", "4")),
          "classify": (("--budget", "4"),)}


def benchmark_calls(seeds, work: Path) -> list[list[str]]:
    """Every query of every benchmark workload at each seed, written under work,
    and each torus and classify query again at the LARGER sizes."""
    if not seeds:
        return []
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import gen
    from run import WORKLOADS

    calls = []
    for seed in seeds:
        for name, wl in sorted(WORKLOADS.items()):
            out = work / f"{name}-{seed}"
            out.mkdir()
            queries = [list(q.argv) for q in getattr(gen, name)(seed, out, *wl.sizes)]
            calls += queries + [[cmd, path, *size] for cmd, path, *_ in queries for size in LARGER.get(cmd, ())]
    return calls


def run_tree(tree: Path, calls, work: Path) -> list:
    src = str((tree / "src").resolve())
    done = subprocess.run([sys.executable, "-c", _RUNNER, src], input=json.dumps(calls),
                          capture_output=True, text=True, cwd=work)
    if done.returncode:
        sys.exit(f"{tree}: runner failed\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="*", default=[11, 12])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_mixed_family(work)
        write_bad_tilesets(work)
        calls = corpus_calls() + benchmark_calls(args.seeds, work)
        answers = [run_tree(tree, calls, work) for tree in (args.parent, args.change)]
    differ = 0
    for call, a, b in zip(calls, *answers):
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr", "dot file"), a, b) if x != y]
        if parts:
            differ += 1
            print(f"differ in {', '.join(parts)}: {' '.join(call)}")
    print(f"{len(calls)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
