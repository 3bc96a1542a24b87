import gc
import json
import re
import subprocess
import sys

import pytest

from conftest import CORPUS, FAMILY_DIR, STRIPES_H, STRIPES_V, live_indexes
from tilelab.cli import ParseError, emit_presentation, emit_tileset, main, parse_presentation, parse_tileset
from tilelab.core import Vec2

STRIPES = str(CORPUS / "stripes.tiles")
FAMILY = str(FAMILY_DIR)

HSHAPE = frozenset((Vec2(0, 0), Vec2(1, 0)))
VSHAPE = frozenset((Vec2(0, 0), Vec2(0, 1)))


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.lstrip().startswith("{") else out


# ---------------------------------------------------------------- parsing

def test_parse_stripes(stripes):
    assert stripes.alphabet.tokens == ("R", "G", "W", "B")
    by_shape = dict(zip(stripes.shapes, stripes.allowed))
    hkeys = {(p.cells[Vec2(0, 0)], p.cells[Vec2(1, 0)]) for p in by_shape[HSHAPE]}
    vkeys = {(p.cells[Vec2(0, 1)], p.cells[Vec2(0, 0)]) for p in by_shape[VSHAPE]}
    assert hkeys == set(STRIPES_H)
    assert vkeys == set(STRIPES_V)


def test_parse_forbidden_mode(tmp_path):
    f = tmp_path / "t.tiles"
    f.write_text("alphabet a b\nmode forbidden\nhpair a b\nhpair b a\nvpair b b\n")
    ts = parse_tileset(f)
    by_shape = dict(zip(ts.shapes, ts.allowed))
    hkeys = {(p.cells[Vec2(0, 0)], p.cells[Vec2(1, 0)]) for p in by_shape[HSHAPE]}
    vkeys = {(p.cells[Vec2(0, 1)], p.cells[Vec2(0, 0)]) for p in by_shape[VSHAPE]}
    assert hkeys == {(0, 0), (1, 1)}
    assert vkeys == {(0, 0), (0, 1), (1, 0)}


def test_parse_pattern_block(tmp_path):
    f = tmp_path / "t.tiles"
    f.write_text(
        "alphabet a b\n"
        "pattern\n  cell 0 0 a\n  cell 1 0 a\n  cell 0 1 b\nend\n"
        + "".join(f"hpair {x} {y}\n" for x in "ab" for y in "ab")
        + "".join(f"vpair {x} {y}\n" for x in "ab" for y in "ab")
    )
    ts = parse_tileset(f)
    lshape = frozenset((Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)))
    by_shape = dict(zip(ts.shapes, ts.allowed))
    assert len(by_shape[lshape]) == 1
    (p,) = by_shape[lshape]
    assert p.cells == {Vec2(0, 0): 0, Vec2(1, 0): 0, Vec2(0, 1): 1}
    from tilelab.lang import admissible_squares

    # corner forced to a a / b, remaining cell free
    assert len(admissible_squares(ts, 2)) == 2


@pytest.mark.parametrize(
    "body,line",
    [
        ("alphabet a b\nfoo a\n", 2),
        ("alphabet a b\nalphabet a\n", 2),
        ("alphabet a b\nmode maybe\n", 2),
        ("alphabet a b\nhpair a\n", 2),
        ("hpair a b\n", 1),
        ("alphabet a b\nhpair a c\n", 2),
        ("alphabet a b\npattern\ncell 0 0 a\ncell 0 0 b\nend\n", 4),
        ("alphabet a b\npattern\ncell 0 0 a\n", 2),
        ("alphabet a b\npattern\nend\n", 2),
        ("mode allowed\n", 1),
    ],
)
def test_tileset_parse_errors(tmp_path, body, line):
    f = tmp_path / "bad.tiles"
    f.write_text(body)
    with pytest.raises(ParseError, match=rf":{line}:"):
        parse_tileset(f)


@pytest.mark.parametrize(
    "body",
    [
        "xcuts 0\nregion 0 0 1 1\nR\nregion 1 0 1 1\nG\n",  # no header
        "presentation\nxcuts 3 1\nregion 0 0 1 1\nR\nregion 1 0 1 1\nG\nregion 2 0 1 1\nW\n",
        "presentation\nregion 0 0 1 1\nR\nregion 0 0 1 1\nG\n",  # duplicate
        "presentation\nregion 0 0 2 1\nR\n",  # short row
        "presentation\nxcuts 0\nregion 0 0 1 1\nR\n",  # missing region 1 0
        "presentation\nregion 0 0 1 1\nR\nregion 3 0 1 1\nG\n",  # out of range
        "presentation\nregion 0 0 1 1\nQ\n",  # bad token
        "presentation\nregion 0 0 0 1\n",  # zero-width block
        "presentation\nwat\n",
    ],
)
def test_presentation_parse_errors(tmp_path, stripes, body):
    f = tmp_path / "bad.pres"
    f.write_text(body)
    with pytest.raises(ParseError):
        parse_presentation(f, stripes.alphabet)


def test_tileset_round_trip(tmp_path, stripes, checkerboard):
    for ts in (stripes, checkerboard):
        f = tmp_path / "rt.tiles"
        f.write_text(emit_tileset(ts))
        assert parse_tileset(f) == ts


def test_pattern_block_round_trip(tmp_path):
    f = tmp_path / "t.tiles"
    f.write_text(
        "alphabet a b\npattern\ncell 0 0 a\ncell 1 1 b\nend\nhpair a a\nvpair b b\n"
    )
    ts = parse_tileset(f)
    g = tmp_path / "rt.tiles"
    g.write_text(emit_tileset(ts))
    assert parse_tileset(g) == ts


def test_emit_tileset_refuses_a_shape_that_allows_nothing(capsys, tmp_path):
    # forbidding every hpair leaves the horizontal shape with no pattern; an
    # allowed-mode file would drop the shape and so lift the constraint
    f = tmp_path / "t.tiles"
    f.write_text("alphabet a b\nmode forbidden\nvpair a b\n"
                 + "".join(f"hpair {x} {y}\n" for x in "ab" for y in "ab"))
    rc = main(["patterns", str(f), "--size", "2", "--count"])
    assert (rc, capsys.readouterr().out) == (0, "0\n")
    with pytest.raises(ValueError, match=r"shape \[\(0, 0\), \(1, 0\)\] allows no pattern"):
        emit_tileset(parse_tileset(f))


def test_presentation_round_trip(tmp_path, stripes, members):
    for name in ("mono_red", "red_green", "green_over_white", "a3", "b2"):
        f = tmp_path / "rt.pres"
        f.write_text(emit_presentation(members[name]))
        assert parse_presentation(f, stripes.alphabet) == members[name]


# ------------------------------------------------------------ subcommands

def test_patterns_count(capsys):
    rc = main(["patterns", STRIPES, "--size", "2", "--count"])
    assert rc == 0
    assert capsys.readouterr().out == "11\n"


def test_searches_have_no_depth_limit(capsys, tmp_path):
    """On the one-state set, a 32-square is a 1024-cell fill, the budget-40
    ladder fills a 40-square, and a 1100-wide torus is an 1100-step walk."""
    f = tmp_path / "one.tiles"
    f.write_text("alphabet a\nmode allowed\nhpair a a\nvpair a a\n")
    assert main(["patterns", str(f), "--size", "32", "--count"]) == 0
    assert capsys.readouterr().out == "1\n"
    rc, out = run(capsys, "classify", str(f), "--budget", "40")
    assert (rc, out) == (0, {"outcome": "periodic", "tiling": {"p": 1, "q": 1, "rows": ["a"]}})
    rc, out = run(capsys, "torus", str(f), "--max-p", "1100", "--max-q", "1")
    assert (rc, out["count"]) == (0, 1)


def test_forbidden_mode_keeps_a_fully_forbidden_shape(capsys, tmp_path):
    f = tmp_path / "t.tiles"
    f.write_text("alphabet a b\nmode forbidden\n" + "".join(f"hpair {x} {y}\n" for x in "ab" for y in "ab"))
    assert parse_tileset(f).shapes == (HSHAPE,)
    rc = main(["patterns", str(f), "--size", "2", "--count"])
    assert rc == 0
    assert capsys.readouterr().out == "0\n"
    rc, out = run(capsys, "classify", str(f), "--budget", "2")
    assert (rc, out) == (0, {"outcome": "empty", "square": 2})


def test_patterns_json(capsys):
    rc, out = run(capsys, "patterns", STRIPES, "--size", "1")
    assert rc == 0
    assert out["count"] == 4
    assert out["patterns"] == [
        {"width": 1, "height": 1, "rows": [t]} for t in ("R", "G", "W", "B")
    ]


def test_torus_json(capsys):
    rc, out = run(capsys, "torus", STRIPES, "--max-p", "2", "--max-q", "2")
    assert rc == 0
    assert out["count"] == 4
    assert out["tilings"] == [{"p": 1, "q": 1, "rows": [t]} for t in ("R", "G", "W", "B")]


def test_classify_periodic(capsys):
    rc, out = run(capsys, "classify", str(CORPUS / "checkerboard.tiles"), "--budget", "4")
    assert rc == 0
    assert out == {"outcome": "periodic", "tiling": {"p": 2, "q": 2, "rows": ["b a", "a b"]}}


def test_classify_empty(capsys, tmp_path):
    f = tmp_path / "stuck.tiles"
    f.write_text("alphabet a b\nmode forbidden\nhpair a b\nhpair b a\nhpair b b\nvpair a a\n")
    rc, out = run(capsys, "classify", str(f), "--budget", "4")
    assert rc == 0
    assert out == {"outcome": "empty", "square": 2}


def test_weak_periodic_found(capsys):
    rc, out = run(capsys, "weak-periodic", STRIPES, "--max-period", "1")
    assert rc == 0
    assert out["found"] is True
    assert out["period_lattice"] == {"rank": 1, "generators": [[0, 1]]}
    assert out["presentation"]["xcuts"] == [1]
    assert [r["rows"] for r in out["presentation"]["regions"]] == [["R"], ["G"]]


def test_weak_periodic_found_between_vertical_rotations(capsys, tmp_path):
    # the only two cycles of the height-2 wrap graph are the columns
    # (a,a)(b,c) and (a,a)(c,b), vertical rotations of one another
    f = tmp_path / "t.tiles"
    f.write_text("alphabet a b c\n"
                 + "".join(f"hpair {p}\n" for p in ("a b", "a c", "b a", "b b", "b c", "c a"))
                 + "".join(f"vpair {p}\n" for p in ("a a", "a b", "c b", "b c")))
    rc, out = run(capsys, "weak-periodic", str(f), "--max-period", "2")
    assert rc == 0
    assert out["found"] is True
    assert out["period_lattice"] == {"rank": 1, "generators": [[0, 2]]}


def test_weak_periodic_none(capsys):
    rc, out = run(capsys, "weak-periodic", str(CORPUS / "checkerboard.tiles"),
                  "--max-period", "4")
    assert rc == 1
    assert out == {"found": False, "max_period": 4}


def test_validate(capsys):
    rc, out = run(capsys, "validate", STRIPES, str(FAMILY_DIR / "a1.pres"))
    assert (rc, out) == (0, {"valid": True})
    rc, out = run(capsys, "validate", STRIPES, str(CORPUS / "invalid" / "white_over_green.pres"))
    assert (rc, out) == (1, {"valid": False})


def test_analyze_type_b(capsys):
    rc, out = run(capsys, "analyze", STRIPES, str(FAMILY_DIR / "a2.pres"))
    assert rc == 0
    assert out == {
        "valid": True,
        "type": {"kind": "b", "witness": {"width": 2, "height": 2, "rows": ["R G", "R W"]}},
        "period_lattice": {"rank": 0, "generators": []},
    }


def test_analyze_type_a(capsys):
    rc, out = run(capsys, "analyze", STRIPES, str(FAMILY_DIR / "b1.pres"))
    assert rc == 0
    assert out["type"] == {"kind": "a"}
    assert out["period_lattice"] == {"rank": 1, "generators": [[1, 0]]}


def test_order_json(capsys):
    rc, out = run(capsys, "order", STRIPES, FAMILY, "--window", "6")
    assert rc == 0
    assert out["window"] == 6
    assert len(out["classes"]) == 23
    assert all(len(c["members"]) == 1 for c in out["classes"])
    flags = {c["members"][0]: c for c in out["classes"]}
    assert {n for n, c in flags.items() if c["minimal"]} == {
        "mono_red", "mono_green", "mono_white", "mono_black"}
    assert {n for n, c in flags.items() if c["maximal"]} == {
        *(f"a{i}" for i in range(1, 7)), "red_green_over_white", "red_white_over_black"}
    assert flags["mono_red"]["level"] == 0
    assert flags["b4"]["level"] == 1
    assert flags["a4"]["level"] == 2
    assert len(out["covers"]) == 46


def test_order_stabilization(capsys):
    rc, out = run(capsys, "order", STRIPES, FAMILY, "--window", "6")
    assert out["stabilization"]["stable"] is False
    assert len(out["stabilization"]["unstable_pairs"]) == 12
    rc, out = run(capsys, "order", STRIPES, FAMILY, "--window", "9")
    assert out["stabilization"] == {"stable": True, "unstable_pairs": []}


def test_order_dot(capsys, tmp_path):
    dot = tmp_path / "h.dot"
    rc, _ = run(capsys, "order", STRIPES, FAMILY, "--window", "6", "--dot", str(dot))
    assert rc == 0
    text = dot.read_text()
    assert text.startswith("digraph extraction {")
    node = {m[2]: m[1] for m in re.finditer(r'(c\d+) \[label="([^"]+)"\]', text)}
    edges = set(re.findall(r"(c\d+) -> (c\d+);", text))
    assert len(node) == 23 and len(edges) == 46
    assert (node["mono_white"], node["green_over_white"]) in edges
    assert (node["mono_white"], node["white_over_black"]) in edges
    assert (node["b1"], node["a1"]) in edges
    assert (node["a1"], node["b1"]) not in edges


def test_order_dot_escapes_labels(capsys, tmp_path):
    fam = tmp_path / "fam"
    fam.mkdir()
    for stem, new in (("mono_red", 'say "red"'), ("mono_green", "back\\slash")):
        (fam / f"{new}.pres").write_text((FAMILY_DIR / f"{stem}.pres").read_text())
    dot = tmp_path / "h.dot"
    rc, _ = run(capsys, "order", STRIPES, str(fam), "--window", "6", "--dot", str(dot))
    assert rc == 0
    labels = re.findall(r'\[label="((?:[^"\\]|\\.)*)"\];', dot.read_text())
    assert sorted(labels) == ["back\\\\slash", 'say \\"red\\"']


def test_order_dot_write_failure_prints_nothing(capsys, tmp_path):
    dot = tmp_path / "missing" / "h.dot"
    rc = main(["order", STRIPES, FAMILY, "--window", "6", "--dot", str(dot)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_cb_json(capsys):
    rc, out = run(capsys, "cb", STRIPES, FAMILY, "--window", "6")
    assert rc == 0
    assert out["window"] == 6
    assert out["family_rank"] == 4
    assert out["residue"] == []
    assert out["ranks"]["a3"] == 1
    assert out["ranks"]["b3"] == 2
    assert out["ranks"]["red_white"] == 3
    assert out["ranks"]["mono_black"] == 4


@pytest.mark.parametrize("argv", [
    ["analyze", STRIPES, str(FAMILY_DIR / "a2.pres")],
    ["order", STRIPES, FAMILY, "--window", "6"],
    ["cb", STRIPES, FAMILY, "--window", "6"],
], ids=lambda argv: argv[0])
def test_a_call_leaves_no_scan_index_alive(capsys, argv):
    """A call's planes die when it returns, and their indexes with them,
    by refcount alone: the collector is off for the call."""
    gc.disable()
    try:
        before = live_indexes()
        assert main(argv) == 0
        assert live_indexes() == before
    finally:
        gc.enable()


# ------------------------------------------------------ canonical stdout

CHECKER = str(CORPUS / "checkerboard.tiles")
DIES = str(CORPUS / "outcomes" / "dies_at_3.tiles")
# a quote, a backslash and a non-ASCII letter, which json.dumps escapes
ESCAPED = str(CORPUS / "outcomes" / "escaped_tokens.tiles")
ESCAPED_ROW = '"q" \\ \xe9'


def canonical(capsys, argv) -> tuple[int, dict]:
    """Run argv and check that stdout is json.dumps(indent=2, sort_keys=True)
    of its own value, plus a newline."""
    rc = main(argv)
    out = capsys.readouterr().out
    value = json.loads(out)
    assert out == json.dumps(value, indent=2, sort_keys=True) + "\n"
    return rc, value


@pytest.mark.parametrize("argv, rc, check", [
    (["patterns", STRIPES, "--size", "2", "--margin", "1"], 0, lambda o: o["count"] == len(o["patterns"]) > 1),
    (["classify", CHECKER, "--budget", "4"], 0, lambda o: o["outcome"] == "periodic"),
    (["weak-periodic", STRIPES, "--max-period", "1"], 0, lambda o: o["found"] is True),
    (["weak-periodic", CHECKER, "--max-period", "4"], 1, lambda o: o["found"] is False),
    (["validate", STRIPES, str(FAMILY_DIR / "a1.pres")], 0, lambda o: o["valid"] is True),
    (["analyze", STRIPES, str(FAMILY_DIR / "a2.pres")], 0, lambda o: o["type"]["kind"] == "b"),
    (["order", STRIPES, FAMILY, "--window", "6"], 0, lambda o: len(o["classes"]) == 23),
    pytest.param(["torus", DIES, "--max-p", "3", "--max-q", "3"], 0, lambda o: o == {"count": 0, "tilings": []},
                 id="torus-none"),
    pytest.param(["torus", ESCAPED, "--max-p", "3", "--max-q", "3"], 0,
                 lambda o: o["count"] == len(o["tilings"]) == 2 and o["tilings"][0]["rows"] == [ESCAPED_ROW],
                 id="torus-escaped"),
    pytest.param(["classify", ESCAPED, "--budget", "3"], 0, lambda o: o["tiling"]["rows"] == [ESCAPED_ROW],
                 id="classify-escaped"),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_stdout_is_canonical_json(capsys, argv, rc, check):
    got, out = canonical(capsys, argv)
    assert got == rc
    assert check(out)


def test_torus_stdout_is_canonical_json(capsys, tmp_path):
    # free 3-state pairs but c over c: 1,069 tori, which share their rows
    f = tmp_path / "dense.tiles"
    f.write_text("alphabet a b c\n" + "".join(f"hpair {s} {t}\nvpair {s} {t}\n" for s in "abc" for t in "abc")
                 .replace("vpair c c\n", ""))
    rc, out = canonical(capsys, ["torus", str(f), "--max-p", "3", "--max-q", "3"])
    assert rc == 0
    assert out["count"] == len(out["tilings"]) == 1069
    assert all(len(t["rows"]) == t["q"] and {len(r.split()) for r in t["rows"]} == {t["p"]} for t in out["tilings"])


def test_cb_stdout_is_canonical_json_with_a_residue(capsys, monkeypatch):
    """A residue member prints as null.  No corpus family keeps a residue,
    so the report is cut one round short: its last round becomes the
    residue, as if those classes never isolated."""
    import tilelab.cli
    from tilelab.cb import RankReport

    real = tilelab.cli.ranks

    def cut_short(f):
        r = real(f)
        kept = {n: k for n, k in r.ranks.items() if k < r.family_rank}
        return RankReport(kept, r.family_rank - 1, tuple(n for n in r.ranks if n not in kept))

    monkeypatch.setattr(tilelab.cli, "ranks", cut_short)
    rc, out = canonical(capsys, ["cb", STRIPES, FAMILY, "--window", "6"])
    assert rc == 0
    assert out["residue"] == ["mono_black", "mono_green", "mono_red", "mono_white"]
    assert out["ranks"]["mono_red"] is None and out["ranks"]["a3"] == 1


# -------------------------------------------------------------- exit codes

def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.tiles"
    f.write_text("alphabet a b\nfoo\n")
    rc = main(["patterns", str(f), "--size", "1"])
    assert rc == 2
    assert "bad.tiles:2:" in capsys.readouterr().err


@pytest.mark.parametrize("name,body,argv,line,msg", [
    ("first.tiles", "alphabet a b\nhpair c a\n", (), 2, "token 'c' not in alphabet"),
    ("second.tiles", "alphabet a b\nhpair a c\n", (), 2, "token 'c' not in alphabet"),
    ("both.tiles", "alphabet a b\nvpair c d\n", (), 2, "token 'c' not in alphabet"),
    ("arity.tiles", "alphabet a b\nhpair a b a\n", (), 2, "hpair takes exactly two tokens"),
    ("short.tiles", "alphabet a b\nvpair a\n", (), 2, "vpair takes exactly two tokens"),
    ("cell.tiles", "alphabet a b\npattern\ncell 0 0 a\ncell 1 0 z\nend\n", (), 4, "token 'z' not in alphabet"),
    ("row.pres", "presentation\nxcuts 0\nregion 0 0 2 1\nR Q\nregion 1 0 1 1\nG\n", (STRIPES,), 4,
     "token 'Q' not in alphabet"),
    ("rows.pres", "presentation\nregion 0 0 2 2\nR G\nX Y\n", (STRIPES,), 4, "token 'X' not in alphabet"),
], ids=["pair-first", "pair-second", "pair-both", "pair-three", "pair-one", "cell", "row", "row-first"])
def test_bad_token_and_arity_messages(capsys, tmp_path, name, body, argv, line, msg):
    """A line with bad tokens names the first one; the exact stderr."""
    f = tmp_path / name
    f.write_text(body)
    cmd = ["validate", *argv, str(f)] if argv else ["patterns", str(f), "--size", "1"]
    assert main(cmd) == 2
    assert capsys.readouterr() == ("", f"error: {f}:{line}: {msg}\n")


def test_forbidden_mode_refuses_an_oversized_complement(capsys, tmp_path):
    # 17 cells over 2 states: 2^17 fillings, over the 2^16 complement limit
    f = tmp_path / "big.tiles"
    f.write_text("alphabet a b\nmode forbidden\npattern\n"
                 + "".join(f"  cell {x} 0 a\n" for x in range(17)) + "end\n")
    rc = main(["patterns", str(f), "--size", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"error: {f}:1: forbidden-mode complement too large\n"


def test_missing_file_exit_code(capsys):
    rc = main(["patterns", "no_such.tiles", "--size", "1"])
    assert rc == 2


@pytest.mark.parametrize("argv,err", [
    (("torus", STRIPES, "--max-p", "0", "--max-q", "2"), "maxp and maxq must be positive"),
    (("torus", STRIPES, "--max-p", "2", "--max-q", "0"), "maxp and maxq must be positive"),
    (("classify", STRIPES, "--budget", "0"), "budget must be positive"),
    (("weak-periodic", STRIPES, "--max-period", "0"), "maxq must be positive"),
    (("patterns", STRIPES, "--size", "0"), "n must be positive"),
    (("patterns", STRIPES, "--size", "0", "--count"), "n must be positive"),
    (("patterns", STRIPES, "--size", "2", "--margin", "-1", "--count"), "margin must be >= 0"),
    (("patterns", STRIPES, "--size", "0", "--margin", "-1"), "margin must be >= 0"),
], ids=["torus-p", "torus-q", "classify", "weak-periodic", "patterns", "patterns-count", "patterns-margin",
        "patterns-margin-before-size"])
def test_nonpositive_bound_exit_code(capsys, argv, err):
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_missing_required_flag():
    with pytest.raises(SystemExit) as e:
        main(["order", STRIPES, FAMILY])
    assert e.value.code == 2


def test_parser_is_built_at_the_first_call():
    code = "import tilelab.cli as c; print(c._parser.cache_info().currsize)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout == "0\n"


def _fresh(*argv):
    res = subprocess.run([sys.executable, "-m", "tilelab.cli", *argv], capture_output=True, text=True)
    return res.returncode, res.stdout, res.stderr


def test_a_usage_error_leaves_the_shared_parser_as_new(capsys):
    """One process making a bad call and then a good one prints what two
    fresh processes print."""
    bad = ("patterns", STRIPES, "--size", "x", "--count")
    good = ("patterns", STRIPES, "--size", "2", "--count")
    with pytest.raises(SystemExit) as e:
        main(list(bad))
    first = capsys.readouterr()
    assert (e.value.code, first.out, first.err) == _fresh(*bad)
    rc = main(list(good))
    second = capsys.readouterr()
    assert (rc, second.out, second.err) == _fresh(*good) == (0, "11\n", "")


def test_module_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "tilelab.cli", "patterns", STRIPES, "--size", "2", "--count"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stdout == "11\n"
