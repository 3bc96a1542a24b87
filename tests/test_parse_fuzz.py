"""Fuzzing of both file formats through `tilelab.cli.main`.

Files are made of grammar lines, lines of shuffled grammar tokens, garbled
text (odd line breaks included) and bytes that are not UTF-8.  Every call
returns 0, 1 or 2 and never raises, and every exit-2 call names the file
and the line: `error: <path>:<line>: `.  Offsets, cuts and region sizes
stay small, so every call is cheap.  derandomize keeps every run on the
same examples.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from tilelab.cli import main

fuzz = settings(max_examples=300, deadline=None, derandomize=True)

TILESET_LINES = (
    "alphabet a b", "alphabet a b c", "alphabet a a", "alphabet", "mode allowed", "mode forbidden",
    "mode maybe", "hpair a b", "hpair b b", "vpair a b", "vpair a", "hpair a c", "pattern", "pattern x",
    "cell 0 0 a", "cell 1 0 b", "cell 0 1 a", "cell -1 2 b", "cell x 0 a", "cell 0 0", "end", "# note", "",
)
TILESET_TOKENS = ("alphabet", "mode", "allowed", "forbidden", "hpair", "vpair", "pattern", "cell", "end",
                  "a", "b", "c", "0", "1", "-1", "2", "x", "#")
PRESENTATION_LINES = (
    "presentation", "xcuts 0", "xcuts 0 2", "xcuts 2 1", "ycuts 1", "ycuts -1 0", "xcuts a",
    "region 0 0 1 1", "region 1 0 2 1", "region 0 1 1 2", "region 0 0 0 1", "region 0 0 1", "region 2 0 1 1",
    "R", "G", "R W", "B G", "Q", "# note", "",
)
PRESENTATION_TOKENS = ("presentation", "xcuts", "ycuts", "region", "R", "G", "W", "B", "Q",
                       "0", "1", "2", "-1", "x", "#")
GARBLE = "ab RGW01-#\t\r\x0b\x0c\x85 é"


@st.composite
def pattern_blocks(draw):
    cells = draw(st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 2), st.sampled_from("abc")),
                          min_size=1, max_size=4))
    return "\n".join(["pattern", *(f"cell {x} {y} {s}" for x, y, s in cells), "end"])


@st.composite
def region_blocks(draw):
    ix, iy, u, v = (draw(st.integers(lo, hi)) for lo, hi in ((0, 2), (0, 1), (1, 3), (1, 2)))
    rows = (" ".join(draw(st.lists(st.sampled_from("RGWB"), min_size=u, max_size=u))) for _ in range(v))
    return "\n".join([f"region {ix} {iy} {u} {v}", *rows])


def files(heads, grammar, blocks, tokens):
    """A head (sometimes a whole valid file), then mostly grammar lines and
    well-formed blocks, some shuffled tokens or garbled text; one file in
    four has a few bytes that are not UTF-8 put in somewhere."""
    good = st.one_of(st.sampled_from(grammar), blocks)
    text = st.one_of(good, good, good, st.lists(st.sampled_from(tokens), max_size=5).map(" ".join),
                     st.text(GARBLE, max_size=8))
    body = st.tuples(st.sampled_from(heads), st.lists(text, max_size=8)).map(lambda f: "\n".join([f[0], *f[1]]))
    bad = st.one_of(st.none(), st.none(), st.none(), st.tuples(st.integers(0, 200), st.binary(min_size=1, max_size=3)))

    def spoil(data: bytes, b) -> bytes:
        return data if b is None else data[:b[0]] + b"\xff" + b[1] + data[b[0]:]

    return st.builds(spoil, body.map(str.encode), bad)


TILESET_FILES = files(("alphabet a b", "alphabet a b c", "alphabet a b\nmode forbidden", "alphabet a b\nhpair a b", ""),
                      TILESET_LINES, pattern_blocks(), TILESET_TOKENS)
PRESENTATION_FILES = files(
    ("presentation", "presentation\nxcuts 0", "presentation\nregion 0 0 2 1\nR W",
     "presentation\nxcuts 0\nregion 0 0 1 1\nR\nregion 1 0 1 1\nG", ""),
    PRESENTATION_LINES, region_blocks(), PRESENTATION_TOKENS)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(path, *argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(list(argv))
    assert rc in (0, 1, 2)
    if rc == 2:
        assert re.match(rf"error: {re.escape(str(path))}:\d+: ", err.getvalue()), err.getvalue()
    return rc, err.getvalue()


@fuzz
@given(data=TILESET_FILES)
def test_tileset_files_fail_with_file_and_line(scratch, data):
    path = scratch / "fuzz.tiles"
    path.write_bytes(data)
    run(path, "patterns", str(path), "--size", "1", "--count")


@fuzz
@given(data=PRESENTATION_FILES)
def test_presentation_files_fail_with_file_and_line(scratch, data):
    path = scratch / "fuzz.pres"
    path.write_bytes(data)
    run(path, "validate", str(CORPUS / "stripes.tiles"), str(path))


def test_undecodable_bytes_and_missing_constraints_name_the_file_and_line(scratch):
    path = scratch / "bytes.tiles"
    path.write_bytes(b"alphabet a b\r\nhpair a b\x0cvpair a\xff b\n")
    assert run(path, "patterns", str(path), "--size", "1") == (2, f"error: {path}:3: not UTF-8 text\n")
    path.write_bytes(b"alphabet a b\n# no constraint\n")
    assert run(path, "patterns", str(path), "--size", "1") == (2, f"error: {path}:1: no constraint line\n")
