"""Round trips through both file formats on generated inputs.

parse(emit(x)) == x for tile sets mixing pair rules with `pattern` blocks,
and for presentations with 0-2 cuts per axis.  derandomize keeps every run
on the same seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilelab.cli import emit_presentation, emit_tileset, parse_presentation, parse_tileset
from tilelab.core import Alphabet, Pattern, TileSet, Vec2
from tilelab.presentation import Block, GridPresentation

common = settings(max_examples=100, deadline=None, derandomize=True)

TOKENS = ("a", "b", "Red", "x_1", "G2", "z")
HSHAPE = (Vec2(0, 0), Vec2(1, 0))
VSHAPE = (Vec2(0, 0), Vec2(0, 1))
CELLS = [Vec2(x, y) for x in range(3) for y in range(3)]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


@st.composite
def alphabets(draw):
    return Alphabet(tuple(draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4, unique=True))))


@st.composite
def tilesets(draw):
    """Dominoes in either direction or none, plus 0-2 shapes of up to four
    cells in a 3 x 3 box; every shape allows at least one pattern."""
    al = draw(alphabets())
    shapes = [s for s in (HSHAPE, VSHAPE) if draw(st.booleans())]
    shapes += draw(st.lists(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4, unique=True),
                            min_size=0 if shapes else 1, max_size=2))
    state = st.integers(0, len(al) - 1)
    pats = [
        Pattern(al, dict(zip(cells, key)))
        for cells in shapes
        for key in draw(st.lists(st.tuples(*[state] * len(cells)), min_size=1, max_size=6))
    ]
    return TileSet.from_allowed(al, pats)


@st.composite
def blocks(draw, nstates):
    u, v = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    col = st.tuples(*[st.integers(0, nstates - 1)] * v)
    return Block(u, v, tuple(draw(col) for _ in range(u)))


@st.composite
def presentations(draw):
    al = draw(alphabets())
    cuts = st.lists(st.integers(-6, 6), max_size=2, unique=True).map(lambda c: tuple(sorted(c)))
    xcuts, ycuts = draw(cuts), draw(cuts)
    regions = tuple(tuple(draw(blocks(len(al))) for _ in range(len(ycuts) + 1))
                    for _ in range(len(xcuts) + 1))
    return GridPresentation(al, xcuts, ycuts, regions)


@common
@given(ts=tilesets())
def test_tileset_round_trip(scratch, ts):
    f = scratch / "rt.tiles"
    f.write_text(emit_tileset(ts))
    assert parse_tileset(f) == ts


@common
@given(g=presentations())
def test_presentation_round_trip(scratch, g):
    f = scratch / "rt.pres"
    f.write_text(emit_presentation(g))
    assert parse_presentation(f, g.alphabet) == g


def test_pair_lines_read_the_same_in_the_library_and_the_file(scratch):
    """hpair is (left, right) and vpair (top, bottom) in TileSet.dominoes,
    in parse_tileset and in emit_tileset alike; every pair is asymmetric,
    so flipping either orientation on any side changes the set."""
    al = Alphabet(("a", "b", "c"))
    ts = TileSet.dominoes(al, [("a", "b"), ("b", "c")], [("a", "c")])
    lines = ["vpair a c", "hpair a b", "hpair b c"]  # in the order emit_tileset writes shapes
    assert Pattern(al, {Vec2(0, 0): 0, Vec2(1, 0): 1}) in ts.allowed[ts.shapes.index(frozenset(HSHAPE))]
    assert Pattern(al, {Vec2(0, 1): 0, Vec2(0, 0): 2}) in ts.allowed[ts.shapes.index(frozenset(VSHAPE))]
    f = scratch / "pairs.tiles"
    f.write_text("\n".join(["alphabet a b c", *lines]) + "\n")
    assert parse_tileset(f) == ts
    assert emit_tileset(ts).splitlines()[2:] == lines
