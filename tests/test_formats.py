"""Round trips through both file formats on generated inputs, and the
parsers against the library.

parse(emit(x)) == x for tile sets mixing pair rules with `pattern` blocks,
and for presentations with 0-2 cuts per axis.  A parsed tile-set file, and
`TileSet.from_allowed` on its constraints, equal the tile set built from
them through the checked `Pattern` and `TileSet` constructors, grouped as
`from_allowed` grouped them before tile sets were built from key tables;
a parsed block reads its rows bottom up.  derandomize keeps
every run on the same seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilelab.cli import emit_presentation, emit_tileset, parse_presentation, parse_tileset
from tilelab.core import Alphabet, Pattern, TileSet, Vec2, to_forbidden
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


# ------------------------------------------------- parsing against the library

OFFSETS = st.integers(-2, 2)


@st.composite
def tileset_files(draw):
    """A tile-set file in either mode, with its constraint cell maps as the
    library would be given them: hpair/vpair lines and `pattern` blocks
    (offsets -2..2), some written twice, in shuffled order."""
    al = draw(alphabets())
    tok = st.sampled_from(al.tokens)
    cell = st.tuples(OFFSETS, OFFSETS)
    constraints = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(("hpair", "vpair")), tok, tok),
        st.tuples(st.just("pattern"), st.dictionaries(cell, tok, min_size=1, max_size=4)),
    ), min_size=1, max_size=8))
    constraints += draw(st.lists(st.sampled_from(constraints), max_size=3))
    constraints = draw(st.permutations(constraints))
    mode = draw(st.sampled_from(("allowed", "forbidden")))
    lines, maps = [f"alphabet {' '.join(al.tokens)}", f"mode {mode}"], []
    for head, *args in constraints:
        if head == "pattern":
            lines += ["pattern", *(f"cell {x} {y} {t}" for (x, y), t in args[0].items()), "end"]
            maps.append({c: al.index[t] for c, t in args[0].items()})
        else:
            a, b = args
            lines.append(f"{head} {a} {b}")
            # hpair is (left, right), vpair (top, bottom)
            cells = ((0, 0), (1, 0)) if head == "hpair" else ((0, 1), (0, 0))
            maps.append(dict(zip(cells, (al.index[a], al.index[b]))))
    return al, mode, maps, "\n".join(lines) + "\n"


def checked_tileset(al, maps) -> TileSet:
    """The referee: the cell maps grouped as TileSet.from_allowed grouped them
    before tile sets were built from key tables.  Each map becomes a checked
    Pattern moved to the origin, the patterns are grouped by shape, the shapes
    sorted by size and then by sorted cells, and the public constructor checks
    the result."""
    by_shape = {}
    for cells in maps:
        x0, y0 = Pattern(al, cells).min_corner()
        p = Pattern(al, {Vec2(x - x0, y - y0): s for (x, y), s in cells.items()})
        by_shape.setdefault(frozenset(p.cells), set()).add(p)
    shapes = sorted(by_shape, key=lambda shape: (len(shape), sorted(shape)))
    return TileSet(al, tuple(shapes), tuple(frozenset(by_shape[shape]) for shape in shapes))


@common
@given(case=tileset_files())
def test_parsed_tileset_is_the_checked_library_one(scratch, case):
    al, mode, maps, text = case
    expected = checked_tileset(al, maps)
    if mode == "forbidden":
        forbidden = to_forbidden(expected)
        expected = TileSet(al, expected.shapes, tuple(forbidden[s] for s in expected.shapes))
    f = scratch / "diff.tiles"
    f.write_text(text)
    ts = parse_tileset(f)
    # an allowed-mode set is built from its tables; only the forbidden complement is given its patterns
    assert ("allowed" in vars(ts)) == (mode == "forbidden")
    assert ts == expected and hash(ts) == hash(expected)
    assert ts.shapes == expected.shapes
    assert ts.shape_cells == expected.shape_cells
    assert ts.allowed_keys == expected.allowed_keys
    assert (ts.hextent, ts.vextent) == (expected.hextent, expected.vextent)
    assert ts.allowed == expected.allowed
    assert TileSet.from_allowed(al, [Pattern(al, cells) for cells in maps]) == checked_tileset(al, maps)


@st.composite
def presentation_files(draw):
    """A presentation file as emit_presentation writes it: 0-2 cuts per
    axis and region blocks up to 4 x 4, with its alphabet and, per region,
    the rows of tokens it was written from (top row first)."""
    al = draw(alphabets())
    cuts = st.lists(st.integers(-6, 6), max_size=2, unique=True).map(sorted)
    xcuts, ycuts = draw(cuts), draw(cuts)
    lines = ["presentation"]
    lines += [f"xcuts {' '.join(map(str, xcuts))}"] if xcuts else []
    lines += [f"ycuts {' '.join(map(str, ycuts))}"] if ycuts else []
    written = {}
    for ix in range(len(xcuts) + 1):
        for iy in range(len(ycuts) + 1):
            u, v = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            rows = [draw(st.lists(st.sampled_from(al.tokens), min_size=u, max_size=u)) for _ in range(v)]
            lines += [f"region {ix} {iy} {u} {v}", *(" ".join(r) for r in rows)]
            written[(ix, iy)] = rows
    return al, written, "\n".join(lines) + "\n"


@common
@given(case=presentation_files())
def test_parsed_blocks_read_rows_bottom_up(scratch, case):
    al, written, text = case
    f = scratch / "diff.pres"
    f.write_text(text)
    g = parse_presentation(f, al)
    for (ix, iy), rows in written.items():
        b, v = g.regions[ix][iy], len(rows)
        assert (b.u, b.v) == (len(rows[0]), v)
        assert all(b.data[x][y] == al.index[rows[v - 1 - y][x]] for x in range(b.u) for y in range(v))
    assert emit_presentation(g) == text
    assert parse_presentation(f, al) == g
