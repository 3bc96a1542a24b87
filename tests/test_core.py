import copy
import pickle
import random
from itertools import product

import pytest

from conftest import CORPUS
from tilelab.cli import parse_tileset
from tilelab.core import (
    _PAIR_CELLS,
    Alphabet,
    Pattern,
    TileSet,
    TorusTiling,
    Vec2,
    _complement,
    appears_in,
    check_torus,
    to_forbidden,
)
from tilelab.solver import enumerate_torus


def test_vec2_arithmetic():
    a, b = Vec2(2, -1), Vec2(1, 4)
    assert a + b == Vec2(3, 3)
    assert a - b == Vec2(1, -5)
    assert -a == Vec2(-2, 1)
    assert (1, 1) + a == Vec2(3, 0)


def test_alphabet_validation():
    al = Alphabet(("R", "G"))
    assert len(al) == 2
    assert al.index == {"R": 0, "G": 1}
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "b c"))
    with pytest.raises(ValueError):
        Alphabet(("a", "#"))
    with pytest.raises(ValueError):
        Alphabet(("a", "."))


@pytest.fixture
def rg():
    return Alphabet(("R", "G"))


def test_pattern_basics(rg):
    p = Pattern(rg, {Vec2(2, 3): 0, Vec2(3, 3): 1})
    assert p.min_corner() == Vec2(2, 3)
    assert p.extents() == (2, 1)
    q = p.normalize()
    assert q.min_corner() == Vec2(0, 0)
    assert q.cells == {Vec2(0, 0): 0, Vec2(1, 0): 1}
    assert p.translate((-2, -3)) == q
    assert q.key() == (0, 1)
    assert q.is_rectangular()


def test_pattern_domain_is_its_cells_as_placed(rg):
    p = Pattern(rg, {(2, 3): 0, Vec2(3, 5): 1})
    assert p.domain() == frozenset({Vec2(2, 3), Vec2(3, 5)}) == p.cells.keys()
    assert all(type(c) is Vec2 for c in p.domain())
    assert p.normalize().domain() == frozenset({Vec2(0, 0), Vec2(1, 2)})
    assert p.translate((1, -1)).domain() == {c + (1, -1) for c in p.domain()}


def test_normalize_returns_a_placed_pattern_itself_and_moves_any_other(rg):
    at_origin = Pattern(rg, {Vec2(0, 0): 1, Vec2(1, 0): 0, Vec2(0, 1): 1})
    assert at_origin.normalize() is at_origin
    for v in ((3, 0), (0, -2), (-1, 4)):
        moved = at_origin.translate(v)
        q = moved.normalize()
        assert q == moved.translate(-moved.min_corner()) == at_origin
        assert hash(q) == hash(at_origin)
    # the least corner need not be a cell of the pattern
    diagonal = Pattern(rg, {Vec2(1, 0): 0, Vec2(0, 1): 1})
    assert diagonal.normalize() is diagonal
    assert Pattern(rg, {Vec2(2, -1): 0, Vec2(1, 0): 1}).normalize() == diagonal


def test_tileset_checks_each_pattern_against_its_shape_and_alphabet(rg):
    h = frozenset({Vec2(0, 0), Vec2(1, 0)})
    with pytest.raises(ValueError, match="^pattern domain differs from its shape$"):
        TileSet(rg, (h,), (frozenset({Pattern(rg, {Vec2(0, 0): 0, Vec2(0, 1): 0})}),))
    other = Pattern(Alphabet(("x", "y")), {Vec2(0, 0): 0, Vec2(1, 0): 1})
    with pytest.raises(ValueError, match="^pattern alphabet mismatch$"):
        TileSet(rg, (h,), (frozenset({other}),))
    with pytest.raises(ValueError, match="^pattern alphabet mismatch$"):
        TileSet.from_allowed(rg, [Pattern(rg, {Vec2(0, 0): 0, Vec2(1, 0): 0}), other])


def test_pattern_immutable_and_hashable(rg):
    p = Pattern(rg, {Vec2(0, 0): 0})
    with pytest.raises(AttributeError):
        p.cells = {}
    assert len({p, Pattern(rg, {Vec2(0, 0): 0})}) == 1


def test_pattern_constructor_validates(rg):
    with pytest.raises(ValueError):
        Pattern(rg, {})
    for bad in (2, -1):
        with pytest.raises(ValueError):
            Pattern(rg, {Vec2(0, 0): 0, Vec2(1, 0): bad})


@pytest.mark.parametrize("copier", [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pattern_and_tileset_copy_round_trip(rg, copier):
    p = Pattern(rg, {(0, 0): 1, (1, 0): 0})
    ts = parse_tileset(CORPUS / "stripes.tiles")
    for x in (p, p.translate((2, 5)), ts, ts.transpose()):
        y = copier(x)
        assert y == x and hash(y) == hash(x)
    # the hash is computed lazily and never pickled with the pattern
    fresh = Pattern(rg, {(0, 0): 1})
    before = pickle.dumps(fresh)
    hash(fresh)
    assert pickle.dumps(fresh) == before
    with pytest.raises(AttributeError):
        copier(p).cells = {}


def test_pattern_rows_round_trip(rg):
    p = Pattern.from_rows(rg, ["R G", "G G"])
    # top row first: (0,1)=R (1,1)=G / (0,0)=G (1,0)=G
    assert p.cells[Vec2(0, 1)] == 0
    assert p.cells[Vec2(0, 0)] == 1
    assert p.rows() == ["R G", "G G"]
    with pytest.raises(ValueError):
        Pattern.from_rows(rg, ["R", "R G"])
    hole = Pattern(rg, {Vec2(0, 0): 0, Vec2(1, 1): 1})
    assert not hole.is_rectangular()
    with pytest.raises(ValueError):
        hole.rows()


def test_pattern_key_follows_sorted_cells(rg):
    p = Pattern(rg, {Vec2(1, 0): 1, Vec2(0, 1): 0, Vec2(0, 0): 1})
    assert p.sorted_cells() == [Vec2(0, 0), Vec2(0, 1), Vec2(1, 0)]
    assert p.key() == (1, 0, 1)


def test_appears_in(rg):
    hay = Pattern.from_rows(rg, ["R G R", "G R G"])
    assert appears_in(Pattern.from_rows(rg, ["G"]), hay)
    assert appears_in(Pattern.from_rows(rg, ["R G"]), hay)
    assert appears_in(hay, hay)
    assert not appears_in(Pattern.from_rows(rg, ["R R"]), hay)
    with pytest.raises(ValueError):
        appears_in(Pattern(Alphabet(("x",)), {Vec2(0, 0): 0}), hay)


def test_tileset_from_allowed_groups_by_shape(rg):
    pats = [
        Pattern(rg, {Vec2(5, 5): 0, Vec2(6, 5): 1}),  # offset placement, same shape
        Pattern(rg, {Vec2(0, 0): 1, Vec2(1, 0): 0}),
        Pattern(rg, {Vec2(0, 0): 0, Vec2(0, 1): 0}),
    ]
    ts = TileSet.from_allowed(rg, pats)
    assert len(ts.shapes) == 2
    assert [len(a) for a in ts.allowed] == [1, 2]  # vertical shape sorts first
    assert ts.hextent == 2 and ts.vextent == 2


def test_tileset_needs_a_shape(rg):
    with pytest.raises(ValueError):
        TileSet(rg, (), ())


def test_dominoes_and_transpose(rg):
    ts = TileSet.dominoes(rg, [("R", "G")], [("R", "R"), ("G", "G")])
    assert ts.hextent == 2 and ts.vextent == 2
    flipped = ts.transpose()
    # transposing swaps the roles: one vertical pair, two horizontal ones
    assert [len(a) for a in flipped.allowed] == [1, 2]
    assert flipped.transpose() == ts


def test_every_builder_refuses_no_shape_and_a_foreign_pattern(rg):
    for build in (lambda: TileSet(rg, (), ()), lambda: TileSet.from_allowed(rg, []),
                  lambda: TileSet.dominoes(rg, [], []), lambda: TileSet._tables(rg, {})):
        with pytest.raises(ValueError, match="^tile set needs at least one shape$"):
            build()
    ours = Pattern(rg, {Vec2(0, 0): 0, Vec2(1, 0): 1})
    theirs = Pattern(Alphabet(("x", "y")), {Vec2(0, 0): 0, Vec2(0, 1): 1})
    for pats in ([theirs], [ours, theirs], [theirs, ours]):
        with pytest.raises(ValueError, match="^pattern alphabet mismatch$"):
            TileSet.from_allowed(rg, pats)
    # an equal alphabet that is another object is the same alphabet
    assert TileSet.from_allowed(rg, [Pattern(Alphabet(("R", "G")), ours.cells)]) == TileSet.from_allowed(rg, [ours])
    with pytest.raises(KeyError):
        TileSet.dominoes(rg, [("R", "B")], [])
    for pair in (("R",), ("R", "G", "R")):
        with pytest.raises(ValueError):
            TileSet.dominoes(rg, [], [pair])


def _pattern_transpose(ts: TileSet) -> TileSet:
    """The referee: transpose() as it was before tile sets were built from key
    tables.  Each shape and each pattern is flipped, the patterns through the
    checked constructor, and the shapes are sorted by size and then by sorted
    cells."""
    flip = {frozenset(Vec2(c.y, c.x) for c in shape):
            frozenset(Pattern(ts.alphabet, {Vec2(c.y, c.x): s for c, s in p.cells.items()}) for p in pats)
            for shape, pats in zip(ts.shapes, ts.allowed)}
    shapes = sorted(flip, key=lambda shape: (len(shape), sorted(shape)))
    return TileSet(ts.alphabet, tuple(shapes), tuple(flip[shape] for shape in shapes))


def _seeded_tileset(rng: random.Random, shapes) -> TileSet:
    """Each state tuple of each shape allowed with probability 0.5, over 2 or 3 states."""
    al = Alphabet(("a", "b", "c")[:rng.choice((2, 3))])
    allowed = [frozenset(Pattern(al, dict(zip(sorted(shape), key)))
                         for key in product(range(len(al)), repeat=len(shape)) if rng.random() < 0.5)
               for shape in shapes]
    return TileSet(al, tuple(shapes), tuple(allowed))


def _transpose_cases():
    square = frozenset(Vec2(x, y) for x in range(2) for y in range(2))
    row3 = frozenset(Vec2(x, 0) for x in range(3))
    h, v = frozenset((Vec2(0, 0), Vec2(1, 0))), frozenset((Vec2(0, 0), Vec2(0, 1)))
    rng = random.Random("transpose")
    box = [Vec2(x, y) for x in range(3) for y in range(3)]
    for _ in range(40):  # shapes of 1-4 cells in a 3 x 3 box, moved to the origin
        shapes = set()
        for _ in range(rng.randint(1, 3)):
            cells = rng.sample(box, rng.randint(1, 4))
            x0, y0 = min(c.x for c in cells), min(c.y for c in cells)
            shapes.add(frozenset(Vec2(c.x - x0, c.y - y0) for c in cells))
        yield _seeded_tileset(rng, sorted(shapes, key=sorted))
    for shapes in ([square], [row3], [row3, v], [h, v, square], [v, h]):
        yield _seeded_tileset(rng, shapes)
    al = Alphabet(("a", "b"))
    yield TileSet(al, (row3, h), (frozenset(), frozenset({Pattern(al, {Vec2(0, 0): 0, Vec2(1, 0): 1})})))
    yield from (parse_tileset(f) for f in sorted(CORPUS.rglob("*.tiles")) if f.name != "bad_token.tiles")


def test_transpose_permutes_keys_as_flipping_patterns_did():
    cases = list(_transpose_cases())
    assert any(not keys for ts in cases for keys in ts.allowed_keys)  # a shape that allows nothing
    assert any(list(ts.shapes) != sorted(ts.shapes, key=lambda s: (len(s), sorted(s))) for ts in cases)
    for ts in cases:
        got, want = ts.transpose(), _pattern_transpose(ts)
        assert "allowed" not in vars(got)
        assert got == want and hash(got) == hash(want)
        assert got.shapes == want.shapes
        assert got.shape_cells == want.shape_cells
        assert got.allowed_keys == want.allowed_keys
        assert (got.hextent, got.vextent) == (want.hextent, want.vextent) == (ts.vextent, ts.hextent)
        assert got.allowed == want.allowed
        assert got.transpose() == _pattern_transpose(want)


@pytest.mark.parametrize("copier", [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_tileset_copies_and_hashes_alike_before_and_after_allowed_is_read(tmp_path, copier):
    block = tmp_path / "row.tiles"
    block.write_text("alphabet a b\nvpair a b\npattern\ncell 3 1 a\ncell 4 1 b\ncell 5 1 a\nend\n")
    for path in (CORPUS / "stripes.tiles", block):
        ts = parse_tileset(path)
        h = hash(ts)
        early = copier(ts)
        assert "allowed" not in vars(ts) and "allowed" not in vars(early)
        assert early == ts and hash(early) == h
        assert "Pattern(" in repr(ts)  # repr reads the patterns, made on first read
        assert "allowed" in vars(ts) and hash(ts) == h
        late = copier(ts)
        assert late == ts and hash(late) == h
        assert early.allowed == late.allowed == ts.allowed
        for x in (early, late):
            assert (x.shapes, x.shape_cells, x.allowed_keys) == (ts.shapes, ts.shape_cells, ts.allowed_keys)
        checked = TileSet(ts.alphabet, ts.shapes, ts.allowed)
        assert checked == ts and hash(checked) == h and checked.allowed is ts.allowed
        with pytest.raises(AttributeError):
            late.shapes = ()


def test_to_forbidden_complements(rg):
    ts = TileSet.dominoes(rg, [("R", "R")], [("R", "R"), ("G", "G"), ("R", "G")])
    forb = to_forbidden(ts)
    # 4 pair assignments per shape; 3 forbidden horizontally, 1 vertically
    assert sorted(len(pats) for pats in forb.values()) == [1, 3]
    hshape = frozenset({Vec2(0, 0), Vec2(1, 0)})
    assert len(forb[hshape]) == 3
    # 17 cells over 2 states: 2^17 fillings, refused before any is enumerated
    big = TileSet.from_allowed(rg, [Pattern(rg, {Vec2(x, 0): 0 for x in range(17)})])
    with pytest.raises(ValueError):
        to_forbidden(big)


def test_to_forbidden_is_the_pattern_view_of_the_complement(rg):
    """to_forbidden keys its patterns in ts.shapes order, even when the public
    constructor was given the shapes out of sorted order; _complement builds
    the same sets as a tile set, a shape that allowed everything left empty."""
    h, v = frozenset(_PAIR_CELLS["hpair"]), frozenset(_PAIR_CELLS["vpair"])
    every = {cells: {Pattern(rg, dict(zip(cells, key))) for key in product(range(2), repeat=2)} for cells in (h, v)}
    allowed = (frozenset({Pattern(rg, {Vec2(0, 0): 0, Vec2(1, 0): 1})}), frozenset(every[v]))
    ts = TileSet(rg, (h, v), allowed)  # sorted, the vertical domino comes first
    forb = to_forbidden(ts)
    assert list(forb) == [h, v]
    assert forb == {h: frozenset(every[h] - allowed[0]), v: frozenset()}
    c = _complement(ts)
    assert "allowed" not in vars(c)  # built from its key tables
    assert c.shapes == (v, h) and dict(zip(c.shapes, c.allowed)) == forb
    assert _complement(c) == TileSet.from_allowed(rg, [p for ps in allowed for p in ps])


def test_torus_tiling_keys_and_periods():
    t = TorusTiling(2, 2, ((0, 1), (1, 0)))
    assert t.state_at(0, 0) == 0
    assert t.state_at(3, 5) == 0
    assert t.state_at(1, 0) == 1
    assert t.canonical_key() == min(t.translate_key(dx, dy) for dx in range(2) for dy in range(2))
    assert t.h_period() == 2 and t.v_period() == 2
    flat = TorusTiling(2, 1, ((0,), (0,)))
    assert flat.h_period() == 1 and flat.v_period() == 1
    # p = q = 4 with least periods 2 and 4: a proper divisor is found, else the side itself
    t4 = TorusTiling(4, 4, ((0, 0, 1, 1), (1, 0, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1)))
    assert t4.h_period() == 2 and t4.v_period() == 4
    assert TorusTiling(1, 4, ((0, 1, 0, 1),)).v_period() == 2
    with pytest.raises(ValueError):
        TorusTiling(2, 2, ((0, 1), (1,)))


def test_trusted_torus_tiling_is_the_checked_one(stripes):
    """solver builds its tori unchecked; they must be indistinguishable
    from checked ones, and every one of them must pass the check."""
    for p, q, block in ((2, 2, ((0, 1), (1, 0))), (3, 1, ((0,), (1,), (2,))), (1, 2, ((0, 1),))):
        t, u = TorusTiling(p, q, block), TorusTiling._trusted(p, q, block)
        assert u == t and hash(u) == hash(t) and repr(u) == repr(t)
        assert {t: p}[u] == p
        assert (u.canonical_key(), u.h_period(), u.v_period()) == (t.canonical_key(), t.h_period(), t.v_period())
        assert pickle.loads(pickle.dumps(u)) == t and copy.copy(u) == t
        with pytest.raises(AttributeError):
            u.p = 5
    for t in enumerate_torus(stripes, 3, 3):
        assert TorusTiling(t.p, t.q, t.block) == t


def test_check_torus(checkerboard):
    assert check_torus(checkerboard, TorusTiling(2, 2, ((0, 1), (1, 0))))
    assert not check_torus(checkerboard, TorusTiling(1, 1, ((0,),)))
    assert not check_torus(checkerboard, TorusTiling(3, 2, ((0, 1), (1, 0), (0, 1))))


def test_check_torus_refuses_a_state_that_is_not_an_int(checkerboard):
    """0.5 lies between two states but names none: it is refused as an
    out-of-range state is, not read as a window no rule allows."""
    for s in (0.5, 1.0, 2, -1):
        with pytest.raises(ValueError, match="^state out of range for alphabet$"):
            check_torus(checkerboard, TorusTiling(2, 2, ((0, 1), (1, s))))


def test_torus_tiling_refuses_a_state_that_is_not_a_non_negative_int():
    """No alphabet has a state 0.5 or -1, and -1 would print as the last
    token; a state past the end is left to check_torus, which knows the
    alphabet.  The unchecked constructor checks nothing."""
    for s in (0.5, 1.0, -1, None, "0"):
        with pytest.raises(ValueError, match="^state out of range for alphabet$"):
            TorusTiling(2, 1, ((0,), (s,)))
    assert TorusTiling(1, 1, ((7,),)).block == ((7,),)
    assert TorusTiling._trusted(1, 1, ((-1,),)).block == ((-1,),)


def test_pattern_refuses_a_state_that_is_not_an_int(checkerboard):
    """A pattern holding 0.5 would occur nowhere and could not print its rows."""
    for s in (0.5, 1.0, 2, -1):
        with pytest.raises(ValueError, match=f"^state {s} out of range$"):
            Pattern(checkerboard.alphabet, {(0, 0): 0, (1, 0): s})
