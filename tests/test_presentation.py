import copy
import gc
import math
import pickle
import random
from dataclasses import replace
from itertools import chain

import pytest

from oracle import brute
from conftest import CORPUS, corpus_planes, live_indexes, make_a, make_b, raw_lcms
from tilelab import presentation
from tilelab.cli import parse_presentation
from tilelab.core import Alphabet, Pattern, TileSet, Vec2
from tilelab.order import preceq
from tilelab.presentation import (
    Block,
    Finite,
    GridPresentation,
    Infinite,
    PeriodLattice,
    TypeA,
    TypeB,
    Zero,
    _Analysis,
    _corners,
    _decode,
    _dims_ascending,
    block_lcms,
    cell_at,
    equal,
    is_valid,
    occurrences,
    pattern_set,
    period_lattice,
    rect_window_keys,
    shift,
    transpose,
    type_of,
    uniform,
    window_at,
)

PLANES = corpus_planes()


def plane_fn(name):
    return PLANES[name][0]


def test_block_and_presentation_validation(stripes):
    al = stripes.alphabet
    with pytest.raises(ValueError):
        Block(2, 1, ((0,),))
    with pytest.raises(ValueError):
        GridPresentation(al, (), (), ((Block(1, 1, ((9,),)),),))  # state out of range
    g = uniform(al, 0)
    assert cell_at(g, (5, -7)) == 0
    with pytest.raises(ValueError):
        GridPresentation(al, (3, 1), (), g.regions)
    with pytest.raises(ValueError):
        GridPresentation(al, (0,), (), g.regions)  # one column of regions, two bands


def test_presentation_refuses_a_block_state_that_is_not_an_int(stripes):
    """A block holding 0.5 would give a plane of recurrence type A whatever it held."""
    for s in (0.5, 1.0, 4, -1):
        with pytest.raises(ValueError, match="^block state out of alphabet range$"):
            GridPresentation(stripes.alphabet, (0,), (), ((Block.filled(1, 1, 0),), (Block(1, 2, ((0, s),)),)))


def test_cell_at_reads_bands(members):
    a2 = members["a2"]
    assert cell_at(a2, (-1, 5)) == 0  # red west of the cut
    fn = plane_fn("a2")
    for x in range(-4, 5):
        for y in range(-4, 8):
            assert cell_at(a2, (x, y)) == fn(x, y)


def test_cell_at_respects_block_periods(stripes):
    al = stripes.alphabet
    # 2 x 3 block in a single unbounded region
    b = Block(2, 3, ((0, 1, 2), (3, 0, 1)))
    g = GridPresentation(al, (), (), ((b,),))
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert cell_at(g, (x, y)) == b.data[x % 2][y % 3]
    assert block_lcms(g) == Vec2(2, 3)
    assert [ax.span for ax in g._index.axes] == [0, 0]


def test_window_at(members):
    p = window_at(members["a2"], (-1, -1), 2)
    assert p.rows() == ["R W", "R B"]
    with pytest.raises(ValueError):
        window_at(members["a2"], (0, 0), 0)


def test_pattern_set_counts(members):
    assert len(pattern_set(members["a2"], 1)) == 4
    assert len(pattern_set(members["a2"], 2)) == 11
    assert {p.key() for p in pattern_set(members["mono_red"], 3)} == {(0,) * 9}
    for p in pattern_set(members["b3"], 3):  # built unchecked from window codes
        checked = Pattern(p.alphabet, dict(p.cells))
        assert p == checked and hash(p) == hash(checked)


@pytest.mark.parametrize("name", ["a1", "a3", "b2", "red_green", "white_over_black",
                                  "red_white_over_black", "mono_green"])
@pytest.mark.parametrize("size", [(1, 1), (2, 2), (3, 2), (1, 4), (4, 4)])
def test_window_keys_match_oracle(members, name, size):
    w, h = size
    grid = brute.box_grid(plane_fn(name), 12)
    assert rect_window_keys(members[name], w, h) == brute.window_keys(grid, w, h)


def test_occurrences_classification(members):
    a2 = members["a2"]
    al = a2.alphabet
    corner = Pattern.from_rows(al, ["R G", "R W"])
    assert occurrences(a2, corner) == Finite(1)
    assert occurrences(a2, Pattern.from_rows(al, ["W"])) == Infinite()
    assert occurrences(a2, Pattern.from_rows(al, ["G", "B"])) == Zero()
    band = Pattern.from_rows(al, ["G", "W", "W", "B"])  # full column profile
    assert occurrences(a2, band) == Infinite()
    seam = Pattern.from_rows(al, ["R G"])
    assert occurrences(a2, seam) == Infinite()
    only_seam_row = Pattern.from_rows(al, ["R W", "R B"])
    assert occurrences(a2, only_seam_row) == Finite(1)


def test_occurrences_with_holes(members):
    al = members["a2"].alphabet
    hole = Pattern(al, {Vec2(0, 0): al.index["B"], Vec2(1, 1): al.index["W"]})
    got = occurrences(members["a2"], hole)
    fn = plane_fn("a2")
    near = brute.occurrence_corners(fn, {(0, 0): 3, (1, 1): 2}, 10)
    far = brute.occurrence_corners(fn, {(0, 0): 3, (1, 1): 2}, 14)
    assert isinstance(got, Infinite) == (len(far) > len(near))
    if isinstance(got, Finite):
        assert got.count == len(far)


@pytest.mark.parametrize("name", ["a2", "b3", "red_white", "green_over_white", "mono_black"])
def test_occurrence_counts_match_oracle(members, name):
    g = members[name]
    fn = plane_fn(name)
    for key in sorted(rect_window_keys(g, 2, 2)):
        cells = {Vec2(dx, dy): key[dx * 2 + dy] for dx in range(2) for dy in range(2)}
        got = occurrences(g, Pattern(g.alphabet, cells))
        raw = {(dx, dy): s for (dx, dy), s in cells.items()}
        near = brute.occurrence_corners(fn, raw, 10)
        far = brute.occurrence_corners(fn, raw, 14)
        if len(far) > len(near):
            assert got == Infinite()
        else:
            assert got == Finite(len(far))


def test_is_valid(stripes, members):
    for name, g in members.items():
        assert is_valid(g, stripes), name
    bad = parse_presentation(CORPUS / "invalid" / "white_over_green.pres", stripes.alphabet)
    assert not is_valid(bad, stripes)


def test_shift_moves_content(members):
    a2 = members["a2"]
    g = shift(a2, (3, -2))
    for x in range(-3, 4):
        for y in range(-3, 7):
            assert cell_at(g, (x + 3, y - 2)) == cell_at(a2, (x, y))
    assert pattern_set(g, 3) == pattern_set(a2, 3)
    assert not equal(g, a2)
    assert equal(shift(g, (-3, 2)), a2)


def test_shift_by_period_is_equal(members):
    for name in ("b2", "red_green", "mono_white"):
        g = members[name]
        lat = period_lattice(g)
        for v in [(1, 0), (0, 1), (2, 3), (-1, 0), (0, -2)]:
            assert equal(shift(g, v), g) == lat.contains(v), (name, v)


def test_transpose(stripes, members):
    a2 = members["a2"]
    t = transpose(a2)
    for x in range(-4, 6):
        for y in range(-4, 6):
            assert cell_at(t, (x, y)) == cell_at(a2, (y, x))
    assert equal(transpose(t), a2)
    assert is_valid(t, stripes.transpose())


def test_equal_across_presentations(stripes):
    al = stripes.alphabet
    plain = uniform(al, 2)
    redundant = GridPresentation(
        al, (0,), (5,),
        ((Block.filled(2, 3, 2), Block.filled(1, 1, 2)),
         (Block.filled(1, 1, 2), Block.filled(3, 2, 2))),
    )
    assert equal(plain, redundant)
    assert not equal(plain, uniform(al, 1))


EXPECTED_LATTICE = {
    "mono_red": 2, "mono_green": 2, "mono_white": 2, "mono_black": 2,
    "red_green": 1, "red_white": 1, "red_black": 1,
    "green_over_white": 1, "white_over_black": 1,
    "red_green_over_white": 0, "red_white_over_black": 0,
    "a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 0, "a6": 0,
    "b1": 1, "b2": 1, "b3": 1, "b4": 1, "b5": 1, "b6": 1,
}


def test_period_lattice_ranks(members):
    for name, want in EXPECTED_LATTICE.items():
        lat = period_lattice(members[name])
        assert lat.rank == want, name
        assert lat.rank == brute.lattice_rank(plane_fn(name), 16, 4), name


def test_period_lattice_generators(members):
    assert period_lattice(members["b3"]).generators == ((1, 0),)
    assert period_lattice(members["red_green"]).generators == ((0, 1),)
    assert set(period_lattice(members["mono_red"]).generators) == {(1, 0), (0, 1)}
    fn = plane_fn("b3")
    for gen in period_lattice(members["b3"]).generators:
        assert brute.is_period(fn, tuple(gen), 16)


def test_period_lattice_contains_matches_oracle(members):
    for name in ("a2", "b2", "red_white", "mono_green"):
        lat = period_lattice(members[name])
        fn = plane_fn(name)
        for vx in range(-3, 4):
            for vy in range(-3, 4):
                if (vx, vy) == (0, 0):
                    continue
                assert lat.contains((vx, vy)) == brute.is_period(fn, (vx, vy), 16), (name, vx, vy)


def test_type_of(members):
    t = type_of(members["a2"])
    assert isinstance(t, TypeB)
    assert t.witness.rows() == ["R G", "R W"]
    assert occurrences(members["a2"], t.witness) == Finite(1)
    # the white band of a1 is one row tall, so a smaller witness exists
    t1 = type_of(members["a1"])
    assert t1.witness.rows() == ["R W"]
    t2 = type_of(members["red_white_over_black"])
    assert t2.witness.rows() == ["R W", "R B"]
    for name in ("b1", "red_green", "green_over_white", "mono_red"):
        assert isinstance(type_of(members[name]), TypeA), name


def test_type_b_witness_minimality(members):
    # every member with a 2-cell witness has no isolating single cell
    for name in ("a2", "red_green_over_white"):
        g = members[name]
        wit = type_of(g).witness
        assert len(wit.cells) > 1
        for key in rect_window_keys(g, 1, 1):
            cell = Pattern(g.alphabet, {Vec2(0, 0): key[0]})
            assert occurrences(g, cell) != Finite(1)


def test_dims_ascending_is_the_sorted_product():
    for wmax in range(1, 8):
        for hmax in range(1, 8):
            want = sorted(((w, h) for w in range(1, wmax + 1) for h in range(1, hmax + 1)),
                          key=lambda d: (d[0] * d[1], max(d), d[0]))
            assert list(_dims_ascending(wmax, hmax)) == want


# ------------------------------------------- engine against the oracle

def random_plane(rng):
    """(presentation, plane fn): 1-4 states, cuts in [-3, 3] on 0, 1 or 2
    axes, blocks up to 3 x 3.  The fn is read off the raw draws, not off
    the presentation."""
    k = rng.randint(1, 4)
    cut_axes = rng.sample("xy", rng.randint(0, 2))
    xcuts = sorted(rng.sample(range(-3, 4), rng.randint(1, 2))) if "x" in cut_axes else []
    ycuts = sorted(rng.sample(range(-3, 4), rng.randint(1, 2))) if "y" in cut_axes else []
    raw = []
    for _ in range(len(xcuts) + 1):
        col = []
        for _ in range(len(ycuts) + 1):
            u, v = rng.randint(1, 3), rng.randint(1, 3)
            col.append(tuple(tuple(rng.randrange(k) for _ in range(v)) for _ in range(u)))
        raw.append(col)

    def fn(x, y):
        data = raw[sum(c <= x for c in xcuts)][sum(c <= y for c in ycuts)]
        return data[x % len(data)][y % len(data[0])]

    regions = tuple(tuple(Block(len(d), len(d[0]), d) for d in col) for col in raw)
    al = Alphabet(tuple(f"s{i}" for i in range(k)))
    return GridPresentation(al, tuple(xcuts), tuple(ycuts), regions), fn


# Every window content of these planes has a copy with its corner within
# [-14, 13]; finite occurrences of patterns up to 3 x 3 have corners in
# [-5, 2], and reach 22 exceeds reach 14 by more than any lcm (at most 6).
REACH, NEAR, FAR = 16, 14, 22
PLANE_SEEDS = range(24)


def oracle_occurrences(fn, cells, near=NEAR, far=FAR):
    near = brute.occurrence_corners(fn, cells, near)
    far = brute.occurrence_corners(fn, cells, far)
    if len(far) > len(near):
        return Infinite()
    return Finite(len(far)) if far else Zero()


@pytest.mark.parametrize("seed", PLANE_SEEDS)
def test_engine_window_keys_match_oracle(seed):
    g, fn = random_plane(random.Random(seed))
    grid = brute.box_grid(fn, REACH)
    for w in range(1, 6):
        for h in range(1, 6):
            assert rect_window_keys(g, w, h) == brute.window_keys(grid, w, h), (w, h)


SPARSE_SHAPES = (
    ((0, 0), (1, 1)),
    ((0, 1), (1, 0)),
    ((0, 0), (2, 1)),
    ((0, 0), (0, 2), (1, 1)),
)


@pytest.mark.parametrize("seed", PLANE_SEEDS)
def test_engine_is_valid_sparse_shapes_match_oracle(seed):
    rng = random.Random(seed)
    g, fn = random_plane(rng)
    grid = brute.box_grid(fn, REACH)
    constraints, patterns = [], []
    for n, offsets in enumerate(rng.sample(SPARSE_SHAPES, 2)):
        seen = {tuple(grid[x + dx][y + dy] for dx, dy in offsets)
                for x in range(len(grid) - 2) for y in range(len(grid) - 2)}
        allowed = sorted(seen)
        if n == 0 and len(allowed) > 1 and rng.random() < 0.5:
            allowed.remove(rng.choice(allowed))
        constraints.append((offsets, frozenset(allowed)))
        patterns += [Pattern(g.alphabet, dict(zip(offsets, combo))) for combo in allowed]
    ts = TileSet.from_allowed(g.alphabet, patterns)
    assert is_valid(g, ts) == brute.grid_ok(constraints, grid)


def test_engine_occurrences_match_oracle():
    kinds = set()
    for seed in PLANE_SEEDS:
        rng = random.Random(seed)
        g, fn = random_plane(rng)
        k = len(g.alphabet)
        for _ in range(12):
            w, h = rng.randint(1, 3), rng.randint(1, 3)
            cx, cy = rng.randint(-6, 4), rng.randint(-6, 4)
            if rng.random() < 0.25:
                cells = {(dx, dy): rng.randrange(k) for dx in range(w) for dy in range(h)}
            else:
                cells = {(dx, dy): fn(cx + dx, cy + dy) for dx in range(w) for dy in range(h)}
            kept = rng.sample(sorted(cells), rng.randint(1, len(cells)))
            mx, my = min(x for x, _ in kept), min(y for _, y in kept)
            cells = {(x - mx, y - my): cells[x, y] for x, y in kept}
            got = occurrences(g, Pattern(g.alphabet, cells))
            assert got == oracle_occurrences(fn, cells), (seed, cells)
            kinds.add(type(got))
    assert kinds == {Zero, Finite, Infinite}


@pytest.mark.parametrize("seed", PLANE_SEEDS)
def test_engine_type_of_witness_occurs_once(seed):
    g, fn = random_plane(random.Random(seed))
    t = type_of(g)
    assert isinstance(t, TypeB) == (period_lattice(g).rank == 0)
    if isinstance(t, TypeB):
        cells = {(c.x, c.y): s for c, s in t.witness.cells.items()}
        assert oracle_occurrences(fn, cells) == Finite(1)


@pytest.mark.parametrize("seed", PLANE_SEEDS)
def test_engine_preceq_matches_oracle(seed):
    rng = random.Random(seed)
    g1, fn1 = random_plane(rng)
    while True:
        g2, fn2 = random_plane(rng)
        if g2.alphabet == g1.alphabet:
            break
    vx, vy = rng.randint(-3, 3), rng.randint(-3, 3)
    pairs = [(g1, fn1, g2, fn2), (g2, fn2, g1, fn1),
             (g1, fn1, shift(g1, (vx, vy)), lambda x, y: fn1(x - vx, y - vy))]
    for n in range(1, 5):
        for ga, fa, gb, fb in pairs:
            want = (brute.window_keys(brute.box_grid(fa, REACH), n, n)
                    <= brute.window_keys(brute.box_grid(fb, REACH), n, n))
            assert preceq(ga, gb, n) == want, n


def test_engine_preceq_inclusion_at_n_plus_1_implies_n():
    """Growing the window only loses inclusions, which the order command's
    stabilization probe relies on; pairs are drawn over one alphabet."""
    losses = 0
    for seed in PLANE_SEEDS:
        rng = random.Random(f"monotone/{seed}")
        planes = [random_plane(rng)[0]]
        while len(planes) < 4:
            g = random_plane(rng)[0]
            if g.alphabet == planes[0].alphabet:
                planes.append(g)
        for x in planes:
            for y in planes:
                got = [preceq(x, y, n) for n in range(1, 6)]
                for n in range(4):
                    assert got[n] or not got[n + 1], (seed, n + 1)
                    losses += got[n] and not got[n + 1]
    assert losses


@pytest.mark.parametrize("seed", PLANE_SEEDS)
def test_engine_periods_and_equality_match_oracle(seed):
    """Shifts up to the largest block lcm (6): the cut sets of g and its
    shift lie in [-9, 9], so agreement on reach 22 is agreement everywhere."""
    g, fn = random_plane(random.Random(seed))
    grid = brute.box_grid(fn, FAR)

    def cells(x, y):
        return grid[x + FAR][y + FAR]

    lat = period_lattice(g)
    assert lat.rank == brute.lattice_rank(cells, FAR, 6)
    for vx in range(-6, 7):
        for vy in range(-6, 7):
            want = brute.is_period(cells, (vx, vy), FAR)
            assert lat.contains((vx, vy)) == want, (vx, vy)
            assert equal(g, shift(g, (vx, vy))) == want, (vx, vy)


@pytest.mark.parametrize("seed", range(6))
def test_presentation_pickle_and_copy_round_trips(seed):
    g = random_plane(random.Random(seed))[0]
    before = pickle.dumps(g)
    for twin in (pickle.loads(before), copy.copy(g), copy.deepcopy(g)):
        assert twin == g and hash(twin) == hash(g)
    rect_window_keys(g, 2, 3)
    period_lattice(g)
    assert "_index" in vars(g)
    assert pickle.dumps(g) == before
    for twin in (copy.copy(g), copy.deepcopy(g)):
        assert twin == g and "_index" not in vars(twin)


def test_an_index_lives_as_long_as_its_plane(stripes):
    """Scanning many short-lived planes leaves one index per live plane;
    counted against the indexes already alive, such as fixture planes'."""
    gc.collect()  # earlier tests' garbage cycles must not be freed mid-count
    base = live_indexes()
    for _ in range(20):
        for f in sorted((CORPUS / "family").glob("a*.pres")):
            g = parse_presentation(f, stripes.alphabet)
            type_of(g)
    assert live_indexes() == base + 1
    del g
    assert live_indexes() == base


# ------------------------------------- per-band scan steps against the oracle

def banded_plane(rng):
    """(presentation, plane fn): 2-3 states, 0-2 cuts in [-3, 3] per axis,
    block periods 1-4, redrawn until some extreme band's step is smaller
    than the global lcm on its axis, so a box one global lcm deep would be
    larger than the per-band box.  The fn is read off the raw draws."""
    while True:
        k = rng.randint(2, 3)
        xcuts = sorted(rng.sample(range(-3, 4), rng.randint(0, 2)))
        ycuts = sorted(rng.sample(range(-3, 4), rng.randint(0, 2)))
        raw = [[tuple(tuple(rng.randrange(k) for _ in range(v)) for _ in range(u))
                for u, v in ((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(len(ycuts) + 1))]
               for _ in range(len(xcuts) + 1)]
        regions = tuple(tuple(Block(len(d), len(d[0]), d) for d in col) for col in raw)
        al = Alphabet(tuple(f"s{i}" for i in range(k)))
        g = GridPresentation(al, tuple(xcuts), tuple(ycuts), regions)
        if any(min(ax.lo, ax.hi) < ax.lcm for ax in g._index.axes):
            break

    def fn(x, y):
        data = raw[sum(c <= x for c in xcuts)][sum(c <= y for c in ycuts)]
        return data[x % len(data)][y % len(data[0])]

    return g, fn


# Steps are at most 12 and windows at most 4 wide, so every window content
# has a copy with its corner in [-19, 15], within BAND_NEAR; an infinite
# occurrence family has one copy within BAND_NEAR and another within
# BAND_FAR, 13 further out.  Periods are tested for shifts up to 12: the cut
# sets of g and its shift lie in [-15, 15], so agreement on [-28, 27] (the
# overlap of a box of reach 40 with its shift) is agreement everywhere.
BAND_NEAR, BAND_FAR, BAND_PERIOD_REACH = 20, 33, 40
BAND_SEEDS = range(20)


@pytest.mark.parametrize("seed", BAND_SEEDS)
def test_band_steps_window_keys_and_occurrences_match_oracle(seed):
    rng = random.Random(f"band/{seed}")
    g, fn = banded_plane(rng)
    grid = brute.box_grid(fn, BAND_NEAR)
    for w in range(1, 5):
        for h in range(1, 5):
            assert rect_window_keys(g, w, h) == brute.window_keys(grid, w, h), (w, h)
    k = len(g.alphabet)
    for _ in range(4):
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        cx, cy = rng.randint(-7, 4), rng.randint(-7, 4)
        cells = {(dx, dy): fn(cx + dx, cy + dy) for dx in range(w) for dy in range(h)}
        if rng.random() < 0.25:
            cells[rng.choice(sorted(cells))] = rng.randrange(k)
        got = occurrences(g, Pattern(g.alphabet, cells))
        assert got == oracle_occurrences(fn, cells, BAND_NEAR, BAND_FAR), (seed, cells)


def doubled(g):
    """g with its bottom-left block stored at twice its width: the same
    plane, whose left step may differ from g's."""
    b = g.regions[0][0]
    regions = ((Block(2 * b.u, b.v, b.data * 2), *g.regions[0][1:]), *g.regions[1:])
    return GridPresentation(g.alphabet, g.xcuts, g.ycuts, regions)


@pytest.mark.parametrize("seed", BAND_SEEDS)
def test_band_steps_periods_equality_and_type_match_oracle(seed):
    g, fn = banded_plane(random.Random(f"band/{seed}"))
    twin = doubled(g)
    reach = BAND_PERIOD_REACH
    grid = brute.box_grid(fn, reach)

    def cells(x, y):
        return grid[x + reach][y + reach]

    ux, vy = raw_lcms(g)
    lat = period_lattice(g)
    assert lat.rank == brute.lattice_rank(cells, reach, max(ux, vy))
    for dx in range(-ux, ux + 1):
        for dy in range(-vy, vy + 1):
            want = brute.is_period(cells, (dx, dy), reach)
            assert lat.contains((dx, dy)) == want, (dx, dy)
            assert equal(g, shift(g, (dx, dy))) == want, (dx, dy)
            assert equal(g, shift(twin, (dx, dy))) == want, (dx, dy)
    t = type_of(g)
    assert isinstance(t, TypeB) == (lat.rank == 0)
    if isinstance(t, TypeB):
        witness = {(c.x, c.y): s for c, s in t.witness.cells.items()}
        assert oracle_occurrences(cells, witness, BAND_NEAR, BAND_FAR) == Finite(1)


def test_equal_reads_both_planes_left_steps():
    """Left bands of steps 2 (b a b a ...) and 3 (b a b b a b ...) agree on
    the three columns left of the cut and first differ at x = -4, one column
    past a box sized by the smaller step."""
    al = Alphabet(("a", "b", "c"))
    a, b, c = range(3)
    right = Block.filled(1, 1, c)
    g2 = GridPresentation(al, (0,), (), ((Block(2, 1, ((a,), (b,))),), (right,)))
    g3 = GridPresentation(al, (0,), (), ((Block(3, 1, ((b,), (a,), (b,))),), (right,)))
    assert [cell_at(g2, (x, 0)) for x in range(-4, 0)] == [a, b, a, b]
    assert [cell_at(g3, (x, 0)) for x in range(-4, 0)] == [b, b, a, b]
    assert not equal(g2, g3) and not equal(g3, g2)
    assert equal(g2, doubled(g2)) and equal(g3, doubled(g3))


def test_periods_to_eleven_plane_scans_a_per_band_box():
    """Four coprime-period regions: the x-bands' steps are 77 and 45, the
    y-bands' 77 and 72, against global lcms of 3465 and 5544.  The pinned
    answer was computed with a box one global lcm deep on each side."""
    periods = ((7, 11), (11, 9), (9, 7), (5, 8))  # regions (0,0) (0,1) (1,0) (1,1)
    rng = random.Random("periods-to-11")
    al = Alphabet(("a", "b", "c"))
    b00, b01, b10, b11 = (Block(u, v, tuple(tuple(rng.randrange(3) for _ in range(v)) for _ in range(u)))
                          for u, v in periods)
    g = GridPresentation(al, (0,), (0,), ((b00, b01), (b10, b11)))
    assert block_lcms(g) == Vec2(3465, 5544)
    assert [(ax.lo, ax.hi) for ax in g._index.axes] == [(77, 45), (77, 72)]
    for w, h in ((1, 1), (2, 3), (5, 4)):
        (xs,), (ys,) = g._index.corner_box(w, h)  # no middle band: one range per axis
        assert (len(xs), len(ys)) == (w + 121, h + 148)
    free = TileSet.dominoes(al, [(x, y) for x in al.tokens for y in al.tokens], [])
    assert is_valid(g, free)
    assert period_lattice(g) == PeriodLattice(0, ())
    t = type_of(g)
    assert isinstance(t, TypeB)
    assert t.witness == Pattern.from_rows(al, ["a c", "c c", "b b"])


# ------------------------------------- clipped middle bands against the oracle

def tall_plane(rng):
    """(presentation, plane fn): 2-3 states, 2-3 cuts per axis spaced 8-30
    apart from [-30, -26] on, block periods 1-4, redrawn until each axis has
    a middle band at least twice its step + 4 long, so scans of windows up
    to 4 long clip it on both axes.  The fn is read off the raw draws."""
    while True:
        k = rng.randint(2, 3)
        xcuts, ycuts = ([-30 + rng.randint(0, 4)] for _ in range(2))
        for cuts in (xcuts, ycuts):
            for _ in range(rng.randint(1, 2)):
                cuts.append(cuts[-1] + rng.randint(8, 30))
        raw = [[tuple(tuple(rng.randrange(k) for _ in range(v)) for _ in range(u))
                for u, v in ((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(len(ycuts) + 1))]
               for _ in range(len(xcuts) + 1)]
        regions = tuple(tuple(Block(len(d), len(d[0]), d) for d in col) for col in raw)
        al = Alphabet(tuple(f"s{i}" for i in range(k)))
        g = GridPresentation(al, tuple(xcuts), tuple(ycuts), regions)
        if all(any(b - a >= 2 * m + 4 for a, b, m in ax.mids) for ax in g._index.axes):
            break

    def fn(x, y):
        data = raw[sum(c <= x for c in xcuts)][sum(c <= y for c in ycuts)]
        return data[x % len(data)][y % len(data[0])]

    return g, fn


# Cuts lie in [-30, 34], steps are at most 12 and windows at most 4 long,
# so every window content has a copy within [-46, 48], inside TALL_NEAR;
# finite occurrences lie within [-33, 36], and an infinite family has
# another copy within TALL_FAR, 13 further out.
TALL_NEAR, TALL_FAR = 48, 61
TALL_SEEDS = range(8)


@pytest.mark.parametrize("seed", TALL_SEEDS)
def test_tall_band_window_keys_and_validity_match_oracle(seed):
    rng = random.Random(f"tall/{seed}")
    g, fn = tall_plane(rng)
    grid = brute.box_grid(fn, TALL_NEAR)
    for w in range(1, 5):
        for h in range(1, 5):
            assert rect_window_keys(g, w, h) == brute.window_keys(grid, w, h), (w, h)
    for offsets in SPARSE_SHAPES:
        seen = sorted({tuple(grid[x + dx][y + dy] for dx, dy in offsets)
                       for x in range(len(grid) - 2) for y in range(len(grid) - 2)})
        for drop in (None, rng.choice(seen)):
            allowed = frozenset(seen) - {drop}
            ts = TileSet.from_allowed(g.alphabet, [Pattern(g.alphabet, dict(zip(offsets, combo))) for combo in allowed])
            assert is_valid(g, ts) == brute.grid_ok([(offsets, allowed)], grid), (offsets, drop)


def test_tall_band_occurrences_and_type_match_oracle():
    """Patterns cut from inside two middle bands, across cuts and at random,
    some with holes; a pattern that fits inside a clipped band occurs there
    once per band step, so some exact counts exceed 1."""
    counts = []
    for seed in TALL_SEEDS:
        rng = random.Random(f"tall/{seed}")
        g, fn = tall_plane(rng)
        grid = brute.box_grid(fn, TALL_FAR)

        def cell(x, y):
            return grid[x + TALL_FAR][y + TALL_FAR]

        xbands, ybands = (ax.mids for ax in g._index.axes)
        for n in range(8):
            w, h = rng.randint(1, 4), rng.randint(1, 4)
            if n < 4:  # inside a middle band on each axis
                a, b, _ = rng.choice([band for band in xbands if band[1] - band[0] >= w])
                c, d, _ = rng.choice([band for band in ybands if band[1] - band[0] >= h])
                cx, cy = rng.randint(a, b - w), rng.randint(c, d - h)
            else:
                cx, cy = rng.randint(-35, 35), rng.randint(-35, 35)
            cells = {(dx, dy): cell(cx + dx, cy + dy) for dx in range(w) for dy in range(h)}
            if n % 2:
                kept = rng.sample(sorted(cells), rng.randint(1, len(cells)))
                mx, my = min(x for x, _ in kept), min(y for _, y in kept)
                cells = {(x - mx, y - my): cells[x, y] for x, y in kept}
            got = occurrences(g, Pattern(g.alphabet, cells))
            assert got == oracle_occurrences(cell, cells, TALL_NEAR, TALL_FAR), (seed, cells)
            if isinstance(got, Finite):
                counts.append(got.count)
        t = type_of(g)
        assert isinstance(t, TypeB) == (period_lattice(g).rank == 0)
        if isinstance(t, TypeB):
            witness = {(c.x, c.y): s for c, s in t.witness.cells.items()}
            assert oracle_occurrences(cell, witness, TALL_NEAR, TALL_FAR) == Finite(1), seed
    assert max(counts) > 1


def test_tall_band_scans_read_as_many_windows_at_any_height(stripes, monkeypatch):
    """a_i's white band is clipped to one step of inside corners, so its
    (2, 1) and (1, 2) key scans and its type_of read as many windows at
    i = 50 as at i = 5000."""
    real, read = _Analysis.windows, []

    def counted(self, *args):
        keys = list(real(self, *args))
        read.append(len(keys))
        return iter(keys)

    monkeypatch.setattr(_Analysis, "windows", counted)

    def reads(i):
        g = make_a(stripes.alphabet, i)
        read.clear()
        rect_window_keys(g, 2, 1)
        rect_window_keys(g, 1, 2)
        scans = sum(read)
        read.clear()
        assert isinstance(type_of(g), TypeB)
        return scans, sum(read)

    assert reads(50) == reads(5000)


def test_tall_band_index_holds_as_many_codes_at_any_height(stripes):
    """a_i's index codes only the rows its scan boxes keep, so after the same
    key scans and type_of it holds as many code entries at i = 50 as at i = 5000."""

    def held(i):
        g = make_a(stripes.alphabet, i)
        rect_window_keys(g, 2, 1)
        rect_window_keys(g, 1, 2)
        assert isinstance(type_of(g), TypeB)
        return sum(len(col) for cols in g._index.codes.values() for col in cols.values())

    assert held(50) == held(5000)


@pytest.mark.parametrize("seed", range(6))
def test_windows_at_any_corner_ranges_match_oracle(seed):
    """One index per plane serves, at each (w, h) in turn, the scan box,
    type_of's straddling ranges (steps 0) and single corners; each read,
    decoded, lists the oracle grid's windows at those corners in order.  A
    code cache keyed without its rows would answer a later read with an
    earlier read's rows."""
    rng = random.Random(f"windows/{seed}")
    reach = 50  # cuts lie in [-30, 34], steps are at most 12 and windows at most 4 long
    for g, fn in (banded_plane(rng), tall_plane(rng)):
        grid, a, k = brute.box_grid(fn, reach), g._index, len(g.alphabet)
        xaxis, yaxis = a.axes
        for w in range(1, 5):
            for h in range(1, 5):
                reads = [a.corner_box(w, h)]
                if g.xcuts and g.ycuts:  # as in type_of, which runs only with cuts on both axes
                    reads.append((_corners(g.xcuts, w, 0, 0, xaxis.mids), _corners(g.ycuts, h, 0, 0, yaxis.mids)))
                for _ in range(3):
                    x, y = rng.randint(-45, 45), rng.randint(-45, 45)
                    reads.append(((range(x, x + 1),), (range(y, y + 1),)))
                for xs, ys in reads:
                    if not xs or not ys:  # no straddling corner on an axis
                        continue
                    got = [_decode(key, h, k) for key in a.windows(w, h, xs, ys)]
                    assert got == [tuple(grid[x + dx + reach][y + dy + reach] for dx in range(w) for dy in range(h))
                                   for x in chain(*xs) for y in chain(*ys)], (seed, w, h, xs, ys)


# ------------------------------------------- local planes against the oracle

def local_plane(rng):
    """(presentation, plane fn, per-axis cut lists, largest band step): 2-3
    states, 1-2 x-cuts and 2 y-cuts whose middle band is 2m + 24 to 2m + 32
    tall (m its step), so that period tests clip its overlaps with its
    shifted copies, transposed half the time.  Within a band the blocks'
    periods along its axis are pairwise coprime (drawn from 1, 2, 3), so
    blocks repeat faster than their band and scans cut their runs.  A
    quarter of the planes repeat one x-band's blocks in every x-band, so
    they have a period along x."""
    k = rng.randint(2, 3)
    xcuts = sorted(rng.sample(range(-3, 4), rng.randint(1, 2)))
    vs = [rng.sample((1, 2, 3), len(xcuts) + 1) for _ in range(3)]  # vs[iy][ix]
    raw = [[tuple(tuple(rng.randrange(k) for _ in range(vs[iy][ix])) for _ in range(u))
            for iy, u in enumerate(rng.sample((1, 2, 3), 3))] for ix in range(len(xcuts) + 1)]
    if rng.random() < 0.25:
        raw = [raw[0]] * len(raw)
    steps = [math.lcm(*map(len, col)) for col in raw] + [math.lcm(*(len(col[iy][0]) for col in raw)) for iy in range(3)]
    y0 = rng.randint(-3, 0)
    ycuts = [y0, y0 + 2 * steps[-2] + rng.randint(24, 32)]
    regions = tuple(tuple(Block(len(d), len(d[0]), d) for d in col) for col in raw)
    g = GridPresentation(Alphabet(tuple(f"s{i}" for i in range(k))), tuple(xcuts), tuple(ycuts), regions)

    def fn(x, y):
        data = raw[sum(c <= x for c in xcuts)][sum(c <= y for c in ycuts)]
        return data[x % len(data)][y % len(data[0])]

    if rng.random() < 0.5:
        return transpose(g), lambda x, y: fn(y, x), (ycuts, xcuts), max(steps)
    return g, fn, (xcuts, ycuts), max(steps)


@pytest.mark.parametrize("seed", range(16))
def test_local_planes_match_oracle(seed, monkeypatch):
    """Window keys, validity on the sparse shapes, periods, equality and the
    type-B witness of planes whose blocks repeat faster than their bands,
    against the oracle at reaches read off each plane's cuts and steps: with
    cuts within c of 0, steps at most s and windows at most 4 long, every
    window content has a copy with its corner in [-c - 4 - s, c + s]; a
    finite occurrence lies within c + 4, and an infinite family has a copy
    within near and another within near + s; a shift by v with |v| <= k,
    the larger block lcm, agrees with the plane everywhere when it does on
    [-c - k - s, c + k + s], which the oracle compares at reach c + 2k + s."""
    rng = random.Random(f"local/{seed}")
    g, fn, cuts, s = local_plane(rng)
    assert any(ax.local for ax in g._index.axes)
    ux, vy = raw_lcms(g)
    c, k = max(abs(x) for axis in cuts for x in axis), max(ux, vy)
    near, far = c + s + 4, c + 2 * s + 4
    reach = max(far, c + 2 * k + s)
    grid = brute.box_grid(fn, near)
    real, read = _Analysis.windows, []

    def counted(self, *args):
        keys = list(real(self, *args))
        read.append(len(keys))
        return iter(keys)

    monkeypatch.setattr(_Analysis, "windows", counted)
    for w in range(1, 5):
        for h in range(1, 5):
            read.clear()
            assert rect_window_keys(g, w, h) == brute.window_keys(grid, w, h), (w, h)
            xs, ys = g._index.corner_box(w, h)
            assert sum(read) < sum(map(len, xs)) * sum(map(len, ys)), (w, h)  # runs were cut
    monkeypatch.undo()
    for offsets in SPARSE_SHAPES:
        seen = sorted({tuple(grid[x + dx][y + dy] for dx, dy in offsets)
                       for x in range(len(grid) - 2) for y in range(len(grid) - 2)})
        for drop in (None, rng.choice(seen)):
            allowed = frozenset(seen) - {drop}
            ts = TileSet.from_allowed(g.alphabet, [Pattern(g.alphabet, dict(zip(offsets, combo))) for combo in allowed])
            assert is_valid(g, ts) == brute.grid_ok([(offsets, allowed)], grid), (offsets, drop)
    big = brute.box_grid(fn, reach)

    def cells(x, y):
        return big[x + reach][y + reach]

    lat = period_lattice(g)
    assert lat.rank == brute.lattice_rank(cells, reach, k)
    twin = doubled(g)
    for dx in range(-ux, ux + 1):
        for dy in range(-vy, vy + 1):
            want = brute.is_period(cells, (dx, dy), reach)
            assert lat.contains((dx, dy)) == want, (dx, dy)
            assert equal(g, shift(g, (dx, dy))) == want, (dx, dy)
            assert equal(g, shift(twin, (dx, dy))) == want, (dx, dy)
    t = type_of(g)
    assert isinstance(t, TypeB) == (lat.rank == 0)
    if isinstance(t, TypeB):
        witness = {(v.x, v.y): state for v, state in t.witness.cells.items()}
        assert oracle_occurrences(cells, witness, near, far) == Finite(1)


# ------------------------------------------ one-step corner boxes against the oracle

@pytest.mark.parametrize("seed", range(10))
def test_corner_boxes_hold_one_extreme_step_and_match_oracle(seed):
    """On a banded, a tall and a local plane per seed, each side of every
    corner box holds exactly its extreme band's step of corners inside that
    band, one per residue of the step (the step read off the band's blocks:
    the lcm of their periods along the axis; one step's worth of corners on
    an axis without cuts).  Window keys, occurrences, periods and the type-B
    witness still match the oracle, at reaches derived from the cuts and the
    global block lcm L alone: with cuts within c of 0 and windows at most 4
    long, every content has a copy with its corner within c + L of 0, a
    finite occurrence lies within c + 4, an infinite family has a copy
    within near = c + L + 4 and another within near + L, and a shift by v
    with |v| <= L agrees with the plane everywhere when it does on
    [-c - 2L, c + 2L], which the oracle compares at reach c + 3L."""
    rng = random.Random(f"one-step/{seed}")
    for g, fn in (banded_plane(rng), tall_plane(rng), local_plane(rng)[:2]):
        cols = g.regions
        steps = [math.lcm(*(b.u for b in cols[0])), math.lcm(*(b.u for b in cols[-1])),
                 math.lcm(*(col[0].v for col in cols)), math.lcm(*(col[-1].v for col in cols))]
        for w in range(1, 5):
            for h in range(1, 5):
                for n, cuts, rs, (lo, hi) in zip((w, h), (g.xcuts, g.ycuts), g._index.corner_box(w, h),
                                                   (steps[:2], steps[2:])):
                    corners = list(chain(*rs))
                    sides = ([c for c in corners if c + n - 1 < cuts[0]], [c for c in corners if c >= cuts[-1]]) \
                        if cuts else (corners,)
                    for side, step in zip(sides, (lo, hi)):
                        assert len(side) == len({c % step for c in side}) == step, (seed, n, cuts, step)
        L = max(math.lcm(*(b.u for col in cols for b in col)), math.lcm(*(b.v for col in cols for b in col)))
        c = max((abs(x) for x in g.xcuts + g.ycuts), default=0)
        near, far, reach = c + L + 4, c + 2 * L + 4, c + 3 * L + 4
        big = brute.box_grid(fn, reach)

        def cells(x, y):
            return big[x + reach][y + reach]

        grid = brute.box_grid(cells, near)
        for w in range(1, 5):
            for h in range(1, 5):
                assert rect_window_keys(g, w, h) == brute.window_keys(grid, w, h), (seed, w, h)
        for i in range(6):
            w, h = rng.randint(1, 3), rng.randint(1, 3)
            cx, cy = rng.randint(-c - 3, c), rng.randint(-c - 3, c)
            pat = {(dx, dy): cells(cx + dx, cy + dy) for dx in range(w) for dy in range(h)}
            if i % 3 == 2:
                pat[rng.choice(sorted(pat))] = rng.randrange(len(g.alphabet))
            assert occurrences(g, Pattern(g.alphabet, pat)) == oracle_occurrences(cells, pat, near, far), (seed, pat)
        lat = period_lattice(g)
        assert lat.rank == brute.lattice_rank(cells, reach, L), seed
        for v in ((dx, dy) for dx in range(-L, L + 1) for dy in range(-L, L + 1)):
            assert lat.contains(v) == brute.is_period(cells, v, reach), (seed, v)
        t = type_of(g)
        assert isinstance(t, TypeB) == (lat.rank == 0)
        if isinstance(t, TypeB):
            witness = {(v.x, v.y): state for v, state in t.witness.cells.items()}
            assert oracle_occurrences(cells, witness, near, far) == Finite(1), seed


def test_planes_without_faster_blocks_read_the_corner_box_once(members, stripes, monkeypatch):
    """Where every block repeats with its band's step no run can be cut, so
    each key-set build is one read of the corner box: the corpus planes and
    tall a_i and b_i on either axis."""
    real, reads = _Analysis.windows, []

    def counted(self, w, h, xs, ys):
        reads.append((w, h, xs, ys))
        return real(self, w, h, xs, ys)

    monkeypatch.setattr(_Analysis, "windows", counted)
    al = stripes.alphabet
    tall = [make_a(al, 5000), make_b(al, 3000), transpose(make_a(al, 50))]
    for g in [replace(p) for p in members.values()] + tall:  # fresh planes, no keys built yet
        a = g._index
        assert not any(ax.local for ax in a.axes)
        reads.clear()
        for w in range(1, 4):
            for h in range(1, 4):
                rect_window_keys(g, w, h)
                rect_window_keys(g, w, h)
        assert reads == [(w, h, *a.corner_box(w, h)) for w in range(1, 4) for h in range(1, 4)]


def test_tall_band_period_tests_read_as_many_cells_at_any_height(stripes, monkeypatch):
    """A period test compares two joint steps of the overlap of a tall band
    with its shifted copy, so the period lattices of a_i and b_i, on either
    axis, read as many cells at i = 50 as at i = 5000, in as many reads."""
    real, read = _Analysis.column, []

    def counted(self, *args):
        col = real(self, *args)
        read.append(len(col))
        return col

    monkeypatch.setattr(_Analysis, "column", counted)

    def cells(i):
        out = []
        for make in (make_a, make_b):
            for g in (make(stripes.alphabet, i), transpose(make(stripes.alphabet, i))):
                read.clear()
                period_lattice(g)
                out.append((len(read), sum(read)))
        return out

    assert cells(50) == cells(5000)


@pytest.mark.parametrize("tall", [30, 300])
def test_band_overlaps_keep_two_joint_steps_from_their_own_start(tall):
    """Period tests and equality skip all but the first two joint steps of
    each long overlap of middle bands, so an overlap read one joint step short,
    or from the wrong shift, misses a lone mismatch: g and h differ only at
    rows 2 mod 3 of their middle band, and shifting p by (0, 3) changes only
    row 2, which lies above the overlap of p's band with its shifted copy
    and would sit inside one taken with the shift's sign flipped."""
    al = Alphabet(("w", "g"))
    w, wwg = Block.filled(1, 1, 0), Block(1, 3, ((0, 0, 1),))
    g = GridPresentation(al, (), (0, tall), ((w, wwg, w),))
    h = GridPresentation(al, (), (0, tall), ((w, w, w),))
    p = GridPresentation(al, (), (0, tall), ((wwg, w, w),))
    assert [cell_at(p, (0, y)) for y in (2, -1)] == [0, 1]
    for flip in (lambda q: q, transpose):
        assert not equal(flip(g), flip(h)) and not equal(flip(h), flip(g))
        assert equal(flip(g), flip(g)) and equal(flip(h), shift(flip(h), (5, 5)))
    assert period_lattice(p) == PeriodLattice(1, (Vec2(1, 0),))
    assert period_lattice(transpose(p)) == PeriodLattice(1, (Vec2(0, 1),))


def test_short_band_period_tests_read_one_range_per_column(stripes, monkeypatch):
    """Clipping an overlap of bands costs each column read one more range of
    rows, so it is done only where it skips over half the range: the period
    tests of the family's a_i and b_i, whose bands are 1 to 10 tall, read
    one range per column, while a_50's are clipped."""
    real, ranges = _Analysis.column, []

    def counted(self, x, *rows):
        ranges.append(len(rows))
        return real(self, x, *rows)

    monkeypatch.setattr(_Analysis, "column", counted)
    for i in range(1, 11):
        for g in (make_a(stripes.alphabet, i), make_b(stripes.alphabet, i)):
            ranges.clear()
            period_lattice(g)
            assert set(ranges) == {1}, i
    ranges.clear()
    period_lattice(make_a(stripes.alphabet, 50))
    assert max(ranges) == 2


def four_case_lattice(g, is_period):
    """The period lattice search as four hand-written cases, restated as the
    reference for `GridPresentation._lattice`'s one search."""
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    ux, vy = block_lcms(g)
    has_h = is_period(Vec2(ux, 0))
    has_v = is_period(Vec2(0, vy))
    if has_v:
        c0 = next(d for d in divisors(vy) if is_period(Vec2(0, d)))
    if has_h and not has_v:
        a0 = next(d for d in divisors(ux) if is_period(Vec2(d, 0)))
        return PeriodLattice(1, (Vec2(a0, 0),))
    if has_v and not has_h:
        return PeriodLattice(1, (Vec2(0, c0),))
    if not has_h and not has_v:
        return PeriodLattice(0, ())
    for a in divisors(ux):
        for b in range(c0):
            if is_period(Vec2(a, b)):
                return PeriodLattice(2, (Vec2(a, b), Vec2(0, c0)))
    raise AssertionError("(ux, 0) is a period")


def test_lattice_search_tests_what_the_four_case_search_did(members, monkeypatch):
    """On seeded random, banded, tall and local planes and the corpus family,
    each at three shifts and transposed, the one search returns the four-case
    search's lattice through the same period tests in the same order, and
    the draws reach every case: rank 0, x or y alone, and a sheared rank 2."""
    real, log = presentation._is_period, []

    def logged(g, v):
        log.append(v)
        return real(g, v)

    monkeypatch.setattr(presentation, "_is_period", logged)
    rng = random.Random(2929)
    al = Alphabet(("p", "q", "r"))
    diagonals = [Block(3, 3, tuple(tuple((x + t * y) % 3 for y in range(3)) for x in range(3))) for t in (1, 2)]
    planes = [*members.values(), *(GridPresentation(al, (0,), (1,), ((d, d), (d, d))) for d in diagonals)]
    for draw, n in ((random_plane, 300), (banded_plane, 100), (tall_plane, 40), (local_plane, 80)):
        planes += [draw(rng)[0] for _ in range(n)]
    cases = set()  # each lattice's generators, as (x > 0, y > 0) per generator
    for g in planes:
        for v in [(0, 0), *(rng.sample(range(-7, 8), 2) for _ in range(2))]:
            for p in (shift(g, v), transpose(shift(g, v))):
                log.clear()
                got, tests = period_lattice(p), log[:]
                log.clear()
                assert got == four_case_lattice(p, lambda u: logged(p, u)), (p, v)
                assert tests == log, (p, v)
                cases.add(tuple((u.x > 0, u.y > 0) for u in got.generators))
    assert cases >= {(), ((True, False),), ((False, True),), ((True, True), (False, True))}
