"""A symmetry referee: every answer about a presented plane or a family is
unchanged when the planes are shifted, and transposed when they are
transposed.  It reads no oracle, so it is cheap.  Every band-geometry rule is
written once per axis record (`_Axis`) and read for both axes, so a rule read
off the wrong axis, or kept on one axis only, shows here: a shift moves the
axes' cuts by different amounts, and a transpose swaps which axis a band
lies on.  Window sets, period tests, occurrences, the recurrence type and
validity are compared on the seeded banded, tall and local planes of
`tests/test_presentation.py`; classes, covers, levels and ranks on the seeded
families of `tests/test_cb.py`, through every derivative round, also under a
renaming of the states; torus counts, torus enumerations and the existence of
a weakly periodic tiling on seeded tile sets of `tests/test_solver.py`."""

import random
from itertools import product

import pytest

from conftest import raw_lcms
from test_cb import random_family
from test_presentation import SPARSE_SHAPES, banded_plane, local_plane, tall_plane
from test_solver import _random_rules, _rules_tileset
from tilelab.cb import derivative, ranks
from tilelab.core import Pattern, TileSet, Vec2
from tilelab.lang import count_torus
from tilelab.order import TilingFamily, equivalence_classes, hasse, level_of
from tilelab.presentation import (
    Block,
    Finite,
    GridPresentation,
    TypeB,
    _Analysis,
    _Axis,
    _is_period,
    cell_at,
    is_valid,
    occurrences,
    period_lattice,
    rect_window_keys,
    shift,
    transpose,
    type_of,
)
from tilelab.solver import enumerate_torus, weak_periodic_witness


def flip(v) -> Vec2:
    return Vec2(v[1], v[0])


def flip_key(key: tuple[int, ...], w: int, h: int) -> tuple[int, ...]:
    """The x-major state tuple of a w x h window, as the h x w window of its transpose."""
    return tuple(key[x * h + y] for y in range(h) for x in range(w))


def flip_pattern(p: Pattern) -> Pattern:
    return Pattern(p.alphabet, {flip(c): s for c, s in p.cells.items()})


def variants(g, rng):
    """(plane, transposed) for g, g shifted by two different amounts on the
    two axes, and the transposes of both."""
    s = shift(g, rng.sample(range(-7, 8), 2))
    return [(g, False), (s, False), (transpose(g), True), (transpose(s), True)]


def check_windows_occurrences_and_type(g, planes, rng):
    for w, h in product(range(1, 5), repeat=2):
        want = rect_window_keys(g, w, h)
        flipped = {flip_key(key, w, h) for key in want}
        for p, t in planes:
            assert rect_window_keys(p, *((h, w) if t else (w, h))) == (flipped if t else want), (w, h, t)
    cuts = g.xcuts + g.ycuts
    lo, hi = min(cuts, default=0) - 4, max(cuts, default=0) + 1
    for i in range(6):
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        key = rng.choice(sorted(rect_window_keys(g, w, h))) if i < 2 else None
        if key is None:  # a window of g at a corner near its cuts
            cx, cy = rng.randint(lo, hi), rng.randint(lo, hi)
            cells = {Vec2(dx, dy): cell_at(g, (cx + dx, cy + dy)) for dx in range(w) for dy in range(h)}
        else:
            cells = {Vec2(dx, dy): key[dx * h + dy] for dx in range(w) for dy in range(h)}
        if i % 3 == 2:
            cells[rng.choice(sorted(cells))] = rng.randrange(len(g.alphabet))
        if i % 2:
            kept = rng.sample(sorted(cells), rng.randint(1, len(cells)))
            cells = {c: cells[c] for c in kept}
        pat = Pattern(g.alphabet, cells)
        want = occurrences(g, pat)
        for p, t in planes:
            assert occurrences(p, flip_pattern(pat) if t else pat) == want, (cells, t)
    kinds = [type_of(p) for p, _ in planes]
    assert len({type(k) for k in kinds}) == 1
    for k, (_, tk) in zip(kinds, planes):
        if isinstance(k, TypeB):  # the least witness can differ, but each occurs once everywhere
            for p, t in planes:
                assert occurrences(p, flip_pattern(k.witness) if t != tk else k.witness) == Finite(1)


def check_validity(g, planes, rng):
    for offsets in SPARSE_SHAPES:
        bw, bh = max(x for x, _ in offsets) + 1, max(y for _, y in offsets) + 1
        seen = sorted({tuple(key[x * bh + y] for x, y in offsets) for key in rect_window_keys(g, bw, bh)})
        for drop in (None, rng.choice(seen)) if len(seen) > 1 else (None,):
            ts = TileSet.from_allowed(g.alphabet, [Pattern(g.alphabet, {Vec2(*o): s for o, s in zip(offsets, combo)})
                                                   for combo in seen if combo != drop])
            answers = {is_valid(p, ts.transpose() if t else ts) for p, t in planes}
            assert len(answers) == 1 and (drop is not None or answers == {True}), (offsets, drop)


def check_periods(g, planes, monkeypatch):
    """The lattices hold the same vectors, swapped under transpose, on a box
    one block lcm each way.  Each period test answers as the lattice does,
    compares a box of the same extents (swapped under transpose) in all four
    planes and, where the whole box is read (a period), as many cells."""
    L = max(raw_lcms(g))
    lats = [period_lattice(p) for p, _ in planes]
    assert len({lat.rank for lat in lats}) == 1
    for v in product(range(-L, L + 1), repeat=2):
        assert {lat.contains(flip(v) if t else v) for lat, (_, t) in zip(lats, planes)} == {lats[0].contains(v)}, v
    real_joint, real_column, extents, cells = _Axis.joint, _Analysis.column, [], []

    def joint(self, *args):
        got = real_joint(self, *args)
        extents.append(sum(map(len, got)))
        return got

    def column(self, x, *rows):
        got = real_column(self, x, *rows)
        cells.append(len(got))
        return got

    monkeypatch.setattr(_Axis, "joint", joint)
    monkeypatch.setattr(_Analysis, "column", column)
    vectors = {(d, 0) for d in range(1, L + 1)} | {(0, d) for d in range(1, L + 1)} | set(product(range(-3, 4), repeat=2))
    for v in sorted(vectors):
        reads = []
        for p, t in planes:
            extents.clear()
            cells.clear()
            answer = _is_period(p, flip(v) if t else Vec2(*v))
            reads.append((answer, tuple(reversed(extents)) if t else tuple(extents), sum(cells)))
        assert {r[:2] for r in reads} == {(lats[0].contains(v), reads[0][1])}, v
        # a failing test stops at its first mismatch, and on an axis without cuts the range
        # does not move with a shift, so only whole reads (periods) read equal cells
        if reads[0][0]:
            assert len({r[2] for r in reads}) == 1, v
    monkeypatch.undo()


DRAWS = [("banded", seed) for seed in range(12)] + [("tall", seed) for seed in range(6)] \
    + [("local", seed) for seed in range(12)]


@pytest.mark.parametrize("kind,seed", DRAWS)
def test_plane_answers_are_invariant_under_shift_and_transpose(kind, seed, monkeypatch):
    rng = random.Random(f"symmetry/{kind}/{seed}")
    make = {"banded": banded_plane, "tall": tall_plane, "local": local_plane}[kind]
    g = make(rng)[0]
    planes = variants(g, rng)
    check_windows_occurrences_and_type(g, planes, rng)
    check_validity(g, planes, rng)
    check_periods(g, planes, monkeypatch)


def family_rounds(f: TilingFamily):
    """Per derivative round, the classes, their covers and every member's level; then the ranks."""
    out, report = [], ranks(f)
    while f.names():
        out.append((equivalence_classes(f), hasse(f).covers, {n: level_of(f, n) for n in f.names()}))
        rest = derivative(f)
        if len(rest.names()) == len(f.names()):
            break
        f = rest
    return out, report


def renamed(g: GridPresentation, perm: list[int]) -> GridPresentation:
    """g with every state s read as perm[s]."""
    return GridPresentation(g.alphabet, g.xcuts, g.ycuts, tuple(tuple(
        Block(b.u, b.v, tuple(tuple(perm[s] for s in col) for col in b.data)) for b in region) for region in g.regions))


def test_family_answers_are_invariant_under_shift_and_transpose():
    """Classes, covers, levels and ranks of seeded families, some with a tall
    band member, in every derivative round: unchanged when each member is
    shifted on its own, when the tile set and every member are transposed,
    and when the states of both are renamed (rotated)."""
    rng = random.Random(2027)
    deep = 0
    for n in range(40):
        f, _ = random_family(rng, range(-3, 4), 3, 2, tall=rng.choice((0, 9, 24)))
        want = family_rounds(f)
        moved = [(name, shift(g, rng.sample(range(-7, 8), 2))) for name, g in f.members]
        flipped = [(name, transpose(g)) for name, g in f.members]
        k = len(f.tileset.alphabet)
        perm = [(s + 1 + n % (k - 1)) % k for s in range(k)]
        relabelled = TileSet.from_allowed(f.tileset.alphabet, [
            Pattern(p.alphabet, {c: perm[s] for c, s in p.cells.items()}) for pats in f.tileset.allowed for p in pats])
        renamings = [(name, renamed(g, perm)) for name, g in f.members]
        for ts, members in ((f.tileset, moved), (f.tileset.transpose(), flipped), (relabelled, renamings)):
            assert family_rounds(TilingFamily(ts, members, f.window)) == want, n
        deep += len(want[0]) > 1
    assert deep


@pytest.mark.parametrize("extra", [(), ("square",), ("row3",)])
def test_tileset_answers_are_invariant_under_transpose(extra):
    """Torus counts and torus enumerations with the two sizes swapped, and
    whether a weakly periodic tiling exists, agree for a tile set and its transpose."""
    found = set()
    for seed in range(30):
        rng = random.Random(f"symmetry/tiles/{extra}/{seed}")
        nstates = rng.choice((2, 3, 4))
        ts = _rules_tileset(nstates, _random_rules(rng, nstates, extra))
        tt = ts.transpose()
        for p, q in product((1, 2, 3), repeat=2):
            assert count_torus(ts, p, q) == count_torus(tt, q, p), (seed, p, q)
        assert len(enumerate_torus(ts, 3, 2)) == len(enumerate_torus(tt, 2, 3)), seed
        q = rng.choice((1, 2, 3))
        witness = weak_periodic_witness(ts, q)
        assert (witness is None) == (weak_periodic_witness(tt, q) is None), (seed, q)
        found.add(witness is None)
    assert found == {False, True}
