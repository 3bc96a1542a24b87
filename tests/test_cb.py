import copy
import random
from bisect import bisect_right
from functools import cache, cached_property

import pytest

from oracle import brute
from conftest import corpus_planes, order_reads, raw_lcms
from tilelab import cb
from tilelab.cb import (
    RankReport,
    _isolated,
    _pinning_key,
    _search_bounds,
    derivative,
    isolated_classes,
    isolating_pattern,
    ranks,
)
from tilelab.cli import _unstable_pairs
from tilelab.core import Alphabet, Pattern, TileSet, Vec2
from tilelab.order import TilingFamily, preceq
from tilelab.presentation import (
    Block,
    Finite,
    GridPresentation,
    Infinite,
    _Analysis,
    _dims_ascending,
    _key_pattern,
    _occurrence_scan,
    occurrences,
    period_lattice,
    uniform,
)

PLANES = corpus_planes()

EXPECTED_RANKS = {
    **{f"a{i}": 1 for i in range(1, 7)},
    **{f"b{i}": 2 for i in range(1, 7)},
    "red_green_over_white": 2, "red_white_over_black": 2,
    "red_green": 3, "red_white": 3, "red_black": 3,
    "green_over_white": 3, "white_over_black": 3,
    "mono_red": 4, "mono_green": 4, "mono_white": 4, "mono_black": 4,
}


def test_isolating_pattern_a2(family6):
    p = isolating_pattern(family6, "a2")
    assert p.rows() == ["R G", "R W", "R W", "R B"]
    assert occurrences(family6.presentation("a2"), p) == Finite(1)
    for other in family6.names():
        if other != "a2":
            from tilelab.presentation import Zero

            assert occurrences(family6.presentation(other), p) == Zero()


def test_isolating_pattern_b1_needs_smaller_family(family6):
    # the whole G/W/B strip of b1 also sits inside every a_i
    assert isolating_pattern(family6, "b1") is None
    smaller = TilingFamily(
        family6.tileset,
        [(n, family6.presentation(n)) for n in family6.names() if not n.startswith("a")],
        6,
    )
    p = isolating_pattern(smaller, "b1")
    assert p is not None
    assert p.rows() == ["G", "W", "B"]


def test_isolated_classes_first_round(family6):
    got = sorted(c[0] for c in isolated_classes(family6))
    assert got == [f"a{i}" for i in range(1, 7)]


def test_derivative_removes_isolated(family6):
    d = derivative(family6)
    assert sorted(d.names()) == sorted(set(family6.names()) - {f"a{i}" for i in range(1, 7)})
    d2 = derivative(d)
    gone = set(d.names()) - set(d2.names())
    assert gone == {f"b{i}" for i in range(1, 7)} | {"red_green_over_white",
                                                     "red_white_over_black"}


def test_ranks_full_table(family6):
    report = ranks(family6)
    assert isinstance(report, RankReport)
    assert report.ranks == EXPECTED_RANKS
    assert report.family_rank == 4
    assert report.residue == ()


def test_ranks_match_oracle(family6):
    fns = {n: f for n, (f, _, _) in PLANES.items()}
    bounds = {n: (max(6, xs + 2), max(6, ys + 2)) for n, (_, xs, ys) in PLANES.items()}
    table, residue = brute.brute_ranks(fns, bounds, 18, 24)
    report = ranks(family6)
    assert report.ranks == table
    assert set(report.residue) == residue


def test_ranks_stable_under_truncation_and_window(family6, family8):
    r6 = ranks(family6)
    r8 = ranks(family8)
    for name in family6.names():
        assert r6.ranks[name] == r8.ranks[name], name
    assert {n: r for n, r in r8.ranks.items() if n in r6.ranks} == r6.ranks
    assert r8.family_rank == r6.family_rank == 4
    assert r8.residue == ()
    for i in range(7, 13):
        assert r8.ranks[f"a{i}"] == 1
        assert r8.ranks[f"b{i}"] == 2


def test_rank_anti_monotone(family6):
    report = ranks(family6)
    names = family6.names()
    for x in names:
        for y in names:
            if x != y and family6.lt(x, y):
                assert report.ranks[x] > report.ranks[y], (x, y)


def test_residue_when_nothing_isolates(stripes, members):
    # two-member family where each member's windows all appear in the other
    # is impossible here; instead check a family whose lone member isolates
    f = TilingFamily(stripes, [("only", members["mono_red"])], 6)
    report = ranks(f)
    assert report.ranks == {"only": 1}
    assert report.residue == ()


def test_unknown_member(family6):
    with pytest.raises(KeyError):
        isolating_pattern(family6, "nope")


def test_derivatives_reuse_parent_comparisons(family6, monkeypatch):
    """Everything the order and cb subcommands ask, plus a derivative's
    diagram, scans each plane's N x N window set once, and the order layer
    reads no other size: derivatives read the sets their parent built."""
    from dataclasses import replace

    from tilelab.order import hasse, level_of, maximal_classes, minimal_classes

    # fresh planes, so that no scan index is built before the count starts
    f = TilingFamily(family6.tileset, [(n, replace(p)) for n, p in family6.members],
                     family6.window, validate=False)
    name_of = {id(p._index): n for n, p in f.members}
    real = _Analysis.windows
    scans = []

    def counting(self, w, h, xs, ys):
        scans.append((name_of[id(self)], w, h))
        return real(self, w, h, xs, ys)

    monkeypatch.setattr(_Analysis, "windows", counting)
    reads = order_reads(monkeypatch)
    h = hasse(f)
    minimal_classes(f), maximal_classes(f)
    for cls in h.classes:
        level_of(f, cls[0])
    ranks(f)
    hasse(derivative(f))
    n = f._n
    assert sorted(s for s in scans if s[1:] == (n, n)) == sorted((name, n, n) for name in f.names())
    assert {(w, h) for _, w, h in reads} == {(n, n)}


def one_copy_band_family():
    """x = ...abab | cca cca...; y = ccc..., then abab over [-12, 0), then
    x's right band; with plane functions read off that description."""
    al = Alphabet(("a", "b", "c"))
    free = TileSet.dominoes(al, [(s, t) for s in al.tokens for t in al.tokens], [])
    a, b, c = range(3)
    ab, right, cs = Block(2, 1, ((a,), (b,))), Block(3, 1, ((c,), (c,), (a,))), Block.filled(1, 1, c)
    x = GridPresentation(al, (0,), (), ((ab,), (right,)))
    y = GridPresentation(al, (-12, 0), (), ((cs,), (ab,), (right,)))
    fns = {
        "x": lambda px, py: (a, b)[px % 2] if px < 0 else (c, c, a)[px % 3],
        "y": lambda px, py: c if px < -12 else (a, b)[px % 2] if px < 0 else (c, c, a)[px % 3],
    }
    return TilingFamily(free, [("x", x), ("y", y)], 2), fns


def test_one_copy_band_occurrence_needs_its_band_step_in_the_lattice():
    """x's only private windows within its search bound lie in its left
    band, where they recur with that band's step 2 (the global lcm is 6).
    The scan box holds one copy of the least of them, so only the
    direction (-2, 0), which is no period of x, rejects it: x is not
    isolated until y is gone."""
    f, fns = one_copy_band_family()
    x = f.presentation("x")
    a, b = 0, 1
    assert _search_bounds(f, x) == (12, 2)
    key = (b, a) * 6  # 12 x 1 from an odd column; at height 1 a coded key is the row itself
    positions, dirs = _occurrence_scan(x, 12, 1, {key})
    assert positions == [Vec2(-13, 0)]
    assert dirs == {Vec2(-2, 0), Vec2(0, -1), Vec2(0, 1)}
    assert not period_lattice(x).contains((2, 0))
    assert isolating_pattern(f, "x") is None
    table, residue = brute.brute_ranks(fns, {"x": (12, 2), "y": (24, 2)}, 40, 48)
    assert table == {"y": 1, "x": 2} == ranks(f).ranks
    assert residue == set()


@pytest.mark.parametrize("square", [False, True])
def test_a_clipped_band_window_pins_only_with_its_band_step(square):
    """x reads rows a, b, a, b, ... on y in [0, 8) (only for x in [0, 8)
    with square) and c elsewhere; y is all c.  The cell a is private to x,
    and x's scan box keeps two of its 4 copies in each column, 2 apart.
    (0, 2) is no period of x, so a pins nothing: x's least pinning window is
    larger, and its occurrences lie on one orbit."""
    al = Alphabet(("a", "b", "c"))
    free = TileSet.dominoes(al, [(s, t) for s in al.tokens for t in al.tokens], [])
    ab, c = Block(1, 2, ((0, 1),)), Block.filled(1, 1, 2)
    x = GridPresentation(al, (0, 8), (0, 8), ((c,) * 3, (c, ab, c), (c,) * 3)) if square else \
        GridPresentation(al, (), (0, 8), ((c, ab, c),))

    def fn(px, py):
        inside = 0 <= py < 8 and (not square or 0 <= px < 8)
        return py % 2 if inside else 2

    f = TilingFamily(free, [("x", x), ("y", uniform(al, 2))], 2)
    assert occurrences(x, Pattern.from_rows(al, ["a"])) == (Finite(32) if square else Infinite())
    p = isolating_pattern(f, "x")
    assert len(p.cells) > 1
    corners = brute.occurrence_corners(fn, {(v.x, v.y): s for v, s in p.cells.items()}, 16)
    (bx, by), *rest = corners
    assert all(brute.is_period(fn, (cx - bx, cy - by), 24) for cx, cy in rest)
    if square:
        assert len(corners) == 1


# ------------------------------------- isolation decided at the bound

def random_family(rng, cuts, umax, vmax, tall=0):
    """(family, plane fns): 2-4 members over 2-3 states under free
    horizontal pairs, each with 0-2 x-cuts and 0-1 y-cuts drawn from cuts
    (with tall, member m0's y-cuts are 0 and tall instead), every block
    drawn from one pool of 1-4 blocks up to umax x vmax, so that members
    share windows.  The fns are read off the raw draws."""
    k = rng.randint(2, 3)
    al = Alphabet(tuple(f"s{i}" for i in range(k)))
    free = TileSet.dominoes(al, [(s, t) for s in al.tokens for t in al.tokens], [])
    pool = [tuple(tuple(rng.randrange(k) for _ in range(v)) for _ in range(rng.randint(1, umax)))
            for v in (rng.randint(1, vmax) for _ in range(rng.randint(1, 4)))]
    members, fns = [], {}
    for i in range(rng.randint(2, 4)):
        xcuts = tuple(sorted(rng.sample(cuts, rng.randint(0, 2))))
        ycuts = (0, tall) if tall and not i else tuple(sorted(rng.sample(cuts, rng.randint(0, 1))))
        raw = [[rng.choice(pool) for _ in range(len(ycuts) + 1)] for _ in range(len(xcuts) + 1)]

        @cache  # the oracle reads each cell many times
        def fn(x, y, raw=raw, xcuts=xcuts, ycuts=ycuts):
            data = raw[bisect_right(xcuts, x)][bisect_right(ycuts, y)]
            return data[x % len(data)][y % len(data[0])]

        regions = tuple(tuple(Block(len(d), len(d[0]), d) for d in col) for col in raw)
        members.append((f"m{i}", GridPresentation(al, xcuts, ycuts, regions)))
        fns[f"m{i}"] = fn
    return TilingFamily(free, members, 2), fns


def swept_witness(f, name):
    """The least pinning window over every size within the search bounds,
    as (key, w, h), with no decision at the bound first; None if none."""
    for w, h in _dims_ascending(*_search_bounds(f, f.presentation(name))):
        key = _pinning_key(f, name, w, h)
        if key is not None:
            return key, w, h
    return None


def bound_window_pins(f, name, key, w, h):
    """Whether the bound-size window at the first occurrence corner of the
    w x h window key lies in no other class and on one orbit of the plane."""
    x = f.presentation(name)
    bw, bh = _search_bounds(f, x)
    (cx, cy), *_ = _occurrence_scan(x, w, h, {key})[0]
    big = next(iter(x._index.windows(bw, bh, (range(cx, cx + 1),), (range(cy, cy + 1),))))
    mine = next(cls for cls in f._classes if name in cls)
    if any(big in f.presentation(o)._index.rect_keys(bw, bh) for o in f.names() if o not in mine):
        return False
    positions, dirs = _occurrence_scan(x, bw, bh, {big})
    lat = period_lattice(x)
    return all(lat.contains(p - positions[0]) for p in positions) and all(map(lat.contains, dirs))


def test_isolation_at_the_search_bound_matches_the_sweep():
    """A window pinning a member makes the bound-size window at any of its
    occurrence corners pin it too, so `_isolated`, which tests the bound
    only, agrees with the sweep over every smaller size, at every window from
    the largest constraint extent to N + 2 and in every derivative round."""
    rng = random.Random(7301)
    families = [one_copy_band_family()] + [random_family(rng, range(-3, 4), 3, 2) for _ in range(24)]
    decisions = pinned = 0
    for base, _ in families:
        for window in range(2, base._n + 3):
            f = TilingFamily(base.tileset, base.members, window, validate=False)
            while f.names():
                for name in f.names():
                    swept = swept_witness(f, name)
                    assert _isolated(f, name) == (swept is not None), (window, name)
                    decisions += 1
                    if swept is None:
                        assert isolating_pattern(f, name) is None
                        continue
                    key, w, h = swept
                    assert isolating_pattern(f, name) == _key_pattern(f.tileset.alphabet, key, h)
                    assert bound_window_pins(f, name, key, w, h), (window, name)
                    pinned += 1
                rest = derivative(f)
                if len(rest.names()) == len(f.names()):
                    break
                f = rest
    assert 0.2 < pinned / decisions < 0.9


def referee_bounds(f, g):
    """A member's search bound as the oracle derives it, from the raw cuts and
    blocks: per axis, the family window or, if larger, the cut span plus two
    lcms of the blocks' periods along the axis."""
    return tuple(max(f.window, (cuts[-1] - cuts[0] if cuts else 0) + 2 * m)
                 for cuts, m in zip((g.xcuts, g.ycuts), raw_lcms(g)))


def test_search_bounds_are_the_referee_bounds(family6):
    """`_search_bounds` is the formula the oracle tests derive on their own,
    on the corpus family and on seeded families, at every window from 2 to N + 2."""
    rng = random.Random(4411)
    families = [family6] + [random_family(rng, range(-3, 4), 3, 2, tall=6 * (i % 2))[0] for i in range(20)]
    for base in families:
        for window in range(2, base._n + 3):
            f = TilingFamily(base.tileset, base.members, window, validate=False)
            for name in f.names():
                g = f.presentation(name)
                assert _search_bounds(f, g) == referee_bounds(f, g), (window, name)


def test_ranks_match_oracle_at_library_bounds():
    """The oracle tries every size up to each member's search bound, derived
    from its raw cuts and blocks (`referee_bounds`), so the library's decision
    at the bound alone is refereed.  Cuts in [-2, 2]
    and blocks up to 2 x 2 keep every bound at most 8 and every band step at
    most 2: each window content has a copy with its corner in [-12, 4], so
    within reach 12, and reach 16 sees an infinite occurrence family grow.
    The oracle has no classes, so the members are drawn pairwise apart."""
    rng = random.Random(2008)
    checked = deep = 0
    while checked < 15:
        f, fns = random_family(rng, range(-2, 3), 2, 2)
        if len(f._classes) < len(f.names()):
            continue
        bounds = {n: referee_bounds(f, f.presentation(n)) for n in f.names()}
        assert max(max(b) for b in bounds.values()) <= 8
        table, residue = brute.brute_ranks(fns, bounds, 14, 16)
        report = ranks(f)
        assert report.ranks == table
        assert set(report.residue) == residue
        checked += 1
        deep += report.family_rank >= 2
    assert deep


def test_ranks_match_oracle_with_a_tall_band_member():
    """As above, with member m0 cut at y = 0 and 6, a middle band of step
    m <= 2 that scans of windows up to 6 - 2m high clip: bounds are at most
    (8, 10), so window contents have copies within [-12, 17], and reach 22
    sees an infinite occurrence family grow."""
    rng = random.Random(2020)
    checked = 0
    while checked < 3:
        f, fns = random_family(rng, range(-2, 3), 2, 2, tall=6)
        if len(f._classes) < len(f.names()):
            continue
        bounds = {n: referee_bounds(f, f.presentation(n)) for n in f.names()}
        assert max(w for w, _ in bounds.values()) <= 8 and max(h for _, h in bounds.values()) <= 10
        table, residue = brute.brute_ranks(fns, bounds, 18, 22)
        report = ranks(f)
        assert report.ranks == table
        assert set(report.residue) == residue
        checked += 1


# ------------------------------------- one period lattice per isolating_pattern call

def short_bound_family(window):
    """x = ...abab | aaa... (left block u = 2) and y = a...a b a...a (cuts -1
    and 0) under free horizontal pairs: at windows 2-4 x's search bound is
    one column short of its 5 x 1 isolating window."""
    al = Alphabet(("a", "b"))
    free = TileSet.dominoes(al, [(s, t) for s in al.tokens for t in al.tokens], [])
    a, b = Block.filled(1, 1, 0), Block.filled(1, 1, 1)
    x = GridPresentation(al, (0,), (), ((Block(2, 1, ((0,), (1,))),), (a,)))
    y = GridPresentation(al, (-1, 0), (), ((a,), (b,), (a,)))
    return TilingFamily(free, [("x", x), ("y", y)], window)


def test_isolating_pattern_computes_one_period_lattice(family6, monkeypatch):
    """One lattice search per plane: every bound test and size sweep, in a
    family and in its derivative, reads the plane's own lattice, and the
    witnesses are the per-size sweep's.  The calls run on copies, which
    carry no lattice, so each search is counted."""
    families = [family6, derivative(family6)] + [short_bound_family(w) for w in range(2, 7)]
    expected = []
    for f in families:
        for name in f.names():
            swept = swept_witness(f, name)
            witness = swept and _key_pattern(f.tileset.alphabet, swept[0], swept[2])
            expected.append((name, witness))
    real, searched = GridPresentation._lattice, []
    counted = cached_property(lambda g: searched.append(g) or real.func(g))
    counted.__set_name__(GridPresentation, "_lattice")
    monkeypatch.setattr(GridPresentation, "_lattice", counted)
    fresh = TilingFamily(family6.tileset, [(n, copy.copy(family6.presentation(n))) for n in family6.names()], 6)
    copies = [fresh, derivative(fresh)] + [short_bound_family(w) for w in range(2, 7)]
    got = [(name, isolating_pattern(f, name)) for f in copies for name in f.names()]
    assert got == expected
    assert len({id(g) for g in searched}) == len(searched) >= 10
    assert sum(w is not None for _, w in expected) >= 20


def unfiltered_pinning_key(f, name, w, h):
    """`_pinning_key` without the family's order: every member of every
    other class is subtracted, whatever lies under what."""
    x = f.presentation(name)
    mine = next(cls for cls in f._classes if name in cls)
    cands = set(x._index.rect_keys(w, h))
    for other in f.names():
        if other not in mine:
            cands -= f.presentation(other)._index.rect_keys(w, h)
    for key in sorted(cands):
        positions, dirs = _occurrence_scan(x, w, h, {key})
        lat, base = period_lattice(x), positions[0]
        if all(lat.contains(p - base) for p in positions[1:]) and all(map(lat.contains, dirs)):
            return key
    return None


def unfiltered_unstable_pairs(f):
    """The `order` stabilization probe over every ordered pair of class representatives."""
    reps = [(cls[0], f.presentation(cls[0])) for cls in f._classes]
    return [[a, b] for a, ga in reps for b, gb in reps
            if a != b and preceq(ga, gb, f.window) and not preceq(ga, gb, f.window + 1)]


def test_unstable_pairs_match_the_pairwise_definition(family6):
    """The `order` probe compares each class representative's W-window set
    with the others' as sets and reads (W + 1)-window sets only for pairs
    included at W.  It lists exactly the ordered pairs of representatives with
    preceq at W and not at W + 1, on seeded random families (some with a tall
    member) and on the corpus family, at every window from the tile set's
    largest constraint extent to N + 1."""
    rng = random.Random(2611)
    bases = [random_family(rng, range(-4, 5), 3, 3, tall=rng.choice((0, 0, 9)))[0] for _ in range(40)]
    unstable = stable = 0
    for base in [*bases, family6]:
        ts = base.tileset
        for window in range(max(ts.hextent, ts.vextent), base._n + 2):
            f = TilingFamily(ts, base.members, window, validate=False)
            pairs = _unstable_pairs(f)
            assert pairs == unfiltered_unstable_pairs(f), window
            unstable += len(pairs)
            stable += not pairs
        assert not _unstable_pairs(TilingFamily(ts, base.members, base._n, validate=False))
    assert unstable > 100 and stable > 40, (unstable, stable)


def test_order_filtered_work_matches_the_unfiltered_computation(monkeypatch):
    """Windows up to N x N of a class lie in every class above it, and every
    search bound is at most N: so the stabilization probe may skip ordered
    pairs and every window from N on, and isolation may skip non-maximal
    classes and subtract only the classes maximal but for the tested one.
    On seeded families at windows from 2 to N + 1, in every derivative round,
    the unstable pairs equal the unfiltered probe's (some with the second
    class under the first, which the probe must not skip), the ranks equal
    an unfiltered run's, and on the first 30 families so do the isolating
    patterns."""
    rng = random.Random(2510)
    unstable = reverse = skipped = rounds = 0
    for n in range(80):
        base, _ = random_family(rng, range(-3, 4), 3, 2)
        for window in range(2, base._n + 2):
            f = TilingFamily(base.tileset, base.members, window, validate=False)
            with monkeypatch.context() as m:
                m.setattr(cb, "_pinning_key", unfiltered_pinning_key)
                want = ranks(TilingFamily(base.tileset, base.members, window, validate=False))
            assert ranks(f) == want, window
            while f.names():
                pairs, order = _unstable_pairs(f), f._order
                assert pairs == unfiltered_unstable_pairs(f), window
                unstable += len(pairs)
                reverse += sum(order.index[a] in order.above[order.index[b]] for a, b in pairs)
                skipped += sum(map(bool, order.above))
                if n < 30:
                    got = [isolating_pattern(f, cls[0]) for cls in f._classes]
                    with monkeypatch.context() as m:
                        m.setattr(cb, "_pinning_key", unfiltered_pinning_key)
                        assert got == [isolating_pattern(f, cls[0]) for cls in f._classes], window
                rounds += 1
                rest = derivative(f)
                if len(rest.names()) == len(f.names()):
                    break
                f = rest
    assert reverse and unstable > reverse and skipped and rounds > 500, (unstable, reverse, skipped, rounds)
