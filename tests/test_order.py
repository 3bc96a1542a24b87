import random

import pytest

from oracle import brute
from conftest import corpus_planes, make_a, order_reads
from test_cb import random_family
from tilelab.core import Alphabet, Pattern, TileSet
from tilelab.order import (
    TilingFamily,
    _Preorder,
    equivalence_classes,
    hasse,
    level_of,
    maximal_classes,
    minimal_classes,
    preceq,
    saturation_window,
)
from tilelab.presentation import Block, GridPresentation, _Analysis, is_valid, shift, uniform

PLANES = corpus_planes()


@pytest.fixture(scope="module")
def oracle_order():
    fns = {n: f for n, (f, _, _) in PLANES.items()}
    sats = {n: max(xs, ys) + 3 for n, (_, xs, ys) in PLANES.items()}
    windows = {n: max(6, s) for n, s in sats.items()}
    le = brute.le_matrix(fns, windows, 16)
    return brute.strict_from(le), sorted(fns)


def test_preceq_examples(members):
    assert preceq(members["mono_green"], members["b1"], 3)
    assert preceq(members["b1"], members["a1"], 3)
    assert not preceq(members["a1"], members["b1"], 3)
    assert not preceq(members["red_green"], members["red_white"], 1)
    with pytest.raises(ValueError):
        preceq(members["a1"], members["a2"], 0)


def test_preceq_is_window_inclusion(members):
    from tilelab.presentation import rect_window_keys

    for a, b in [("b2", "a2"), ("a2", "b2"), ("mono_white", "green_over_white")]:
        for n in (2, 4):
            want = rect_window_keys(members[a], n, n) <= rect_window_keys(members[b], n, n)
            assert preceq(members[a], members[b], n) == want


def test_saturation_window(members):
    assert saturation_window(members["a1"]) == 4
    assert saturation_window(members["a6"]) == 9
    assert saturation_window(members["mono_red"]) == 3
    assert saturation_window(uniform(members["a1"].alphabet, 0)) == 3


def test_family_validation(stripes, members):
    with pytest.raises(ValueError):
        TilingFamily(stripes, [("x", members["a1"]), ("x", members["a2"])], 6)
    with pytest.raises(ValueError):
        TilingFamily(stripes, [("a1", members["a1"])], 1)  # window below extent
    bad = shift(members["a1"], (0, 1))  # valid; fine
    TilingFamily(stripes, [("ok", bad)], 2)
    from tilelab.presentation import GridPresentation, Block

    invalid = GridPresentation(stripes.alphabet, (), (0,),
                               ((Block.filled(1, 1, 1), Block.filled(1, 1, 2)),))
    with pytest.raises(ValueError):
        TilingFamily(stripes, [("bad", invalid)], 6)
    TilingFamily(stripes, [("bad", invalid)], 6, validate=False)


def test_alphabet_mismatch_comes_before_validity(stripes):
    """Every member's alphabet is checked before any member's validity, so an
    invalid member followed by one over another alphabet reports the mismatch."""
    invalid = GridPresentation(stripes.alphabet, (), (0,), ((Block.filled(1, 1, 1), Block.filled(1, 1, 2)),))
    other = uniform(Alphabet(("x", "y")), 0)
    with pytest.raises(ValueError, match="^member bad is not a tiling of the tile set$"):
        TilingFamily(stripes, [("bad", invalid)], 6)
    with pytest.raises(ValueError, match="^member other: alphabet mismatch$"):
        TilingFamily(stripes, [("bad", invalid), ("other", other)], 6)


def test_family_validation_checks_parts_once(stripes, members, monkeypatch):
    """A family reads one extent window set per member and runs the part
    check once, on their union; a family built unvalidated, as derivative
    rounds build theirs, reads no extent set."""
    from tilelab import presentation
    from tilelab.cb import derivative

    checks, reads = [], []
    real_check, real_keys = presentation._parts_allowed, _Analysis.rect_keys
    monkeypatch.setattr(presentation, "_parts_allowed", lambda keys, ts: checks.append(keys) or real_check(keys, ts))
    monkeypatch.setattr(_Analysis, "rect_keys", lambda a, w, h: reads.append((a, w, h)) or real_keys(a, w, h))
    extent = (stripes.hextent, stripes.vextent)
    f = TilingFamily(stripes, sorted(members.items()), 6)
    assert len(checks) == 1
    assert checks[0] == frozenset().union(*(real_keys(p._index, *extent) for _, p in f.members))
    assert reads == [(p._index, *extent) for _, p in f.members]
    checks.clear(), reads.clear()
    TilingFamily(stripes, sorted(members.items()), 6, validate=False)
    derivative(derivative(f))
    assert not checks
    assert reads and all((w, h) != extent for _, w, h in reads)


DOMINOES = (((0, 0), (1, 0)), ((0, 0), (0, 1)))


def _validity_draw(rng):
    """(members, per-member oracle box grids, domino constraints): 1-6 planes
    drawn from the seeded generators over one 2- or 3-state alphabet, each
    grid at a reach where every domino content of its plane shows, and rules
    that allow the dominoes the members show less 0-2 of those the fewest
    members show.  Members come in shuffled order, named against it."""
    from test_presentation import BAND_NEAR, REACH, banded_plane, local_plane, random_plane

    k, n, planes = rng.randint(2, 3), rng.randint(1, 6), []
    while len(planes) < n:
        g, fn, *local = rng.choice((random_plane, banded_plane, local_plane))(rng)
        if len(g.alphabet) == k:
            reach = max(abs(c) for axis in local[0] for c in axis) + local[1] + 4 if local else max(REACH, BAND_NEAR)
            planes.append((g, brute.box_grid(fn, reach)))
    shows = [{(offsets, tuple(grid[x + dx][y + dy] for dx, dy in offsets)) for offsets in DOMINOES
              for x in range(len(grid) - 1) for y in range(len(grid) - 1)} for _, grid in planes]
    # most planes show nearly every domino, so only the rarest drops spare some members
    shown = sorted(set().union(*shows), key=lambda d: (sum(d in s for s in shows), rng.random()))
    allowed = set(shown[rng.randint(0, 2):])
    for offsets in DOMINOES:  # every shape keeps a pattern
        if not any(o == offsets for o, _ in allowed):
            allowed.add(next(d for d in shown if d[0] == offsets))
    constraints = [(offsets, frozenset(c for o, c in allowed if o == offsets)) for offsets in DOMINOES]
    rng.shuffle(planes)  # so the first invalid member is not the one drawn first
    names = [f"m{n - i}" for i in range(n)]  # family order is not name order
    return list(zip(names, (g for g, _ in planes))), [grid for _, grid in planes], constraints


def test_family_names_its_first_invalid_member_as_the_oracle_does():
    """Seeded families of generated planes under domino rules with shown
    pairs dropped: the family names exactly the first member the oracle finds
    invalid, in family order, or builds when there is none."""
    invalids = []
    for seed in range(60):
        members, grids, constraints = _validity_draw(random.Random(f"family-validity/{seed}"))
        al = members[0][1].alphabet
        ts = TileSet.from_allowed(al, [Pattern(al, dict(zip(offsets, combo)))
                                       for offsets, allowed in constraints for combo in allowed])
        bad = [i for i, grid in enumerate(grids) if not brute.grid_ok(constraints, grid)]
        assert [i for i, (_, g) in enumerate(members) if not is_valid(g, ts)] == bad, seed
        if bad:
            with pytest.raises(ValueError, match=f"^member {members[bad[0]][0]} is not a tiling of the tile set$"):
                TilingFamily(ts, members, 2)
        else:
            assert TilingFamily(ts, members, 2).members == tuple(members)
        invalids.append(bad)
    assert [] in invalids and any(len(bad) >= 2 and bad[0] > 0 for bad in invalids), invalids


def test_comparisons_use_saturated_windows(family6):
    # raw inclusion at the family window would wrongly nest the two largest
    # members, so the family must compare at the saturation size instead
    assert preceq(family6.presentation("a5"), family6.presentation("a6"), 6)
    assert not family6.le("a5", "a6")
    assert family6.compare_window("a5", "a6") == 9


def test_one_comparison_window_per_family(stripes, members, monkeypatch):
    from tilelab.cb import derivative

    reads = order_reads(monkeypatch)
    f = TilingFamily(stripes, sorted(members.items()), 6)
    d = derivative(f)
    hasse(d)
    level_of(d, "b1")
    hasse(f)
    level_of(f, "a4")
    d2 = derivative(d)
    hasse(d2)
    level_of(d2, d2.names()[0])
    assert {fam for fam, _, _ in reads} == {f, d, d2}
    assert {(w, h) for _, w, h in reads} == {(9, 9)}
    # the second derivative keeps no member whose saturation size is 9,
    # yet it still reads at its ancestors' size, where their sets are built
    assert max(saturation_window(d2.presentation(n)) for n in d2.names()) < 9
    for sub in (d, d2):
        for a in sub.names():
            for b in sub.names():
                assert sub.compare_window(a, b) == f.compare_window(a, b) == 9


def test_family_queries_make_no_pairwise_comparison(stripes, members, monkeypatch):
    """Classes, diagram, extremes and levels are read off the members'
    window sets: a fresh corpus family calls preceq for none of them."""
    import tilelab.order

    calls = []
    monkeypatch.setattr(tilelab.order, "preceq", lambda *args: calls.append(args))
    f = TilingFamily(stripes, sorted(members.items()), 6)
    assert len(equivalence_classes(f)) == 23
    assert not calls
    hasse(f), minimal_classes(f), maximal_classes(f)
    assert max(level_of(f, n) for n in f.names()) == 2
    assert not calls


def test_classes_are_singletons(family6):
    cls = equivalence_classes(family6)
    assert len(cls) == 23
    assert all(len(c) == 1 for c in cls)


def test_shifted_member_joins_class(stripes, members):
    f = TilingFamily(
        stripes,
        [("a2", members["a2"]), ("a2_shifted", shift(members["a2"], (4, 7))),
         ("b2", members["b2"])],
        6,
    )
    cls = equivalence_classes(f)
    assert ("a2", "a2_shifted") in cls


def test_strict_relation_matches_oracle(family6, oracle_order):
    strict, names = oracle_order
    for a in names:
        for b in names:
            if a != b:
                assert family6.lt(a, b) == ((a, b) in strict), (a, b)


def test_minimal_maximal(family6, oracle_order):
    strict, names = oracle_order
    assert sorted(c[0] for c in minimal_classes(family6)) == brute.order_minimal(names, strict)
    assert sorted(c[0] for c in maximal_classes(family6)) == brute.order_maximal(names, strict)
    assert sorted(c[0] for c in minimal_classes(family6)) == [
        "mono_black", "mono_green", "mono_red", "mono_white"]


def test_hasse_covers_match_oracle(family6, oracle_order):
    strict, names = oracle_order
    h = hasse(family6)
    got = sorted((h.classes[i][0], h.classes[j][0]) for i, j in h.covers)
    assert got == brute.order_covers(names, strict)


def test_hasse_preserves_reachability(family6):
    h = hasse(family6)
    reach = {i: {i} for i in range(len(h.classes))}
    for _ in range(len(h.classes)):
        for i, j in h.covers:
            reach[i] |= reach[j] | {j}
    idx = {c[0]: i for i, c in enumerate(h.classes)}
    for a in family6.names():
        for b in family6.names():
            if a != b:
                assert family6.lt(a, b) == (idx[b] in reach[idx[a]] - {idx[a]}), (a, b)


def test_levels(family6, oracle_order):
    strict, names = oracle_order
    levels = brute.order_levels(names, strict)
    for name in names:
        assert level_of(family6, name) == levels[name], name
    assert level_of(family6, "b1") == 1
    assert level_of(family6, "mono_green") == 0
    assert max(levels.values()) == 2  # longest strict chain has three classes


def test_unknown_name_raises(family6):
    with pytest.raises(KeyError):
        level_of(family6, "nope")


def _oracle_classes(names, le):
    """Mutual-inclusion classes in first-appearance order, members in family order."""
    classes = {tuple(b for b in names if le[(a, b)] and le[(b, a)]) for a in names}
    return sorted(classes, key=lambda cls: names.index(cls[0]))


def _check_against_oracle(f, le):
    names = list(f.names())
    le = {(a, b): le[(a, b)] for a in names for b in names}
    strict = brute.strict_from(le)
    assert list(equivalence_classes(f)) == _oracle_classes(names, le)
    h = hasse(f)
    got = sorted((a, b) for i, j in h.covers for a in h.classes[i] for b in h.classes[j])
    assert got == brute.order_covers(names, strict)
    assert sorted(n for c in minimal_classes(f) for n in c) == brute.order_minimal(names, strict)
    assert sorted(n for c in maximal_classes(f) for n in c) == brute.order_maximal(names, strict)
    assert {n: level_of(f, n) for n in names} == brute.order_levels(names, strict)


def test_preorder_matches_oracle_on_random_subfamilies(family6):
    from tilelab.cb import derivative

    fns = {n: fn for n, (fn, _, _) in PLANES.items()}
    windows = {n: max(6, max(xs, ys) + 3) for n, (_, xs, ys) in PLANES.items()}
    base = brute.le_matrix(fns, windows, 16)
    rng = random.Random(20080)
    for _ in range(6):
        picked = rng.sample(family6.names(), rng.randint(5, 14))
        # a translate has the same window language, so the oracle reads the
        # copy through its original's row and column
        twin = picked[0]
        members = [(n, family6.presentation(n)) for n in picked[1:]]
        copy = shift(family6.presentation(twin), (2, -1))
        for member in ((twin, family6.presentation(twin)), (twin + "_shifted", copy)):
            members.insert(rng.randrange(len(members) + 1), member)
        orig = {n: n.removesuffix("_shifted") for n, _ in members}
        le = {(a, b): base[(orig[a], orig[b])] for a in orig for b in orig}
        f = TilingFamily(family6.tileset, members, 6)
        _check_against_oracle(f, le)
        d = derivative(f)
        fresh = TilingFamily(d.tileset, d.members, d.window, validate=False)
        assert equivalence_classes(d) == equivalence_classes(fresh)
        assert hasse(d) == hasse(fresh)
        assert [level_of(d, n) for n in d.names()] == [level_of(fresh, n) for n in fresh.names()]
        _check_against_oracle(d, le)


def test_levels_of_a_long_chain():
    """A 260-class chain, class i strictly above class j when i < j: levels
    are read without recursion, so the depth of the chain is no limit."""

    class Chain:
        _classes = tuple((i,) for i in range(260))

        @staticmethod
        def _windows(i):
            return frozenset(range(260 - i))

    assert _Preorder(Chain()).levels == list(range(259, -1, -1))


def test_preorder_matches_pairwise_comparison_on_random_families():
    """Random banded families, with shifted twins so that classes have
    several members, and their derivatives: classes, covers, extremes and
    levels equal those read from preceq at N for every ordered pair."""
    from tilelab.cb import derivative

    rng = random.Random(2024)
    shared = strict = deep = 0
    for _ in range(60):
        f, _ = random_family(rng, range(-3, 4), 3, 2)
        members = list(f.members)
        for name, pres in rng.sample(f.members, rng.randint(1, len(members))):
            twin = (name + "_shifted", shift(pres, (rng.randint(-5, 5), rng.randint(-5, 5))))
            members.insert(rng.randrange(len(members) + 1), twin)
        f = TilingFamily(f.tileset, members, f.window)
        while f.names():
            pres = f.presentation
            _check_against_oracle(f, {(a, b): preceq(pres(a), pres(b), f._n)
                                      for a in f.names() for b in f.names()})
            shared += any(len(c) > 1 for c in equivalence_classes(f))
            top = max(level_of(f, name) for name in f.names())
            strict, deep = strict + (top >= 1), deep + (top >= 2)
            rest = derivative(f)
            if len(rest.names()) == len(f.names()):
                break
            f = rest
    assert shared >= 40 and strict >= 20 and deep
