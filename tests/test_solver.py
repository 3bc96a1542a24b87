import random
from itertools import product

import pytest

from oracle import brute
from conftest import CHECKER_H, CHECKER_V, STRIPES_H, STRIPES_V, raw_lcms
from tilelab.core import Alphabet, Pattern, TileSet, TorusTiling, Vec2, check_torus
from tilelab import solver
from tilelab.lang import build_transfer_graph
from tilelab.presentation import PeriodLattice, cell_at, is_valid, period_lattice
from tilelab.solver import (
    Empty,
    PeriodicFound,
    Unknown,
    classify,
    enumerate_torus,
    refute,
    weak_periodic_witness,
)

STRIPES_RULES = brute.pair_rules(STRIPES_H, STRIPES_V)
CHECKER_RULES = brute.pair_rules(CHECKER_H, CHECKER_V)


@pytest.fixture
def no_rows():
    # the horizontal shape allows nothing, so no 2-wide square exists
    al = Alphabet(("a", "b"))
    return TileSet(al, (frozenset({Vec2(0, 0), Vec2(1, 0)}),), (frozenset(),))


def test_refute(stripes, no_rows):
    assert not refute(stripes, 1)
    assert not refute(stripes, 3)
    assert not refute(no_rows, 1)
    assert refute(no_rows, 2)


def test_classify_empty(no_rows):
    res = classify(no_rows, 3)
    assert res == Empty(2)


def test_classify_periodic(stripes, checkerboard):
    res = classify(stripes, 1)
    assert isinstance(res, PeriodicFound)
    assert res.tiling == TorusTiling(1, 1, ((0,),))
    res = classify(checkerboard, 2)
    assert isinstance(res, PeriodicFound)
    assert res.tiling.p == 2 and res.tiling.q == 2
    assert check_torus(checkerboard, res.tiling)


def test_classify_unknown(checkerboard):
    # budget 1 cannot see the 2-periodic tiling and cannot refute either
    assert classify(checkerboard, 1) == Unknown(1)


def test_enumerate_torus_stripes(stripes):
    got = enumerate_torus(stripes, 4, 4)
    assert [t.block for t in got] == [((0,),), ((1,),), ((2,),), ((3,),)]
    assert all(t.p == 1 and t.q == 1 for t in got)
    oracle = brute.torus_classes(4, STRIPES_RULES, 4, 4)
    assert {brute.orbit_canonical(t.block) for t in got} == oracle


def test_enumerate_torus_checkerboard(checkerboard):
    got = enumerate_torus(checkerboard, 2, 2)
    assert len(got) == 1
    assert got[0].block == ((0, 1), (1, 0))
    oracle = brute.torus_classes(2, CHECKER_RULES, 2, 2)
    assert {brute.orbit_canonical(t.block) for t in got} == oracle


def test_enumerate_torus_periods_are_minimal(stripes, checkerboard):
    for ts, rules, nstates in ((stripes, STRIPES_RULES, 4), (checkerboard, CHECKER_RULES, 2)):
        got = enumerate_torus(ts, 3, 3)
        keys = [t.canonical_key() for t in got]
        assert len(set(keys)) == len(keys)
        for t in got:
            assert (t.h_period(), t.v_period()) == (t.p, t.q)
            assert check_torus(ts, t)
        assert {brute.orbit_canonical(t.block) for t in got} == brute.torus_classes(
            nstates, rules, 3, 3
        )


def test_weak_periodic_witness_stripes(stripes):
    g = weak_periodic_witness(stripes, 1)
    assert g is not None
    assert is_valid(g, stripes)
    lat = period_lattice(g)
    assert lat.rank == 1
    assert lat.generators == ((0, 1),)


@pytest.mark.parametrize("name, fake, msg", [
    ("is_valid", lambda g, ts: False, "invalid tiling"),
    ("period_lattice", lambda g: PeriodLattice(0, ()), "lost weak periodicity"),
])
def test_weak_periodic_witness_checks_raise(stripes, monkeypatch, name, fake, msg):
    # the checks on each constructed witness must hold under python -O too
    monkeypatch.setattr(solver, name, fake)
    with pytest.raises(RuntimeError, match=msg):
        weak_periodic_witness(stripes, 1)


def test_weak_periodic_witness_checkerboard(checkerboard):
    for q in range(1, 5):
        assert weak_periodic_witness(checkerboard, q) is None


def test_weak_periodic_witness_none_for_unrefutable_empty(no_rows):
    assert weak_periodic_witness(no_rows, 2) is None


# three states whose wrap graph at height 2 has just two cycles, the columns
# (a,a)(b,c) and (a,a)(c,b): vertical rotations of each other, and a path
# leads from the first to the second
SPLICE_H = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]
SPLICE_V = [(0, 0), (0, 1), (2, 1), (1, 2)]


def _rules_tileset(nstates, rules):
    al = Alphabet(tuple("abcd"[:nstates]))
    return TileSet.from_allowed(al, [
        Pattern(al, {Vec2(*o): s for o, s in zip(offsets, key)})
        for offsets, allowed in rules for key in allowed
    ])


def _check_witness(rules, g):
    """The brute checks of a weakly periodic witness: a tiling on a box past
    its cuts, lattice rank 1, its generator a period and the cross-axis
    block lcm not one."""
    fn = lambda x, y: cell_at(g, (x, y))
    lx, ly = raw_lcms(g)
    reach = max(map(abs, (*g.xcuts, *g.ycuts, 0))) + 2 * max(lx, ly) + 3
    assert brute.grid_ok(rules, brute.box_grid(fn, reach))
    assert brute.lattice_rank(fn, reach, 3) == 1
    (gen,) = period_lattice(g).generators
    assert brute.is_period(fn, gen, reach)
    assert not brute.is_period(fn, (lx, 0) if gen.x == 0 else (0, ly), reach)


def test_weak_periodic_witness_splices_vertical_rotations():
    rules = brute.pair_rules(SPLICE_H, SPLICE_V)
    ts = _rules_tileset(3, rules)
    assert brute.weak_periodic_exists(3, rules, 2)
    g = weak_periodic_witness(ts, 2)
    assert g is not None
    assert period_lattice(g).generators == ((0, 2),)
    _check_witness(rules, g)


SHAPES = {
    "square": ((0, 0), (1, 0), (0, 1), (1, 1)),
    "row3": ((0, 0), (1, 0), (2, 0)),
}


def _random_rules(rng, nstates, extra):
    """Random dominoes in both directions plus the named extra shapes; every
    shape allows each pattern with one probability, and at least one."""
    density = rng.choice((0.5, 0.6, 0.7, 0.8))
    out = []
    for offsets in (((0, 0), (1, 0)), ((0, 0), (0, 1)), *(SHAPES[e] for e in extra)):
        keys = list(product(range(nstates), repeat=len(offsets)))
        allowed = frozenset(k for k in keys if rng.random() < density) or frozenset([rng.choice(keys)])
        out.append((offsets, allowed))
    return tuple(out)


@pytest.mark.parametrize("extra", [(), ("square",), ("row3",)])
def test_weak_periodic_witness_matches_cylinder_referee(extra):
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        nstates = rng.choice((2, 3, 4))
        rules = _random_rules(rng, nstates, extra)
        q = rng.choice((1, 2, 3))
        g = weak_periodic_witness(_rules_tileset(nstates, rules), q)
        assert (g is not None) == brute.weak_periodic_exists(nstates, rules, q), seed
        if g is not None:
            _check_witness(rules, g)
        seen.add(g is not None)
    assert seen == {False, True}


def test_witness_layout_reads_the_walks():
    """Column x of the witness built from _two_cycles' walks c1, c2 and bridge
    path (m steps) is the first column of c1[x mod |c1|] for x <= 0, of
    path[x] for 0 <= x <= m and of c2[(x - m) mod |c2|] for x >= m."""
    seen = set()
    for extra, seed in product(((), ("row3",)), range(40)):
        rng = random.Random(f"layout/{seed}")
        nstates = rng.choice((2, 3, 4))
        ts = _rules_tileset(nstates, _random_rules(rng, nstates, extra))
        for q, oriented in product((1, 2, 3), (ts, ts.transpose())):
            g = build_transfer_graph(oriented, q, wrap=True)
            found = solver._two_cycles(g)
            if found is None:
                continue
            c1, c2, path = found
            m = len(path) - 1
            pres = solver._witness_presentation(oriented, g, c1, c2, path)
            first = lambda v: g.vertices[v][0]
            for x in range(-2 * len(c1), m + 2 * len(c2) + 1):
                column = tuple(cell_at(pres, (x, y)) for y in range(q))
                if x <= 0:
                    assert column == first(c1[x % len(c1)]), (extra, seed, q, x)
                if 0 <= x <= m:
                    assert column == first(path[x]), (extra, seed, q, x)
                if x >= m:
                    assert column == first(c2[(x - m) % len(c2)]), (extra, seed, q, x)
            seen.add((m == 0, g.cols))
    # a witness with no inner bridge, one with a bridge, and a row3 set's 2-column vertices
    assert {(True, 1), (False, 1), (False, 2)} <= seen
