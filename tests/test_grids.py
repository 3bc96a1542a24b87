"""Seeded differential tests of the grid searches on shapes that are not dominoes.

Every search over a tile set (admissible strips, transfer graphs, torus
counts, torus classes, the classify ladder) reads one table of constraint
windows; these tests check each of them against `oracle/brute.py` on random
tile sets with a 2 x 2 rule, a 3 x 1 rule (so that transfer-graph vertices
are two columns wide) and a 3 x 1 rule beside a vertical domino.
"""

import random
from itertools import product

import pytest

from oracle import brute
from tilelab.core import Alphabet, Pattern, TileSet, TorusTiling, Vec2
from tilelab.lang import build_transfer_graph, count_torus
from tilelab.solver import Empty, PeriodicFound, Unknown, classify, enumerate_torus

SQUARE = frozenset(Vec2(x, y) for x in range(2) for y in range(2))
ROW3 = frozenset(Vec2(x, 0) for x in range(3))
VDOMINO = frozenset((Vec2(0, 0), Vec2(0, 1)))
KINDS = {"square": (SQUARE,), "row3": (ROW3,), "row3+vdomino": (ROW3, VDOMINO)}


def _random_tileset(rng: random.Random, nstates: int, shapes) -> TileSet:
    """Each state tuple of each shape allowed with probability 0.6 (at least one)."""
    al = Alphabet(tuple("abc"[:nstates]))
    allowed = []
    for shape in shapes:
        cells = sorted(shape)
        combos = list(product(range(nstates), repeat=len(cells)))
        keep = [c for c in combos if rng.random() < 0.6] or [rng.choice(combos)]
        allowed.append(frozenset(Pattern(al, dict(zip(cells, c))) for c in keep))
    return TileSet(al, tuple(shapes), tuple(allowed))


def _constraints(ts: TileSet):
    """The tile set as the oracle's (offsets, allowed) constraint list."""
    return tuple(
        (tuple((c.x, c.y) for c in cells), keys)
        for cells, keys in zip(ts.shape_cells, ts.allowed_keys)
    )


# A lone 3 x 1 rule over 3 states is left out: its height-3 wrap graph has up
# to 729 vertices, and count_torus's dense matrix power then runs past 30 s.
CASES = [
    (kind, nstates, seed)
    for kind, counts in (("square", (2, 3)), ("row3", (2,)), ("row3+vdomino", (2, 3)))
    for nstates in counts
    for seed in range(4 if nstates == 2 else 2)
]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-k{c[1]}-s{c[2]}")
def case(request):
    kind, nstates, seed = request.param
    ts = _random_tileset(random.Random(f"{kind}/{nstates}/{seed}"), nstates, KINDS[kind])
    return ts, nstates, _constraints(ts)


def test_open_transfer_graph_matches_oracle_strips(case):
    ts, k, cons = case
    for q in range(1, 4):
        g = build_transfer_graph(ts, q, wrap=False)
        assert g.cols == max(ts.hextent - 1, 1)
        want_vertices = sorted(brute.squares_rect(k, cons, g.cols, q))
        assert g.vertices == tuple(want_vertices)
        index = {v: i for i, v in enumerate(want_vertices)}
        strips = brute.squares_rect(k, cons, g.cols + 1, q)
        assert g.edges == tuple(sorted((index[m[:-1]], index[m[1:]]) for m in strips))


def test_count_torus_matches_oracle(case):
    ts, k, cons = case
    for p in range(1, 4):
        for q in range(1, 4):
            assert count_torus(ts, p, q) == len(brute.wrapped_grids(k, cons, p, q)), (p, q)


def test_enumerate_torus_matches_oracle(case):
    ts, k, cons = case
    got = enumerate_torus(ts, 3, 3)
    assert {t.block for t in got} == brute.torus_classes(k, cons, 3, 3)
    assert all(t.canonical_key() == t.block for t in got)
    order = [(t.p, t.q, t.block) for t in got]
    assert order == sorted(order) and len(set(order)) == len(order)


def test_classify_matches_oracle(case):
    ts, k, cons = case
    budget = 3
    res = classify(ts, budget)
    empty = next((n for n in range(1, budget + 1) if not brute.squares_rect(k, cons, n, n)), None)
    if empty is not None:
        assert res == Empty(empty)
        return
    sizes = sorted(product(range(1, budget + 1), repeat=2), key=lambda s: (max(s), s))
    for p, q in sizes:
        grids = brute.wrapped_grids(k, cons, p, q)
        if grids:
            assert isinstance(res, PeriodicFound)
            assert res.tiling == TorusTiling(p, q, min(grids))
            return
    assert res == Unknown(budget)


def test_translate_key_reads_the_torus_from_an_offset():
    rng = random.Random(11)
    for _ in range(30):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        t = TorusTiling(p, q, tuple(tuple(rng.randrange(3) for _ in range(q)) for _ in range(p)))
        for dx in range(-p, 2 * p):
            for dy in range(-q, 2 * q):
                key = t.translate_key(dx, dy)
                assert len(key) == p and all(len(col) == q for col in key)
                assert all(key[x][y] == t.state_at(x + dx, y + dy) for x in range(p) for y in range(q))
        assert t.canonical_key() == brute.orbit_canonical(t.block)
