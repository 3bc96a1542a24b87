"""Seeded differential tests of the grid searches on shapes that are not dominoes.

Every search over a tile set (admissible strips, transfer graphs, torus
counts, torus classes, the classify ladder) reads one table of constraint
windows; these tests check each of them against `oracle/brute.py` on random
tile sets with a 2 x 2 rule, a 3 x 1 rule (so that transfer-graph vertices
are two columns wide) and a 3 x 1 rule beside a vertical domino.  The torus
walks are also checked against a flat fill of the wrapped torus, and on tori
up to 6 wide against count_torus.
"""

import random
from itertools import product

import pytest

from oracle import brute
from tilelab.core import Alphabet, Pattern, TileSet, TorusTiling, Vec2
from tilelab.lang import _fill, build_transfer_graph, count_torus
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


CASES = [
    (kind, nstates, seed)
    for kind, counts in (("square", (2, 3)), ("row3", (2, 3)), ("row3+vdomino", (2, 3)))
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


def _orbit_size(block) -> int:
    """Number of distinct translates of a torus block, read cell by cell."""
    p, q = len(block), len(block[0])
    return len({
        tuple(tuple(block[(x + dx) % p][(y + dy) % q] for y in range(q)) for x in range(p))
        for dx in range(p) for dy in range(q)
    })


def test_enumerate_torus_orbits_count_every_block(case):
    """Wide tori, where the Lyndon-walk period bookkeeping has room to act.

    Every valid p x q block has exact periods (d, e) with d | p and e | q and
    is a translate of one d x e representative, so the representatives'
    orbit sizes add up to count_torus(ts, p, q).  An orbit has d * e members
    unless the block is fixed by a diagonal translation.
    """
    ts, _, _ = case
    got = enumerate_torus(ts, 6, 2)
    for t in got:
        assert t.canonical_key() == t.block
        assert (t.h_period(), t.v_period()) == (t.p, t.q)
    order = [(t.p, t.q, t.block) for t in got]
    assert order == sorted(order) and len(set(order)) == len(order)
    for p in range(1, 7):
        for q in range(1, 3):
            orbits = sum(_orbit_size(t.block) for t in got if p % t.p == 0 and q % t.q == 0)
            assert count_torus(ts, p, q) == orbits, (p, q)


def _filled_tori(ts: TileSet, p: int, q: int):
    """Every valid p x q torus block in lexicographic order, by a flat fill of
    the torus with both axes wrapped (the search enumerate_torus used before
    it walked the transfer graph)."""
    groups = [[] for _ in range(p * q)]
    for cells, keys in zip(ts.shape_cells, ts.allowed_keys):
        for ax in range(p):
            for ay in range(q):
                idxs = tuple((ax + c.x) % p * q + (ay + c.y) % q for c in cells)
                groups[max(idxs)].append((idxs, keys))
    for flat in _fill(len(ts.alphabet), p * q, groups):
        yield tuple(tuple(flat[x * q:(x + 1) * q]) for x in range(p))


def test_walks_match_the_filled_torus_path(case):
    ts, _, _ = case
    want = []
    for p in range(1, 4):
        for q in range(1, 4):
            for block in _filled_tori(ts, p, q):
                t = TorusTiling(p, q, block)
                if t.h_period() == p and t.v_period() == q and t.canonical_key() == block:
                    want.append(t)
    assert enumerate_torus(ts, 3, 3) == want
    res = classify(ts, 3)
    if isinstance(res, PeriodicFound):
        t = res.tiling
        assert t.block == next(_filled_tori(ts, t.p, t.q))


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
