"""Seeded differential tests of the grid searches on shapes that are not dominoes.

Every search over a tile set (admissible strips, transfer graphs, torus
counts, torus classes, the classify ladder) reads one table of constraint
windows; these tests check each of them against `oracle/brute.py` on random
tile sets with a 2 x 2 rule, a 3 x 1 rule (so that transfer-graph vertices
are two columns wide) and a 3 x 1 rule beside a vertical domino.  The torus
walks are also checked against a flat fill of the wrapped torus, and on tori
up to 6 wide against count_torus.  Admissible and extensible squares, and
the patterns built without per-cell checks, are checked on domino sets with
and without an extra 2 x 2 or 3 x 1 rule, and so is the square count read
off walks on the open transfer graph.  The one walk counter behind both
counts is checked against the sparse matrix power and product it replaced,
restated here as the referee, to walks 10 long.  The fill that keeps a
prefix of each completion is checked against the full fill, and the one
center-first fill of extensible squares against the per-square search it
replaced, which is restated here as the referee.  The pruned Lyndon-walk
search is checked on random graphs against every closed walk.  The vertical rotation
of a wrap graph is checked to be a graph automorphism, and the torus search
that prunes with it against the block-tuple filter it replaced; a logged run
of the search's leaf test shows that these referees reach each of its branches.
"""

import random
from itertools import product

import pytest

from oracle import brute
from tilelab.cli import parse_tileset
from tilelab.core import Alphabet, Pattern, TileSet, TorusTiling, Vec2, to_forbidden
from tilelab.lang import (
    TransferGraph,
    _anchor_checks,
    _fill,
    _getter,
    _grids,
    _square_count,
    admissible_squares,
    build_transfer_graph,
    count_torus,
    extensible_squares,
)
from tilelab import solver
from tilelab.solver import Empty, PeriodicFound, Unknown, _lyndon_walks, _vertical_rotation, classify, enumerate_torus

SQUARE = frozenset(Vec2(x, y) for x in range(2) for y in range(2))
ROW3 = frozenset(Vec2(x, 0) for x in range(3))
VDOMINO = frozenset((Vec2(0, 0), Vec2(0, 1)))
KINDS = {"square": (SQUARE,), "row3": (ROW3,), "row3+vdomino": (ROW3, VDOMINO)}


def _random_tileset(rng: random.Random, nstates: int, shapes, density: float = 0.6) -> TileSet:
    """Each state tuple of each shape allowed with probability density (at least one)."""
    al = Alphabet(tuple("abc"[:nstates]))
    allowed = []
    for shape in shapes:
        cells = sorted(shape)
        combos = list(product(range(nstates), repeat=len(cells)))
        keep = [c for c in combos if rng.random() < density] or [rng.choice(combos)]
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


def _case_id(c) -> str:
    return c if isinstance(c, str) else f"{c[0]}-k{c[1]}-s{c[2]}"


def _case_tileset(kind: str, nstates: int, seed: int) -> TileSet:
    return _random_tileset(random.Random(f"{kind}/{nstates}/{seed}"), nstates, KINDS[kind])


@pytest.fixture(params=CASES, ids=_case_id)
def case(request):
    kind, nstates, seed = request.param
    ts = _case_tileset(kind, nstates, seed)
    return ts, nstates, _constraints(ts)


@pytest.fixture(params=[*CASES, "stripes", "checkerboard"], ids=_case_id)
def case_or_corpus(request):
    """A `case` tile set, or a corpus one read through its conftest fixture."""
    if isinstance(request.param, str):
        return request.getfixturevalue(request.param)
    return _case_tileset(*request.param)


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


def test_wrap_transfer_graph_matches_oracle_strips(case_or_corpus):
    """q 1-4, leaving out the two 3-state row-of-3 sets at q 4, where the
    oracle would recheck some 500,000 three-column cylinder strips."""
    ts = case_or_corpus
    k, cons = len(ts.alphabet), _constraints(ts)
    for q in range(1, 5):
        g = build_transfer_graph(ts, q, wrap=True)
        if k ** ((g.cols + 1) * q) > 10**5:
            continue
        want_vertices = sorted(brute.cylinder_strips(k, cons, g.cols, q))
        assert g.vertices == tuple(want_vertices)
        index = {v: i for i, v in enumerate(want_vertices)}
        strips = brute.cylinder_strips(k, cons, g.cols + 1, q)
        assert g.edges == tuple(sorted((index[m[:-1]], index[m[1:]]) for m in strips))


DIAGONAL = frozenset((Vec2(0, 0), Vec2(1, 1)))
KNIGHT = frozenset((Vec2(0, 0), Vec2(2, 1)))
COLUMN3 = frozenset(Vec2(0, y) for y in range(3))
JOIN_KINDS = (
    (frozenset((Vec2(0, 0), Vec2(1, 0))), VDOMINO), (SQUARE,), (ROW3,), (ROW3, VDOMINO),
    (DIAGONAL,), (KNIGHT,), (COLUMN3,), (COLUMN3, frozenset((Vec2(0, 0), Vec2(1, 0)))),
)


def _strip_fill_graph(ts: TileSet, q: int, wrap: bool):
    """The edge build the join replaced: one (cols + 1)-wide strip fill, each valid strip m an edge m[:-1] -> m[1:]."""
    cols = max(ts.hextent - 1, 1)
    vertices = tuple(_grids(ts, cols, q, wrap))
    index = {v: i for i, v in enumerate(vertices)}
    return vertices, tuple((index[m[:-1]], index[m[1:]]) for m in _grids(ts, cols + 1, q, wrap))


def test_edge_join_matches_the_strip_fill():
    """Vertex and edge tuples, order included, on 504 seeded sets at q 1-4,
    open and wrap, over every kind of JOIN_KINDS (the column of 3 is taller
    than q at q 1 and 2), with three states at q 1 and 2 only.  Each kind
    but the lone column of 3 (where every vertex pair is an edge) yields some
    graph that has edges and lacks others."""
    partial = set()
    for seed in range(504):
        rng = random.Random(f"join/{seed}")
        shapes = JOIN_KINDS[seed % len(JOIN_KINDS)]
        nstates = 3 if seed % 5 == 0 else 2
        ts = _random_tileset(rng, nstates, shapes, density=rng.uniform(0.3, 0.9))
        for q in range(1, 5 if nstates == 2 else 3):
            for wrap in (False, True):
                g = build_transfer_graph(ts, q, wrap)
                assert (g.vertices, g.edges) == _strip_fill_graph(ts, q, wrap), (seed, q, wrap)
                if 0 < len(g.edges) < len(g.vertices) ** 2:
                    partial.add(shapes)
    assert partial == set(JOIN_KINDS) - {(COLUMN3,)}


@pytest.mark.parametrize("wrap_y", [False, True], ids=["open", "wrap"])
def test_fill_keeps_each_completable_prefix_once_in_order(case, wrap_y):
    """_fill with keep yields exactly the sorted distinct keep-prefixes of
    the full fill, on a 3 x 3 grid, in index order and with the middle row
    filled first (whose full fill is the index-order one read in fill order)."""
    ts, k, _ = case
    size, first = 9, (4, 1, 7)
    full = list(_fill(k, size, _anchor_checks(ts, 3, 3, wrap_y)))
    order = [*first, *(c for c in range(size) if c not in first)]
    for cells_first, grids in (((), full), (first, sorted([cells[c] for c in order] for cells in full))):
        groups = _anchor_checks(ts, 3, 3, wrap_y, first=cells_first)
        assert list(_fill(k, size, groups)) == grids
        for keep in (1, size // 2, size):
            want = sorted({tuple(cells[:keep]) for cells in grids})
            assert [tuple(c) for c in _fill(k, size, groups, keep)] == want, keep


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
                groups[max(idxs)].append((_getter(idxs), keys))
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


def test_vertical_rotation_is_an_automorphism_of_every_wrap_graph(case_or_corpus):
    """sigma sends each vertex to the one with every column rotated by one
    row, permutes the vertices, maps the edge set onto itself, and has
    order dividing the height.  Row3 sets have two-column vertices."""
    for q in range(1, 5):
        g = build_transfer_graph(case_or_corpus, q, wrap=True)
        sigma = _vertical_rotation(g)
        n = len(g.vertices)
        assert sorted(sigma) == list(range(n)), q
        assert [g.vertices[i] for i in sigma] == [tuple(c[1:] + c[:1] for c in v) for v in g.vertices], q
        assert sorted((sigma[a], sigma[b]) for a, b in g.edges) == list(g.edges), q
        power = list(range(n))
        for _ in range(q):
            power = [sigma[v] for v in power]
        assert power == list(range(n)), q


def _least_of_vertical_rotations(block: tuple, q: int) -> bool:
    """The block-tuple orbit filter enumerate_torus applied to every Lyndon
    walk before it filtered on vertex ids: no vertical rotation by 1..q-1
    fixes the block or has a smaller horizontal rotation."""
    for dy in range(1, q):
        r = tuple(col[dy:] + col[:dy] for col in block)
        if r == block or any(r[dx:] + r[:dx] < block for dx in range(len(r)) if r[dx] <= block[0]):
            return False
    return True


def test_pruned_torus_search_keeps_what_the_block_filter_keeps(case_or_corpus):
    """Every Lyndon walk, read off the flat torus fill as a block strictly
    least among its horizontal rotations, goes through the block-tuple filter.
    The pruned search must keep exactly those blocks, in the same order, at
    every (p, q) up to (4, 4): pruning drops no orbit representative."""
    ts = case_or_corpus
    want = [
        TorusTiling(p, q, block)
        for p in range(1, 5)
        for q in range(1, 5)
        for block in _filled_tori(ts, p, q)
        if all(block < block[i:] + block[:i] for i in range(1, p)) and _least_of_vertical_rotations(block, q)
    ]
    assert enumerate_torus(ts, 4, 4) == want


def test_leaf_test_reaches_each_branch(monkeypatch):
    """The walk search compares a full walk only under the sigma^dy whose
    preimage of r = walk[0] lies on it, and only at the rotations that start
    at r.  Logged over the `case` sets at 2 <= p, q <= 4, each leaf test
    agrees with the full orbit test, every rotation of sigma^dy(walk) lies
    above the walk for each skipped sigma^dy, and the draws hold a walk
    rejected because some sigma^dy fixes it or maps it below, one rejected
    only by a rotation that starts at r at a position i >= 1, and a skipped
    sigma^dy."""
    leaf, calls = solver._orbit_least, []
    monkeypatch.setattr(solver, "_orbit_least", lambda walk, pre: calls.append(tuple(walk)) or leaf(walk, pre))
    seen = set()
    for params in CASES:
        ts = _case_tileset(*params)
        for q in range(2, 5):
            g = build_transfer_graph(ts, q, wrap=True)
            rots = [_vertical_rotation(g)]
            while len(rots) < q - 1:
                rots.append([rots[0][v] for v in rots[-1]])
            inverses = [sorted(range(len(s)), key=s.__getitem__) for s in rots]
            succ, pred = _masks(len(g.vertices), g.edges)
            for p in range(2, 5):
                calls.clear()
                kept = set(_lyndon_walks(succ, pred, rots, p))
                for walk in calls:
                    r, images = walk[0], [tuple(s[v] for v in walk) for s in rots]
                    fixed_or_below = any(m <= walk for m in images)
                    lower = [(m, i) for m in images for i in range(1, p) if m[i:] + m[:i] < walk]
                    assert (walk in kept) == (not fixed_or_below and not lower), (params, p, q, walk)
                    assert all(m[i] == r for m, i in lower), (params, p, q, walk)
                    if fixed_or_below:
                        seen.add("fixed or below")
                    elif lower:
                        seen.add("rotation at i >= 1")
                    for inverse, m in zip(inverses, images):
                        if inverse[r] not in walk:
                            assert min(m[i:] + m[:i] for i in range(p)) > walk, (params, p, q, walk)
                            seen.add("skipped")
    assert seen == {"fixed or below", "rotation at i >= 1", "skipped"}


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


# ------------------------------------------------ squares, margins, patterns

HDOMINO = frozenset((Vec2(0, 0), Vec2(1, 0)))
EXTRA = {"pairs": (), "pairs+square": (SQUARE,), "pairs+row3": (ROW3,)}
SQUARE_CASES = [
    (extra, nstates, seed)
    for extra in EXTRA
    for nstates in (2, 3)
    for seed in range(3 if nstates == 2 else 1)
]


def _pair_case(extra: str, nstates: int, seed: int):
    rng = random.Random(f"squares/{extra}/{nstates}/{seed}")
    ts = _random_tileset(rng, nstates, (HDOMINO, VDOMINO) + EXTRA[extra], density=0.8)
    return ts, _constraints(ts)


def _grid(p: Pattern, w: int, h: int):
    return tuple(tuple(p.cells[Vec2(x, y)] for y in range(h)) for x in range(w))


@pytest.mark.parametrize("extra,nstates,seed", SQUARE_CASES)
def test_admissible_squares_match_oracle_in_order(extra, nstates, seed):
    ts, cons = _pair_case(extra, nstates, seed)
    for n in (1, 2, 3):
        got = [_grid(p, n, n) for p in admissible_squares(ts, n)]
        assert got == brute.squares_rect(nstates, cons, n, n), n


@pytest.mark.parametrize("extra,nstates,seed", [c for c in SQUARE_CASES if c[1] == 2])
def test_extensible_squares_match_brute_completions(extra, nstates, seed):
    """A 2-square extends at margin 1 when it is the centre of a valid
    4-square."""
    ts, cons = _pair_case(extra, nstates, seed)
    centres = {tuple(col[1:3] for col in g[1:3]) for g in brute.squares_rect(nstates, cons, 4, 4)}
    want = [g for g in brute.squares_rect(nstates, cons, 2, 2) if g in centres]
    assert [_grid(p, 2, 2) for p in extensible_squares(ts, 2, 1)] == want


def _pinned_extensible_squares(ts: TileSet, n: int, margin: int) -> list[Pattern]:
    """The per-square search extensible_squares ran before its one
    center-first fill: each admissible n-square gets its own fill of the
    (n + 2*margin)-square, with every center cell pinned by a one-cell
    window checked before the others."""
    big = n + 2 * margin
    groups = _anchor_checks(ts, big, big)
    out = []
    for p in admissible_squares(ts, n):
        pinned = groups[:]
        for c, s in p.cells.items():
            j = (margin + c.x) * big + (margin + c.y)
            pinned[j] = [(_getter((j,)), {(s,)}), *groups[j]]
        if next(_fill(len(ts.alphabet), big * big, pinned), None) is not None:
            out.append(p)
    return out


@pytest.fixture(params=[*SQUARE_CASES, "stripes", "checkerboard"], ids=_case_id)
def square_case_or_corpus(request):
    if isinstance(request.param, str):
        return request.getfixturevalue(request.param)
    return _pair_case(*request.param)[0]


@pytest.mark.parametrize("n,margin", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_center_first_fill_matches_the_pinned_search(square_case_or_corpus, n, margin):
    ts = square_case_or_corpus
    assert extensible_squares(ts, n, margin) == _pinned_extensible_squares(ts, n, margin)


def test_a_negative_margin_is_refused_before_a_bad_size(stripes):
    with pytest.raises(ValueError, match="margin must be >= 0"):
        extensible_squares(stripes, 0, -1)
    with pytest.raises(ValueError, match="n must be positive"):
        extensible_squares(stripes, 0, 1)


@pytest.mark.parametrize("extra,nstates,seed", SQUARE_CASES)
def test_unchecked_patterns_equal_checked_ones(extra, nstates, seed):
    ts, _ = _pair_case(extra, nstates, seed)
    squares = admissible_squares(ts, 2)
    made = squares + [p.translate((3, -1)) for p in squares] + [p.normalize() for p in squares]
    made += [p for pats in ts.transpose().allowed for p in pats]
    made += [p for pats in to_forbidden(ts).values() for p in pats]
    for p in made:
        checked = Pattern(p.alphabet, dict(p.cells))
        assert p == checked and hash(p) == hash(checked)
        assert all(type(c) is Vec2 for c in p.cells)


COUNT_CASES = [(extra, nstates, seed) for extra in EXTRA for nstates in (2, 3) for seed in range(2)]


@pytest.mark.parametrize("extra,nstates,seed", COUNT_CASES)
def test_square_count_matches_oracle(extra, nstates, seed):
    """The walk count equals the squares of the fill and of the oracle.  The
    3 x 1 rule makes the graph's vertices two columns wide, so n = 1 (below
    cols) and n = 2 (at cols) take the direct count."""
    rng = random.Random(f"count/{extra}/{nstates}/{seed}")
    density = 0.8 if nstates == 2 else 0.6  # few languages die out, none outgrows the oracle
    ts = _random_tileset(rng, nstates, (HDOMINO, VDOMINO) + EXTRA[extra], density)
    cons = _constraints(ts)
    for n in range(1, 5):
        want = len(brute.squares_rect(nstates, cons, n, n))
        assert _square_count(ts, n) == len(admissible_squares(ts, n)) == want, n


def test_square_count_in_forbidden_mode(tmp_path):
    f = tmp_path / "forbidden.tiles"
    f.write_text("alphabet a b\nmode forbidden\nhpair b b\nvpair b b\n"
                 "pattern\ncell 0 0 a\ncell 1 0 a\ncell 2 0 a\nend\n")
    ts = parse_tileset(f)
    cons = _constraints(ts)
    for n in range(1, 5):
        want = len(brute.squares_rect(2, cons, n, n))
        assert _square_count(ts, n) == len(admissible_squares(ts, n)) == want, n


def test_square_count_of_dying_and_constant_languages():
    al = Alphabet(("a", "b"))
    # no single cell is allowed: nothing at any size
    nothing = TileSet(al, (frozenset({Vec2(0, 0)}),), (frozenset(),))
    # a b is the only row, so squares die at width 3
    dying = TileSet.dominoes(al, [("a", "b")], [("a", "a"), ("b", "b")])
    for n in range(1, 5):
        assert _square_count(nothing, n) == len(admissible_squares(nothing, n)) == 0
        assert _square_count(dying, n) == len(admissible_squares(dying, n)) == [2, 1, 0, 0][n - 1]
    one = TileSet.dominoes(Alphabet(("a",)), [("a", "a")], [("a", "a")])
    assert _square_count(one, 32) == len(admissible_squares(one, 32)) == 1


def _mat_mul(a, b):
    """Product of matrices stored sparsely: row i is {j: entry}, zeros left out."""
    out: list[dict[int, int]] = [{} for _ in a]
    for acc, row in zip(out, a):
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
    return out


def _mat_pow(a, e):
    out = [{i: 1} for i in range(len(a))]
    base = a
    while e:
        if e & 1:
            out = _mat_mul(out, base)
        e >>= 1
        if e:
            base = _mat_mul(base, base)
    return out


def _adjacency(g: TransferGraph) -> list[dict[int, int]]:
    return [dict.fromkeys(succ, 1) for succ in g.successors().values()]


def _power_torus_count(ts: TileSet, p: int, q: int) -> int:
    """The count_torus that the walk counter replaced: tr(A^p) by sparse matrix squaring."""
    return sum(row.get(i, 0) for i, row in enumerate(_mat_pow(_adjacency(build_transfer_graph(ts, q, wrap=True)), p)))


def _product_square_count(ts: TileSet, n: int) -> int:
    """The _square_count that the walk counter replaced: an all-ones row multiplied by A, n - cols times."""
    g = build_transfer_graph(ts, n, wrap=False)
    a, walks = _adjacency(g), [dict.fromkeys(range(len(g.vertices)), 1)]
    for _ in range(n - g.cols):
        walks = _mat_mul(walks, a)
    return sum(walks[0].values())


WALK_SHAPES = {"dominoes": (HDOMINO, VDOMINO), "square": (SQUARE,), "row3": (ROW3,)}
# (kind, states, seed, density, largest square): square sizes stop where the
# open strip graph passes a few hundred vertices (3 ** n on three states,
# 4 ** n with row3's two-column vertices); row3 sets are sparse, as row3
# leaves columns free and its q-high wrap graph has k ** (2 * q) vertices
WALK_CASES = [("dominoes", 2, 0, 0.6, 7), ("dominoes", 2, 1, 0.6, 7), ("dominoes", 3, 0, 0.6, 7),
              ("square", 2, 0, 0.6, 7), ("square", 2, 1, 0.6, 7), ("square", 3, 0, 0.6, 5),
              ("row3", 2, 1, 0.5, 5), ("row3", 3, 0, 0.4, 3)]


def test_walk_counts_match_the_matrix_referee():
    """count_torus at p 1-10 (q 1-4 on two states, 1-3 on three) and
    _square_count up to each case's largest square, against the sparse
    matrix power and product they replaced, on seeded sets, on a set with no
    valid column (no vertex at any height) and on a one-state set (one
    vertex, one loop).  Some seeded wrap graph has a vertex with no
    successor, where every walk through it ends."""
    al = Alphabet(("a", "b"))
    sets = [(_random_tileset(random.Random(f"walks/{kind}/{k}/{seed}"), k, WALK_SHAPES[kind], density), k, top)
            for kind, k, seed, density, top in WALK_CASES]
    sets += [(TileSet(al, (frozenset({Vec2(0, 0)}),), (frozenset(),)), 2, 7),
             (TileSet.dominoes(Alphabet(("a",)), [("a", "a")], [("a", "a")]), 1, 7)]
    dead_ends = 0
    for i, (ts, k, top) in enumerate(sets):
        for q in range(1, 5 if k <= 2 else 4):
            succ = build_transfer_graph(ts, q, wrap=True).successors()
            dead_ends += sum(not s for s in succ.values())
            for p in range(1, 11):
                assert count_torus(ts, p, q) == _power_torus_count(ts, p, q), (i, p, q)
        cols = max(ts.hextent - 1, 1)
        for n in range(cols + 1, top + 1):
            assert _square_count(ts, n) == _product_square_count(ts, n), (i, n)
    assert dead_ends
    assert [count_torus(sets[-2][0], 3, 2), count_torus(sets[-1][0], 10, 4), _square_count(sets[-1][0], 7)] == [0, 1, 1]


def _masks(n: int, edges) -> tuple[list[int], list[int]]:
    """The successor and predecessor bit masks of each vertex, as _lyndon_walks reads them."""
    succ, pred = [0] * n, [0] * n
    for a, b in edges:
        succ[a] |= 1 << b
        pred[b] |= 1 << a
    return succ, pred


def _lyndon_walks_brute(n: int, edges, p: int):
    """Closed p-walks whose index sequence is strictly least among its rotations."""
    return [
        w for w in product(range(n), repeat=p)
        if all((w[i], w[(i + 1) % p]) in edges for i in range(p))
        and all(w < w[i:] + w[:i] for i in range(1, p))
    ]


@pytest.mark.parametrize("seed", [*range(12), "self-only"])
def test_lyndon_walks_match_every_closed_walk(seed):
    """Sparse random graphs, where walks can wander off to vertices that
    return to walk[0] only through lower ones, or never return at all; and
    one where start vertices 0, 1 and 3 keep only themselves (what they
    lead to never leads back), so only walks from 2 through 3 are Lyndon."""
    if seed == "self-only":
        n, edges = 4, {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 2)}
    else:
        rng = random.Random(f"lyndon/{seed}")
        n = rng.randint(2, 6)
        edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.35}
    g = TransferGraph(1, True, 1, tuple(((i,),) for i in range(n)), tuple(sorted(edges)))
    sigma = _vertical_rotation(g)
    assert sigma == list(range(n))  # height 1: no vertical rotation to filter on
    succ, pred = _masks(n, g.edges)
    for p in range(1, 7):
        assert list(_lyndon_walks(succ, pred, [], p)) == _lyndon_walks_brute(n, edges, p), p
