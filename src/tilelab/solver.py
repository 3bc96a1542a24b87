"""Searches over a tile set: emptiness refutation, torus tilings, weakly periodic planes."""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .core import TileSet, TorusTiling
from .lang import TransferGraph, build_transfer_graph, iter_admissible_squares
from .presentation import Block, GridPresentation, is_valid, period_lattice, transpose


@dataclass(frozen=True)
class Empty:
    """No n x n square is admissible, so no tiling exists at all."""

    n: int


@dataclass(frozen=True)
class PeriodicFound:
    tiling: TorusTiling


@dataclass(frozen=True)
class Unknown:
    budget: int


def refute(ts: TileSet, n: int) -> bool:
    """True when no admissible n x n square exists (hence no tiling)."""
    return next(iter_admissible_squares(ts, n), None) is None


def _reaching(pred: list[int], r: int) -> int:
    """Bit mask of the vertices >= r that reach r through vertices >= r,
    from pred[v], the bit mask of v's predecessors."""
    seen, todo = 1 << r, [r]
    while todo:
        new = pred[todo.pop()] >> r << r & ~seen
        seen |= new
        while new:
            low = new & -new
            todo.append(low.bit_length() - 1)
            new ^= low
    return seen


def _lyndon_blocks(g: TransferGraph, p: int):
    """Blocks of the closed p-walks on wrap graph g whose index sequence is a
    Lyndon word (column x: vertex x's first column), in lexicographic order.
    Fredricksen-Kessler-Maiorana prenecklace search over bit masks, as a loop
    with no depth limit: `period` is that of the longest Lyndon prefix, no
    index falls below walk[t - period], and candidates go lowest first.  Inner
    steps keep to the vertices that reach walk[0] through vertices >= walk[0],
    as every vertex of a Lyndon walk does; the last step closes the walk."""
    n = len(g.vertices)
    succ, pred = [0] * n, [0] * n
    for a, b in g.edges:
        succ[a] |= 1 << b
        pred[b] |= 1 << a
    first = [v[0] for v in g.vertices]
    walk = [0] * p
    for r in range(n):
        walk[0] = r
        if p == 1:
            if succ[r] >> r & 1:
                yield (first[r],)
            continue
        keep = _reaching(pred, r) if p > 2 else -1  # at p == 2 the closing edge implies it
        if keep >> r + 1 == 0:
            continue  # a Lyndon word of length >= 2 has a letter above its first
        stack = [(1, succ[r] & keep)]  # (period of walk[:t], untried candidates for walk[t]), t = len(stack)
        while stack:
            t = len(stack)
            period, cands = stack.pop()
            lo = walk[t - period]
            if t == p - 1:
                ends = cands & pred[r] >> lo + 1 << lo + 1
                while ends:
                    low = ends & -ends
                    walk[t] = low.bit_length() - 1
                    yield tuple([first[v] for v in walk])
                    ends ^= low
                continue
            cands = cands >> lo << lo
            if cands:
                low = cands & -cands
                walk[t] = v = low.bit_length() - 1
                stack.append((period, cands ^ low))
                stack.append((period if v == lo else t + 1, succ[v] & keep))


def _least_of_vertical_rotations(block: tuple, q: int) -> bool:
    """No vertical rotation by 1..q-1 fixes the block or has a smaller horizontal rotation."""
    for dy in range(1, q):
        r = tuple(col[dy:] + col[:dy] for col in block)
        if r == block or any(r[dx:] + r[:dx] < block for dx in range(len(r)) if r[dx] <= block[0]):
            return False
    return True


def enumerate_torus(ts: TileSet, maxp: int, maxq: int) -> list[TorusTiling]:
    """All torus tilings with p <= maxp, q <= maxq, one representative per
    translation orbit, keeping only blocks whose minimal periods are exactly
    (p, q); ordered by (p, q), then lexicographically.

    A p x q torus block is exactly a closed p-walk on the height-q wrap
    transfer graph.  Vertices are in lexicographic order, so index order on
    walks is lexicographic order on blocks, and rotating the walk rotates the
    block horizontally.  A Lyndon walk is thus a block of exact horizontal
    period p, strictly least among its horizontal rotations; the vertical
    rotations are checked per surviving walk.
    """
    if maxp < 1 or maxq < 1:
        raise ValueError("maxp and maxq must be positive")
    graphs = {q: build_transfer_graph(ts, q, wrap=True) for q in range(1, maxq + 1)}
    out = []
    for p in range(1, maxp + 1):
        for q, g in graphs.items():
            for block in _lyndon_blocks(g, p):
                if _least_of_vertical_rotations(block, q):
                    out.append(TorusTiling(p, q, block))
    return out


def classify(ts: TileSet, budget: int):
    """Bounded emptiness-versus-periodicity ladder.

    Refutation first (an empty square size settles it), then torus search in
    increasing max(p, q); both sides exhaust at the budget.  The least p x q
    block is least among its rotations, so it is a Lyndon walk unless it
    repeats a closed walk of a smaller size, which the ladder tried earlier.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    for n in range(1, budget + 1):
        if refute(ts, n):
            return Empty(n)
    sizes = sorted(
        ((p, q) for p in range(1, budget + 1) for q in range(1, budget + 1)),
        key=lambda s: (max(s), s[0], s[1]),
    )
    graphs: dict[int, TransferGraph] = {}
    for p, q in sizes:
        if q not in graphs:
            graphs[q] = build_transfer_graph(ts, q, wrap=True)
        block = next(_lyndon_blocks(graphs[q], p), None)
        if block is not None:
            return PeriodicFound(TorusTiling(p, q, block))
    return Unknown(budget)


def _shortest_cycle(graph: nx.DiGraph, v: int) -> tuple:
    """Shortest cycle through v, starting at v; ties go to the least closing vertex."""
    paths = nx.shortest_path(graph, v)
    u = min((u for u in graph.predecessors(v) if u in paths), key=lambda u: (len(paths[u]), u))
    return tuple(paths[u])


def _two_cycles(g: TransferGraph) -> tuple | None:
    """Two distinct cycles c1, c2 of g and a shortest path from c1[0] to
    c2[0], as vertex-index tuples, or None.

    The walk shift of a graph has a non-periodic point exactly when some
    cyclic SCC is more than one cycle or a path leads from one cyclic SCC to
    another.  Per cyclic SCC in order of least vertex v, c1 is the shortest
    cycle through v; c2 is the cycle closed by the SCC's first edge off c1,
    else the shortest cycle of the least cyclic SCC reachable from v.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(g.vertices)))
    graph.add_edges_from(g.edges)
    root = {v: min(c) for c in nx.strongly_connected_components(graph) for v in c}
    cyclic = sorted({root[a] for a, b in g.edges if root[a] == root[b]})
    for v in cyclic:
        c1 = _shortest_cycle(graph, v)
        on_c1 = set(zip(c1, c1[1:] + c1[:1]))
        extra = next(((a, b) for a, b in g.edges if root[a] == root[b] == v and (a, b) not in on_c1), None)
        if extra is not None:
            c2 = tuple(nx.shortest_path(graph, extra[1], extra[0]))
        else:
            reach = nx.descendants(graph, v)
            w = next((w for w in cyclic if w in reach), None)
            if w is None:
                continue
            c2 = _shortest_cycle(graph, w)
        return c1, c2, tuple(nx.shortest_path(graph, c1[0], c2[0]))
    return None


def _witness_presentation(ts: TileSet, c1: tuple, c2: tuple, path: tuple, q: int) -> GridPresentation:
    """Lay out c1 repeated to the left, the bridge, then c2 repeated to the right.

    Column x of the plane is the first column of the walk vertex at step x;
    blocks are origin-anchored, so each side's data is indexed to agree with
    the walk at the band boundary.
    """
    m = len(path) - 1
    l1, l2 = len(c1), len(c2)
    i1 = c1.index(path[0])
    i2 = c2.index(path[-1])

    def left_col(j):
        return c1[(i1 + j) % l1][0]

    def right_col(j):
        return c2[(i2 + j - m) % l2][0]

    left = Block(l1, q, tuple(left_col(j) for j in range(l1)))
    right = Block(l2, q, tuple(right_col(j) for j in range(l2)))
    if m == 0:
        xcuts = (0,)
        columns = [left, right]
    else:
        xcuts = tuple(range(1, m + 1))
        columns = [left]
        for t in range(1, m):
            columns.append(Block(1, q, (path[t][0],)))
        columns.append(right)
    return GridPresentation(ts.alphabet, xcuts, (), tuple((b,) for b in columns))


def weak_periodic_witness(ts: TileSet, maxq: int) -> GridPresentation | None:
    """A tiling that is vertically periodic with period q <= maxq but not
    horizontally periodic, or the transpose of one; None when none exists.

    Such tilings are the non-periodic bi-infinite walks on the height-q wrap
    transfer graph.  Two distinct cycles joined by a path splice into one:
    were the plane horizontally periodic, its left tail (c1 repeated) would
    fix the whole column sequence, and c2 would be a rotation of c1.  Heights
    are tried in increasing order, the given orientation before the transpose.
    """
    if maxq < 1:
        raise ValueError("maxq must be positive")
    orientations = ((ts, False), (ts.transpose(), True))
    for q in range(1, maxq + 1):
        for oriented, flipped in orientations:
            g = build_transfer_graph(oriented, q, wrap=True)
            found = _two_cycles(g)
            if found is None:
                continue
            c1, c2, path = (tuple(g.vertices[i] for i in walk) for walk in found)
            pres = _witness_presentation(oriented, c1, c2, path, q)
            if flipped:
                pres = transpose(pres)
            if not is_valid(pres, ts):
                raise RuntimeError("witness construction produced an invalid tiling")
            if period_lattice(pres).rank != 1:
                raise RuntimeError("witness construction lost weak periodicity")
            return pres
    return None
