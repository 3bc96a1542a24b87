"""Searches over a tile set: emptiness refutation, torus tilings, weakly periodic planes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

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


def _lyndon_blocks(g: TransferGraph, p: int):
    """Blocks of the closed p-walks on wrap graph g whose index sequence is a
    Lyndon word (column x: vertex x's first column), in lexicographic order.
    Fredricksen-Kessler-Maiorana prenecklace search: `period` is that of the
    longest Lyndon prefix, and no index falls below walk[t - period].
    Successors are tried in ascending order."""
    succ = g.successors()
    walk = [0] * p

    def extend(t: int, period: int):
        if t == p:
            if period == p and walk[0] in succ[walk[-1]]:
                yield tuple(g.vertices[v][0] for v in walk)
            return
        for v in succ[walk[t - 1]]:
            if v >= walk[t - period]:
                walk[t] = v
                yield from extend(t + 1, period if v == walk[t - period] else t + 1)

    for walk[0] in range(len(g.vertices)):
        yield from extend(1, 1)


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


def _canonical_cycle(cycle: tuple) -> tuple:
    rots = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rots)


def _vertical_rotations(cycle: tuple, q: int):
    """The cycle with every vertex's columns rotated by each of the q offsets."""
    for b in range(q):
        yield tuple(
            tuple(tuple(col[(y + b) % q] for y in range(q)) for col in vert)
            for vert in cycle
        )


def _cycle_pairs(graph: nx.DiGraph, cycles: list[tuple], q: int):
    reach = {}
    for c1 in cycles:
        for c2 in cycles:
            if c1 is c2:
                continue
            if any(_canonical_cycle(r) == c2 for r in _vertical_rotations(c1, q)):
                continue
            key = c1[0]
            if key not in reach:
                reach[key] = nx.descendants(graph, key) | {key}
            # reachability from any vertex of c1 equals reachability from one,
            # the cycle being strongly connected through itself
            if any(v in reach[key] for v in c2):
                yield c1, c2


def _bridge(graph: nx.DiGraph, c1: tuple, c2: tuple):
    """Shortest path from a c1 vertex to a c2 vertex; ties broken by content."""
    best = None
    for start in c1:
        paths = nx.shortest_path(graph, start)
        for t in c2:
            if t in paths:
                cand = tuple(paths[t])
                rank = (len(cand), cand)
                if best is None or rank < best[0]:
                    best = (rank, cand)
    return best[1] if best else None


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


def weak_periodic_witness(ts: TileSet, maxq: int, cycle_cap: int = 20000) -> GridPresentation | None:
    """Search for a tiling that is vertically but not horizontally periodic
    (or the transpose), built from two inequivalent cycles of a wrap transfer
    graph joined by a bridge.

    Two simple cycles that are not vertical rotations of one another, with a
    path from the first to the second, splice into a valid plane on the
    height-q cylinder; the mismatch of the two ends kills every period with a
    horizontal component, leaving a rank-1 vertical lattice.  Heights are
    tried in increasing order, the given orientation before the transpose.
    """
    if maxq < 1:
        raise ValueError("maxq must be positive")
    for q in range(1, maxq + 1):
        for oriented, flipped in ((ts, False), (ts.transpose(), True)):
            g = build_transfer_graph(oriented, q, wrap=True)
            if not g.vertices:
                continue
            graph = nx.DiGraph()
            graph.add_nodes_from(g.vertices)
            graph.add_edges_from((g.vertices[a], g.vertices[b]) for a, b in g.edges)
            cycles = sorted(
                {_canonical_cycle(tuple(c)) for c in islice(nx.simple_cycles(graph), cycle_cap)},
                key=lambda c: (len(c), c),
            )
            for c1, c2 in _cycle_pairs(graph, cycles, q):
                path = _bridge(graph, c1, c2)
                if path is None:
                    continue
                pres = _witness_presentation(oriented, c1, c2, path, q)
                if flipped:
                    pres = transpose(pres)
                if not is_valid(pres, ts):
                    raise RuntimeError("witness construction produced an invalid tiling")
                if period_lattice(pres).rank != 1:
                    raise RuntimeError("witness construction lost weak periodicity")
                return pres
    return None
