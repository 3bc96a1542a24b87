"""Searches over a tile set: emptiness refutation, torus tilings, weakly periodic planes."""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from itertools import accumulate, product

from .core import TileSet, TorusTiling
from .lang import TransferGraph, build_transfer_graph, iter_admissible_squares
from .presentation import Block, GridPresentation, is_valid, period_lattice, transpose


def _lazy_import(name: str):
    """Module name, registered in sys.modules but run only at its first attribute access
    (importlib.util.LazyLoader).  A module already imported is reused; a missing or blocked
    one raises ModuleNotFoundError here, as a plain import would."""
    spec = None if name in sys.modules else importlib.util.find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


nx = _lazy_import("networkx")  # only _two_cycles and _shortest_cycle run it


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


def _reaching(pred: list[int], r: int, alive: int, depth: int) -> int:
    """Bit mask of the alive vertices that reach r in at most depth steps
    through alive vertices, from pred[v], the bit mask of v's predecessors."""
    seen = frontier = 1 << r
    for _ in range(depth):
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= pred[low.bit_length() - 1]
            frontier ^= low
        frontier = new & alive & ~seen
        seen |= frontier
    return seen


def _vertical_rotation(g: TransferGraph) -> list[int]:
    """sigma: vertex i of wrap graph g with every column rotated by one row, as a vertex permutation."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return [index[tuple(c[1:] + c[:1] for c in v)] for v in g.vertices]


def _orbit_least(walk: list[int], pre: list[tuple[list[int], int]]) -> bool:
    """No sigma^dy fixes the walk or maps it to one with a horizontal rotation below it; pre pairs each
    sigma^dy with its preimage of r = walk[0].  Every walk vertex's orbit lies at or above r, so only a
    rotation that starts at r, where the walk holds the preimage, can reach the walk or fall below it."""
    for s, v in pre:
        if v in walk:
            m = [s[u] for u in walk]
            if m <= walk:
                return False
            for dx in range(1, len(m)):
                if walk[dx] == v and m[dx:] + m[:dx] < walk:
                    return False
    return True


def _lyndon_walks(succ: list[int], pred: list[int], rots: list[list[int]], p: int):
    """The closed p-walks on a wrap graph that enumerate_torus keeps, as index tuples in
    lexicographic order; succ[v] and pred[v] are v's successor and predecessor bit masks, rots
    sigma^1 .. sigma^(q-1).  Prenecklace search (Fredricksen-Kessler-Maiorana) over bit masks,
    as a loop with no depth limit: `period` is that of the longest Lyndon prefix, no index falls
    below walk[t - period], candidates go lowest first, and `tied` holds the powers s with
    s(walk[:t]) == walk[:t].  Steps keep to alive vertices (whose orbit has no member below
    walk[0]) that reach walk[0] within p - 1 steps."""
    n = len(succ)
    if p == 1:
        yield from ((r,) for r in range(n) if succ[r] >> r & 1 and all(s[r] > r for s in rots))
        return
    walk, below = [0] * p, 0  # below: the vertices whose orbit has a member below walk[0]
    for r in range(n):
        walk[0], alive = r, 0 if below >> r & 1 else ~below  # else a translate starts lower than r
        below |= 1 << r | sum({1 << s[r] for s in rots})
        keep = _reaching(pred, r, alive, p - 1)  # walk[t] reaches r in p - t steps
        if keep >> r + 1 == 0:
            continue  # r is not orbit-least, or no alive vertex above it returns to it
        pre = [(s, inverse[r]) for s, inverse in zip(rots, rots[::-1])]  # sigma^(q - dy) undoes sigma^dy
        stack = [(1, succ[r] & keep, [s for s in rots if s[r] == r])]  # (period, untried walk[t], tied)
        while stack:
            t = len(stack)
            period, cands, tied = stack.pop()
            lo = walk[t - period]
            if t == p - 1:
                ends = cands & pred[r] >> lo + 1 << lo + 1
                while ends:
                    low = ends & -ends
                    walk[t] = low.bit_length() - 1
                    if _orbit_least(walk, pre):
                        yield tuple(walk)
                    ends ^= low
                continue
            cands = cands >> lo << lo
            if cands:
                low = cands & -cands
                walk[t] = v = low.bit_length() - 1
                stack.append((period, cands ^ low, tied))
                if not tied or all(s[v] >= v for s in tied):  # else s(walk) < walk for every completion
                    stack.append((period if v == lo else t + 1, succ[v] & keep, [s for s in tied if s[v] == v]))


def _tori(ts: TileSet, maxp: int, maxq: int, key=None):
    """Kept blocks (p, q, block), p <= maxp and q <= maxq, sizes sorted by key (default (p, q));
    block column x is the first column of vertex walk[x], read off tables built once per height."""
    if maxp < 1 or maxq < 1:
        raise ValueError("maxp and maxq must be positive")
    tables: dict[int, tuple] = {}
    for p, q in sorted(product(range(1, maxp + 1), range(1, maxq + 1)), key=key):
        if q not in tables:
            g = build_transfer_graph(ts, q, wrap=True)
            succ, pred = [0] * len(g.vertices), [0] * len(g.vertices)
            for a, b in g.edges:
                succ[a] |= 1 << b
                pred[b] |= 1 << a
            sigma = _vertical_rotation(g)
            rots = list(accumulate([sigma] * (q - 1), lambda s, _: [sigma[v] for v in s]))  # sigma^1 .. sigma^(q-1)
            tables[q] = succ, pred, rots, [v[0] for v in g.vertices]
        succ, pred, rots, first = tables[q]
        for walk in _lyndon_walks(succ, pred, rots, p):
            yield p, q, tuple([first[v] for v in walk])


def enumerate_torus(ts: TileSet, maxp: int, maxq: int) -> list[TorusTiling]:
    """All torus tilings with p <= maxp, q <= maxq, one representative per
    translation orbit, keeping only blocks whose minimal periods are exactly
    (p, q); ordered by (p, q), then lexicographically.

    A p x q torus block is exactly a closed p-walk on the height-q wrap
    transfer graph.  Vertices are in lexicographic order, so index order on
    walks is lexicographic order on blocks, and rotating the walk rotates the
    block horizontally.  Rotating every column of a valid cylinder strip by one
    row gives a valid strip: that is a graph automorphism sigma, stored once
    per graph as a vertex permutation, and sigma^dy turns a block dy rows.  A
    walk is kept when it is a Lyndon word and no sigma^dy, 0 < dy < q, fixes
    it or has a rotation below it.  The search starts at orbit-least vertices
    r (sigma^dy(r) >= r for all dy), cuts a prefix with sigma^dy(prefix) <
    prefix (then sigma^dy(walk) < walk for every completion) and compares a
    full walk only at the rotations of sigma^dy(walk) that start at r.
    """
    return [TorusTiling._trusted(*t) for t in _tori(ts, maxp, maxq)]


def classify(ts: TileSet, budget: int):
    """Bounded emptiness-versus-periodicity ladder.

    Refutation first (an empty square size settles it), then torus search in
    increasing max(p, q); both sides exhaust at the budget.  The least p x q
    block is least among its translates, so it is kept unless it has a
    smaller period on some axis, a size the ladder tried earlier.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    for n in range(1, budget + 1):
        if refute(ts, n):
            return Empty(n)
    return next((PeriodicFound(TorusTiling._trusted(*t)) for t in _tori(ts, budget, budget, max)), Unknown(budget))


def _shortest_cycle(graph: nx.DiGraph, v: int) -> tuple:
    """Shortest cycle through v, starting at v; ties go to the least closing vertex."""
    paths = nx.shortest_path(graph, v)
    u = min((u for u in graph.predecessors(v) if u in paths), key=lambda u: (len(paths[u]), u))
    return tuple(paths[u])


def _essential_edges(g: TransferGraph) -> list[tuple[int, int]] | None:
    """The edges of g's essential part, or None when no vertex of it has two successors.

    The essential part (Lind and Marcus, Symbolic Dynamics and Coding, 2.2) is what is left
    after dropping, again and again, every vertex with no predecessor or no successor left:
    the vertices on bi-infinite walks.  If each has one successor left, it is disjoint cycles
    and every bi-infinite walk is periodic.  A vertex with two, entered from a cycle, goes on
    into two walks with the same left half, and a periodic walk is fixed by its left half.
    """
    n = len(g.vertices)
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, b in g.edges:
        succ[a].append(b)
        pred[b].append(a)
    outs, ins = [len(s) for s in succ], [len(p) for p in pred]  # successors, predecessors left
    alive = [o > 0 and i > 0 for o, i in zip(outs, ins)]
    dropped = [v for v in range(n) if not alive[v]]
    for v in dropped:  # grows while it is read
        for ends, left in ((pred[v], outs), (succ[v], ins)):
            for u in ends:
                left[u] -= 1
                if alive[u] and not left[u]:
                    alive[u] = False
                    dropped.append(u)
    if all(d < 2 for d, a in zip(outs, alive) if a):
        return None
    return [(a, b) for a, b in g.edges if alive[a] and alive[b]]


def _two_cycles(edges: list[tuple[int, int]]) -> tuple | None:
    """Two distinct cycles c1, c2 of the graph with these edges and a
    shortest path from c1[0] to c2[0], as vertex-index tuples, or None.

    The walk shift of a graph has a non-periodic point exactly when some
    cyclic SCC is more than one cycle or a path leads from one cyclic SCC to
    another.  Per cyclic SCC in order of least vertex v, c1 is the shortest
    cycle through v; c2 is the cycle closed by the SCC's first edge off c1,
    else the shortest cycle of the least cyclic SCC reachable from v.
    """
    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    root = {v: min(c) for c in nx.strongly_connected_components(graph) for v in c}
    cyclic = sorted({root[a] for a, b in edges if root[a] == root[b]})
    for v in cyclic:
        c1 = _shortest_cycle(graph, v)
        on_c1 = set(zip(c1, c1[1:] + c1[:1]))
        extra = next(((a, b) for a, b in edges if root[a] == root[b] == v and (a, b) not in on_c1), None)
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


def _witness_presentation(ts: TileSet, g: TransferGraph, c1: tuple, c2: tuple, path: tuple) -> GridPresentation:
    """Lay out c1 repeated to the left, the bridge, then c2 repeated to the right.

    Column x of the plane is the first column of walk vertex c1[x mod |c1|]
    for x <= 0, path[x] for 0 <= x <= m and c2[(x - m) mod |c2|] for x >= m,
    where m = |path| - 1: cuts 1..m (0 when m = 0), one 1-wide band per inner
    bridge step.  Each walk starts at the bridge end it meets, and blocks are
    origin-anchored, so c2's block is c2 rotated by m.
    """
    m, l2 = len(path) - 1, len(c2)
    walks = (c1, *((v,) for v in path[1:-1]), tuple(c2[(j - m) % l2] for j in range(l2)))
    columns = tuple((Block(len(w), g.height, tuple(g.vertices[v][0] for v in w)),) for w in walks)
    return GridPresentation(ts.alphabet, tuple(range(1, m + 1)) or (0,), (), columns)


def weak_periodic_witness(ts: TileSet, maxq: int) -> GridPresentation | None:
    """A tiling that is vertically periodic with period q <= maxq but not
    horizontally periodic, or the transpose of one; None when none exists.

    Such tilings are the non-periodic bi-infinite walks on the height-q wrap
    transfer graph.  Two distinct cycles joined by a path splice into one:
    were the plane horizontally periodic, its left tail (c1 repeated) would
    fix the whole column sequence, and c2 would be a rotation of c1.  Heights
    are tried in increasing order, the given orientation before the transpose.

    A height has a witness exactly when some vertex of the graph's essential
    part has two successors there (_essential_edges), and only then are the
    cycles searched, on the essential part alone.  The witness is the one the
    whole graph gives: every vertex on a cycle, and every vertex reached from
    a cycle that reaches another, is essential, while a vertex reached from a
    cycle that is not essential reaches no essential vertex.  So the cyclic
    components, their edges in edge order and the breadth-first searches from
    cycle vertices (hence the shortest paths and their tie-breaks) are the
    same on both graphs.
    """
    if maxq < 1:
        raise ValueError("maxq must be positive")
    orientations = ((ts, False), (ts.transpose(), True))
    for q in range(1, maxq + 1):
        for oriented, flipped in orientations:
            g = build_transfer_graph(oriented, q, wrap=True)
            edges = _essential_edges(g)
            if edges is None:
                continue
            pres = _witness_presentation(oriented, g, *_two_cycles(edges))
            if flipped:
                pres = transpose(pres)
            if not is_valid(pres, ts):
                raise RuntimeError("witness construction produced an invalid tiling")
            if period_lattice(pres).rank != 1:
                raise RuntimeError("witness construction lost weak periodicity")
            return pres
    return None
