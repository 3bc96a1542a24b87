"""Pattern-language enumeration: admissible squares, extensibility, transfer graphs."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .core import Pattern, TileSet, Vec2


def _getter(idxs: tuple[int, ...]):
    """Reads a window off the cell array as a state tuple (a 1-tuple for one cell)."""
    j = idxs[0]
    return itemgetter(*idxs) if len(idxs) > 1 else lambda cells: (cells[j],)


def _anchor_checks(ts: TileSet, width: int, height: int, wrap_y: bool = False, first=()):
    """Constraint windows over a width x height grid, grouped by the fill
    position of their last cell, each as a (getter, allowed state tuples) pair.

    Cells are indexed x-major ((x, y) -> x * height + y) and filled in that
    order after the cells in first; a window reads each cell at its fill
    position, so it is tested as soon as its last cell gets a value.  Windows
    are anchored only where they fit horizontally; with wrap_y the grid is a
    height-periodic cylinder, whose y coordinates are read modulo the height
    and whose windows are anchored at every row.
    """
    pos = {}  # the fill position of each cell, when some cells go first
    if first:
        pos = dict(zip([*first, *sorted(set(range(width * height)).difference(first))], range(width * height)))
    groups: list[list[tuple]] = [[] for _ in range(width * height)]
    for cells, keys in zip(ts.shape_cells, ts.allowed_keys):
        xs = range(width - max(c.x for c in cells))
        ys = range(height if wrap_y else height - max(c.y for c in cells))
        for ax in xs:
            for ay in ys:
                idxs = tuple((ax + c.x) * height + (ay + c.y) % height for c in cells)
                if pos:
                    idxs = tuple(pos[j] for j in idxs)
                groups[max(idxs)].append((_getter(idxs), keys))
    return groups


def _fill(nstates: int, size: int, groups, keep: int | None = None) -> Iterator[list[int]]:
    """Depth-first fill of a flat cell array, branching states in ascending
    order; groups[i] holds the windows whose last cell is i (_anchor_checks).

    The search is a loop over the cell index, with the cell array as its
    stack, so it has no depth limit.  A completion yields its first keep cells
    and resumes at cell keep - 1: each completable prefix comes out once, in order.
    """
    keep = size if keep is None else keep
    cells = [-1] * size
    i = 0
    while i >= 0:
        if i == size:
            yield cells[:keep]
            cells[keep:] = [-1] * (size - keep)
            i = keep - 1
            continue
        for s in range(cells[i] + 1, nstates):
            cells[i] = s
            for get, keys in groups[i]:
                if get(cells) not in keys:
                    break
            else:
                i += 1
                break
        else:
            cells[i] = -1
            i -= 1


def _grids(ts: TileSet, width: int, height: int, wrap_y: bool):
    """Valid width x height grids, height-periodic with wrap_y, as column tuples in lexicographic order."""
    groups = _anchor_checks(ts, width, height, wrap_y)
    for flat in _fill(len(ts.alphabet), width * height, groups):
        yield tuple(tuple(flat[x * height:(x + 1) * height]) for x in range(width))


def _squares(ts: TileSet, n: int, margin: int) -> Iterator[Pattern]:
    """The n x n squares that complete to a valid (n + 2*margin)-square, in
    lexicographic order: one fill of the big square, center first (at margin 0
    all of it, in index order), keeping each center at its first completion."""
    if n < 1:
        raise ValueError("n must be positive")
    big = n + 2 * margin
    center = [(margin + x) * big + margin + y for x in range(n) for y in range(n)] if margin else ()
    groups = _anchor_checks(ts, big, big, first=center)
    coords = [Vec2(i // n, i % n) for i in range(n * n)]
    for cells in _fill(len(ts.alphabet), big * big, groups, keep=n * n):
        yield Pattern._trusted(ts.alphabet, dict(zip(coords, cells)))


def iter_admissible_squares(ts: TileSet, n: int) -> Iterator[Pattern]:
    """All valid n x n fillings in lexicographic ((x, y)-major, state-ascending) order."""
    return _squares(ts, n, 0)


def admissible_squares(ts: TileSet, n: int) -> list[Pattern]:
    return list(iter_admissible_squares(ts, n))


def extensible_squares(ts: TileSet, n: int, margin: int) -> list[Pattern]:
    """Admissible n x n squares that complete to a valid (n + 2*margin)-square.

    Only a finite completion is demanded, so this over-approximates extension
    to a full tiling.  One center-first fill (_squares) serves every square.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    return list(_squares(ts, n, margin))


@dataclass(frozen=True)
class TransferGraph:
    """Horizontal progression structure of height-q strips.

    Vertices are valid stacks of `cols` adjacent columns in lexicographic
    order; an edge (i, j) means vertices i and j overlap in all but one column
    and their (cols + 1)-wide union is still valid.  With wrap=True the strip
    lives on a height-q cylinder.
    """

    height: int
    wrap: bool
    cols: int
    vertices: tuple[tuple[tuple[int, ...], ...], ...]  # vertex[i] = column tuple
    edges: tuple[tuple[int, int], ...]

    def successors(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {i: [] for i in range(len(self.vertices))}
        for a, b in self.edges:
            out[a].append(b)
        return out


def build_transfer_graph(ts: TileSet, q: int, wrap: bool) -> TransferGraph:
    """Vertices from one cols-wide fill, edges from a join of vertices on bit masks.

    A (cols + 1)-wide strip is valid exactly when its ends u and v are
    vertices, v continues u (v[:-1] == u[1:]) and every window cols + 1 wide
    allows it, a narrower one lying inside u or v.  At each anchor row such a
    window reads u's columns and v's last column only: per v-part it gets a
    mask of vertices, ORed into one mask per u-part it allows.  u's successors
    (its prefix's run ANDed with one mask per window) are built per u and read
    lowest bit first: edges in (i, j) order, as from a lexicographic strip fill.
    Bit work grows as V^2 * q / 64, a fill's as E: sparse graphs with many
    vertices gain least (V = E = 3^10: 0.6 s against 1.0 s, 2 shared cores).
    """
    if q < 1:
        raise ValueError("q must be positive")
    cols = max(ts.hextent - 1, 1)
    vertices = tuple(_grids(ts, cols, q, wrap_y=wrap))
    n, runs = len(vertices), {}  # prefix -> [lo, hi): the vertices with it are contiguous
    for j, v in enumerate(vertices):
        runs.setdefault(v[:-1], [j, 0])[1] = j + 1
    after = {p: (1 << hi) - (1 << lo) for p, (lo, hi) in runs.items()}
    joins = []  # per window cols + 1 wide and anchor row: (u-part getter, {u-part: mask of allowed v})
    for cells, keys in zip(ts.shape_cells, ts.allowed_keys):
        split = sum(c.x < cols for c in cells)  # cells are x-major: u's come first
        if split == len(cells):
            continue  # narrower: inside u or v, checked by the vertex fill
        for ay in range(q if wrap else q - max(c.y for c in cells)):
            rows = [(ay + c.y) % q for c in cells]
            vget, bits = _getter(rows[split:]), {}  # v-part -> mask digits, highest bit first
            for j, v in enumerate(vertices):
                b = bits.get(vp := vget(v[-1])) or bits.setdefault(vp, bytearray(b"0" * n))
                b[n - 1 - j] = 49  # "1"
            vmask, umask = {vp: int(b, 2) for vp, b in bits.items()}, {}
            for key in keys:
                umask[key[:split]] = umask.get(key[:split], 0) | vmask.get(key[split:], 0)
            joins.append((_getter([c.x * q + r for c, r in zip(cells, rows[:split])]), umask))
    edges, ids = [], list(range(n))  # one int object per index, shared by the edges that name it
    for i, u in zip(ids, vertices):
        succ, flat = after.get(u[1:], 0), sum(u, ())
        for uget, umask in joins:
            succ &= umask.get(uget(flat), 0)
        while succ:
            low = succ & -succ
            edges.append((i, ids[low.bit_length() - 1]))
            succ ^= low
    return TransferGraph(q, wrap, cols, vertices, tuple(edges))


def _walks(succ: dict[int, list[int]], counts: dict[int, int], steps: int) -> dict[int, int]:
    """The sparse count vector counts (vertex -> walks ending there) pushed steps edges along succ."""
    for _ in range(steps):
        ahead: dict[int, int] = {}
        for v, c in counts.items():
            for w in succ[v]:
                ahead[w] = ahead.get(w, 0) + c
        counts = ahead
    return counts


def count_torus(ts: TileSet, p: int, q: int) -> int:
    """Number of valid p x q torus blocks, as closed p-walks in the wrap graph: tr(A^p), one row at a time."""
    if p < 1:
        raise ValueError("p must be positive")
    succ = build_transfer_graph(ts, q, wrap=True).successors()
    return sum(_walks(succ, {i: 1}, p).get(i, 0) for i in succ)


def _square_count(ts: TileSet, n: int) -> int:
    """len(admissible_squares(ts, n)) as (n - cols)-step walks on the open height-n strip graph:
    each window of the square lies in some cols + 1 adjacent columns, so in one edge."""
    cols = max(ts.hextent - 1, 1)
    if n <= cols:  # also rejects n < 1
        return len(admissible_squares(ts, n))
    succ = build_transfer_graph(ts, n, wrap=False).successors()
    return sum(_walks(succ, dict.fromkeys(succ, 1), n - cols).values())
