"""Slow reference computations, done the obvious way.

Exhaustive products, full rescans after every cell, window sets collected
off a materialized box.  Nothing here imports the library under test:
tile sets arrive as plain (offsets, allowed) constraint lists and planes
as bare (x, y) -> state functions.

Box-based answers (window sets, occurrence counts, periods) are exact
only when the plane is eventually constant per axis and the box reach
dwarfs its cut structure plus the window size; callers pick the reach.
"""

from itertools import product

PRODUCT_CAP = 1 << 22


def pair_rules(hpairs, vpairs):
    """Constraint list from domino rules given the human way round:
    hpairs as (left, right), vpairs as (top, bottom).  An empty list
    leaves that direction unconstrained rather than forbidding it."""
    out = []
    if hpairs:
        out.append((((0, 0), (1, 0)), frozenset(hpairs)))
    if vpairs:
        out.append((((0, 0), (0, 1)), frozenset((b, t) for t, b in vpairs)))
    return tuple(out)


def grid_ok(constraints, grid, wrap=False, wrap_y=False):
    """grid[x][y]; every placement fully inside must be allowed, or every
    placement taken modulo the grid size when wrap is set.  wrap_y wraps
    the y axis only: the grid is a strip around a height-h cylinder."""
    w, h = len(grid), len(grid[0])
    for offsets, allowed in constraints:
        mx = max(dx for dx, _ in offsets)
        my = max(dy for _, dy in offsets)
        xs = range(w) if wrap else range(w - mx)
        ys = range(h) if wrap or wrap_y else range(h - my)
        for x in xs:
            for y in ys:
                if tuple(grid[(x + dx) % w][(y + dy) % h] for dx, dy in offsets) not in allowed:
                    return False
    return True


def _unflatten(flat, w, h):
    return tuple(flat[x * h:(x + 1) * h] for x in range(w))


def squares_product(nstates, constraints, n):
    """All admissible n x n grids, by filtering the full product."""
    if nstates ** (n * n) > PRODUCT_CAP:
        raise ValueError("product too large; use squares_recursive")
    return [
        grid
        for flat in product(range(nstates), repeat=n * n)
        if grid_ok(constraints, grid := _unflatten(flat, n, n))
    ]


def squares_rect(nstates, constraints, w, h):
    """All admissible w x h grids, by cell-at-a-time search.  The whole
    assigned prefix is rechecked after every cell; no incremental tricks."""
    cells = [(x, y) for x in range(w) for y in range(h)]
    grid = [[None] * h for _ in range(w)]
    out = []

    def prefix_ok(assigned):
        for offsets, allowed in constraints:
            for x in range(w):
                for y in range(h):
                    if all((x + dx, y + dy) in assigned for dx, dy in offsets):
                        if tuple(grid[x + dx][y + dy] for dx, dy in offsets) not in allowed:
                            return False
        return True

    def go(k, assigned):
        if k == len(cells):
            out.append(tuple(tuple(col) for col in grid))
            return
        x, y = cells[k]
        assigned.add((x, y))
        for s in range(nstates):
            grid[x][y] = s
            if prefix_ok(assigned):
                go(k + 1, assigned)
        grid[x][y] = None
        assigned.discard((x, y))

    go(0, set())
    return out


def squares_recursive(nstates, constraints, n):
    """Square shorthand for squares_rect."""
    return squares_rect(nstates, constraints, n, n)


def wrapped_grids(nstates, constraints, p, q):
    """All p x q blocks whose doubly periodic unrolling satisfies every rule."""
    if nstates ** (p * q) > PRODUCT_CAP:
        raise ValueError("product too large")
    return [
        grid
        for flat in product(range(nstates), repeat=p * q)
        if grid_ok(constraints, grid := _unflatten(flat, p, q), wrap=True)
    ]


def wrapped_recursive(nstates, constraints, p, q):
    """Same answer as wrapped_grids: enumerate grids admissible without wrap,
    then keep the ones whose wrapped reading also passes."""
    return [g for g in squares_rect(nstates, constraints, p, q)
            if grid_ok(constraints, g, wrap=True)]


def cylinder_strips(nstates, constraints, w, q):
    """All w x q grids valid around the height-q cylinder, one column at a
    time; the whole grid is rechecked after every column."""
    cols = list(product(range(nstates), repeat=q))
    grids = [()]
    for _ in range(w):
        grids = [g + (c,) for g in grids for c in cols if grid_ok(constraints, g + (c,), wrap_y=True)]
    return grids


def weak_periodic_exists(nstates, constraints, maxq):
    """Whether some tiling has a vertical period q <= maxq and no
    horizontal period, or is the transpose of one.

    Per q and orientation: vertices are the valid cylinder strips as wide
    as the widest rule, an edge is a strip one column wider from its left
    to its right part, so the bi-infinite walks are exactly the vertically
    q-periodic tilings.  Vertices without an in-edge or an out-edge lie on
    no such walk and are trimmed until none is left.  The rest is a union
    of disjoint cycles (every walk periodic) exactly when it has as many
    edges as vertices.
    """
    flipped = tuple((tuple((dy, dx) for dx, dy in offs), allowed) for offs, allowed in constraints)
    for q in range(1, maxq + 1):
        for rules in (constraints, flipped):
            w = 1 + max(dx for offs, _ in rules for dx, _ in offs)
            edges = {(m[:-1], m[1:]) for m in cylinder_strips(nstates, rules, w + 1, q)}
            verts = None
            while verts != (keep := {a for a, _ in edges} & {b for _, b in edges}):
                verts = keep
                edges = {(a, b) for a, b in edges if a in keep and b in keep}
            if len(edges) > len(verts):
                return True
    return False


def orbit_canonical(grid):
    """Least translate of the block under both cyclic shifts."""
    p, q = len(grid), len(grid[0])
    return min(
        tuple(tuple(grid[(x + dx) % p][(y + dy) % q] for y in range(q)) for x in range(p))
        for dx in range(p)
        for dy in range(q)
    )


def minimal_period(grid):
    p, q = len(grid), len(grid[0])
    dp = min(d for d in range(1, p + 1) if p % d == 0
             and all(grid[x][y] == grid[(x + d) % p][y] for x in range(p) for y in range(q)))
    dq = min(d for d in range(1, q + 1) if q % d == 0
             and all(grid[x][y] == grid[x][(y + d) % q] for x in range(p) for y in range(q)))
    return dp, dq


def torus_classes(nstates, constraints, maxp, maxq):
    """Canonical blocks of all torus tilings with minimal period within bounds,
    one per translation orbit."""
    seen = set()
    for p in range(1, maxp + 1):
        for q in range(1, maxq + 1):
            if nstates ** (p * q) <= PRODUCT_CAP:
                grids = wrapped_grids(nstates, constraints, p, q)
            else:
                grids = wrapped_recursive(nstates, constraints, p, q)
            for grid in grids:
                if minimal_period(grid) == (p, q):
                    seen.add(orbit_canonical(grid))
    return seen


def box_grid(fn, reach):
    """Materialize fn on [-reach, reach]^2 as cols[x][y]."""
    size = 2 * reach + 1
    return [[fn(x - reach, y - reach) for y in range(size)] for x in range(size)]


def window_keys(grid, w, h):
    """Distinct w x h windows of a materialized box, as x-major flat tuples."""
    size = len(grid)
    out = set()
    for x in range(size - w + 1):
        cols = grid[x:x + w]
        for y in range(size - h + 1):
            out.add(tuple(s for col in cols for s in col[y:y + h]))
    return out


def occurrence_corners(fn, cells, reach):
    """Corners where the pattern (offset -> state dict, min corner at 0,0)
    matches, the pattern lying wholly inside the box."""
    items = sorted(cells.items())
    mx = max(dx for dx, _ in cells)
    my = max(dy for _, dy in cells)
    return [
        (cx, cy)
        for cx in range(-reach, reach - mx + 1)
        for cy in range(-reach, reach - my + 1)
        if all(fn(cx + dx, cy + dy) == s for (dx, dy), s in items)
    ]


def is_period(fn, v, reach):
    """Whether shifting by v fixes the box overlap."""
    vx, vy = v
    xs = range(max(-reach, -reach - vx), min(reach, reach - vx) + 1)
    ys = range(max(-reach, -reach - vy), min(reach, reach - vy) + 1)
    return all(fn(x + vx, y + vy) == fn(x, y) for x in xs for y in ys)


def lattice_rank(fn, reach, k):
    """0, 1, or 2 from the periods found in [-k, k]^2."""
    periods = [
        (vx, vy)
        for vx in range(-k, k + 1)
        for vy in range(-k, k + 1)
        if (vx, vy) != (0, 0) and is_period(fn, (vx, vy), reach)
    ]
    if not periods:
        return 0
    ax, ay = periods[0]
    if all(vx * ay == vy * ax for vx, vy in periods):
        return 1
    return 2


class _WindowCache:
    def __init__(self, fns, reach):
        self.grids = {name: box_grid(fn, reach) for name, fn in fns.items()}
        self.sets = {}

    def get(self, name, w, h):
        key = (name, w, h)
        if key not in self.sets:
            self.sets[key] = window_keys(self.grids[name], w, h)
        return self.sets[key]


def _isolated(name, live, bound, cache, reach, reach2):
    """A live member is isolated when one of its windows occurs in no other
    live member and pins a single tiling: it occurs exactly once, or its
    occurrences form one orbit under the member's own periods."""
    fn = live[name]
    wmax, hmax = bound
    for w in range(1, wmax + 1):
        for h in range(1, hmax + 1):
            mine = cache.get(name, w, h)
            others = set()
            for o in live:
                if o != name:
                    others |= cache.get(o, w, h)
            for key in sorted(mine - others):
                cells = {(dx, dy): key[dx * h + dy] for dx in range(w) for dy in range(h)}
                near = occurrence_corners(fn, cells, reach)
                far = occurrence_corners(fn, cells, reach2)
                if len(far) == len(near):
                    if len(far) == 1:
                        return True
                else:
                    bx, by = far[0]
                    if all(is_period(fn, (px - bx, py - by), reach2) for px, py in far[1:]):
                        return True
    return False


def brute_ranks(fns, bounds, reach, reach2):
    """Iterated isolation over plane functions: remove every isolated member,
    repeat; returns (name -> round, residue set)."""
    cache = _WindowCache(fns, reach)
    live = dict(fns)
    table = {}
    rnd = 0
    while live:
        rnd += 1
        isolated = [n for n in sorted(live) if _isolated(n, live, bounds[n], cache, reach, reach2)]
        if not isolated:
            break
        for n in isolated:
            table[n] = rnd
            del live[n]
    return table, set(live)


def le_matrix(fns, windows, reach):
    """Pairwise window-set inclusion, pair (a, b) compared at size
    max(windows[a], windows[b])."""
    cache = _WindowCache(fns, reach)
    names = sorted(fns)
    out = {}
    for a in names:
        for b in names:
            m = max(windows[a], windows[b])
            out[(a, b)] = cache.get(a, m, m) <= cache.get(b, m, m)
    return out


def strict_from(le):
    return {(a, b) for (a, b), v in le.items() if v and a != b and not le[(b, a)]}


def order_minimal(names, strict):
    return sorted(a for a in names if not any((b, a) in strict for b in names))


def order_maximal(names, strict):
    return sorted(a for a in names if not any((a, b) in strict for b in names))


def order_covers(names, strict):
    return sorted(
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in names)
    )


def order_levels(names, strict):
    """Longest strictly decreasing chain below each name."""
    level = {}

    def depth(a):
        if a not in level:
            below = [b for b in names if (b, a) in strict]
            level[a] = 1 + max((depth(b) for b in below), default=-1)
        return level[a]

    return {a: depth(a) for a in names}
