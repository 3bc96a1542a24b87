"""Banded grid presentations: finite descriptions of eventually periodic planes.

A presentation cuts the plane into x-bands and y-bands and fills each band
product with a periodic block, anchored at the global origin.  Everything a
band structure can ask (window languages, occurrence counts, period lattices,
recurrence type) reduces to finite scans, each as deep as the blocks it reads
repeat; the arguments are spelled out at the functions that rely on them.
Each axis's band geometry (its cuts, band steps, clippable middle bands, cut
span and lcm of steps) is one record, `_Axis`, built once per axis with the
plane's index, and every scan reads the index's (x, y) pair of them.
Positions and counts read the corner box: the band spans plus one step of each
extreme band (the lcm of its blocks' periods), a tall middle band cut to two
steps of inside corners (`_Axis.box`), which `occurrences` counts back.  Window
contents read only each run's own blocks' lcm (`content_boxes`), and period
tests two joint steps where middle bands overlap (`_Axis.joint`).

Every scan reads its plane's index (`_Analysis`, the plane's `_index`).  A
column of the plane depends only on its class, its x-band and x modulo that
band's step, so for a run height h and the row ranges a scan box keeps, the
index codes one column per class: at each kept row, the h cells from it
upward read as one base-k number (k the alphabet size, the lowest cell the
most significant digit), rolled from the code one row below by dropping its
top digit and shifting in one cell.  Rows outside the kept ranges are never
filled, and a larger box adds columns without rebuilding any.  A code is an
exact integer, not a hash, and distinct runs of one height get distinct
codes, so the tuple of a w x h window's w column codes names its content
exactly.  Codes of equal length order like their digit strings, so coded
keys sort exactly as the x-major state tuples they stand for: a search that
takes the least candidate picks the same window either way, and only the
window returned is decoded.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from math import isqrt, lcm

from .core import Alphabet, Pattern, TileSet, Vec2, _as_vec


@dataclass(frozen=True)
class Block:
    """u x v periodic fill, anchored at the origin: cell (x, y) reads data[x % u][y % v]."""

    u: int
    v: int
    data: tuple[tuple[int, ...], ...]  # data[x][y]

    def __post_init__(self):
        if self.u < 1 or self.v < 1:
            raise ValueError("block dimensions must be positive")
        if len(self.data) != self.u or any(len(col) != self.v for col in self.data):
            raise ValueError("block data shape mismatch")

    @classmethod
    def filled(cls, u: int, v: int, state: int) -> "Block":
        return cls(u, v, tuple((state,) * v for _ in range(u)))


@dataclass(frozen=True)
class GridPresentation:
    """regions[ix][iy] fills the product of the ix-th x-band and iy-th y-band.

    Band ix of cuts (c_1 < ... < c_r) is (-inf, c_1) for ix = 0, [c_ix, c_ix+1)
    in the middle, [c_r, inf) for ix = r; blocks are anchored at the origin, so
    shifting a presentation re-anchors its data.
    """

    alphabet: Alphabet
    xcuts: tuple[int, ...]
    ycuts: tuple[int, ...]
    regions: tuple[tuple[Block, ...], ...]

    def __post_init__(self):
        for cuts in (self.xcuts, self.ycuts):
            if any(a >= b for a, b in zip(cuts, cuts[1:])):
                raise ValueError("cuts must be strictly increasing")
        if len(self.regions) != len(self.xcuts) + 1:
            raise ValueError("need one region column per x-band")
        k = len(self.alphabet)
        for col in self.regions:
            if len(col) != len(self.ycuts) + 1:
                raise ValueError("need one region per y-band")
            for b in col:
                for data_col in b.data:
                    for s in data_col:
                        if not isinstance(s, int) or not 0 <= s < k:
                            raise ValueError("block state out of alphabet range")

    @cached_property
    def _index(self) -> _Analysis:
        """The plane's scan index, built on first use; not a field, so ==, hash and repr ignore it."""
        return _Analysis(self)

    @cached_property
    def _lattice(self) -> PeriodLattice:
        """The plane's period lattice, found on first use (`period_lattice`); not a field either.

        Any period with a nonzero x-component forces (ux, 0) to be a period: far
        enough along the period direction every cell sits in an extreme x-band,
        where the plane repeats with step ux, and the cut structure transports
        that repetition back everywhere.  So the x-projection of the lattice is
        nontrivial iff (ux, 0) is a period, and likewise for y; candidate
        generators then range over divisors of the block lcms.  One search serves
        every rank: c0 the least vertical period (0 for none), then, with a horizontal
        period, the least (a, b) with a | ux and 0 <= b < max(c0, 1).  It tests what the
        old four-case search did, in its order, so each plane pays the same tests.
        """
        ux, vy = block_lcms(self)
        has_h, has_v = _is_period(self, Vec2(ux, 0)), _is_period(self, Vec2(0, vy))
        c0 = next(d for d in _divisors(vy) if _is_period(self, Vec2(0, d))) if has_v else 0
        gens = (Vec2(0, c0),) if c0 else ()
        if has_h:
            a, b = next((a, b) for a in _divisors(ux) for b in range(max(c0, 1)) if _is_period(self, Vec2(a, b)))
            gens = (Vec2(a, b), *gens)
        return PeriodLattice(len(gens), gens)

    @cached_property
    def _settled(self) -> Vec2:
        """Per axis, the cut span plus two lcm periods, found on first use; not a field either."""
        return Vec2(*(ax.span + 2 * ax.lcm for ax in self._index.axes))

    def __reduce__(self):
        # copies and pickles rebuild from the fields, never carrying an index, a lattice or a size
        return GridPresentation, (self.alphabet, self.xcuts, self.ycuts, self.regions)


def uniform(alphabet: Alphabet, state: int) -> GridPresentation:
    return GridPresentation(alphabet, (), (), ((Block.filled(1, 1, state),),))


def cell_at(g: GridPresentation, v) -> int:
    v = _as_vec(v)
    b = g.regions[bisect_right(g.xcuts, v.x)][bisect_right(g.ycuts, v.y)]
    return b.data[v.x % b.u][v.y % b.v]


def block_lcms(g: GridPresentation) -> Vec2:
    """Componentwise lcm of block periods (of band steps, `_Axis.lcm`); the whole
    plane repeats with these steps inside any single unbounded band."""
    return Vec2(*(ax.lcm for ax in g._index.axes))


def _corners(cuts: tuple[int, ...], w: int, lo: int, hi: int, mids) -> tuple[range, ...]:
    """Nonempty increasing corner ranges on one axis whose length-w runs
    realize every run content of a plane cut at cuts that repeats with step
    lo below them and hi above: every straddling corner, then exactly lo of
    the low band's and hi of the high band's (lo with no cut, then lo == hi).
    A run at a corner in a..b - w of middle band (a, b, m) in mids repeats
    under m: over 2m such corners are cut to the first 2m, so a repeating
    run keeps two copies m apart, and kept c stands for c, c + 2m, ... <= b - w."""
    if not cuts:
        return (range(0, lo),)
    kept, start = [], min(cuts) - w - lo + 1
    for a, b, m in mids:
        if b - w - a >= 2 * m:
            kept.append(range(start, a + 2 * m))
            start = b - w + 1
    last = range(start, max(cuts) + hi)
    return (*kept, last) if last else tuple(kept)


class _Axis:
    """One axis of a plane's band geometry: its cuts, each band's step (the lcm of
    its blocks' periods along the axis), the extreme steps lo and hi, the lcm of
    all steps and the cut span; mids, the middle bands (a, b, m) of step m that
    can clip (b - a > 2m); local, some band holds two block periods (only then
    can a run be cut).  `joint`'s 16-row rule needs no flag: it keeps only long bands."""

    __slots__ = ("cuts", "steps", "lo", "hi", "lcm", "span", "mids", "local")

    def __init__(self, cuts: tuple[int, ...], periods: list[set[int]]):
        self.cuts, self.steps = cuts, [lcm(*p) for p in periods]
        self.lo, self.hi, self.lcm = self.steps[0], self.steps[-1], lcm(*self.steps)
        self.span = cuts[-1] - cuts[0] if cuts else 0
        self.mids = [(a, b, m) for a, b, m in zip(cuts, cuts[1:], self.steps[1:-1]) if b - a > 2 * m]
        self.local = any(len(p) > 1 for p in periods)

    def box(self, w: int) -> tuple[range, ...]:
        """The corner box's ranges for length-w runs (`_Analysis.corner_box`)."""
        return _corners(self.cuts, w, self.lo, self.hi, self.mids)

    def runs(self, w: int) -> list[tuple[range, int, int]]:
        """The box's corners cut at c - w + 1 and c for each cut c, as (run, first band,
        last band): the length-w runs at one run's corners touch the same bands."""
        edges = sorted({e for c in self.cuts for e in (c - w + 1, c)})
        bounds = ([r.start, *(e for e in edges if r.start < e < r.stop), r.stop] for r in self.box(w))
        return [(range(lo, hi), bisect_right(self.cuts, lo), bisect_right(self.cuts, lo + w - 1))
                for es in bounds for lo, hi in zip(es, es[1:])]

    def copies(self, w: int, c: int) -> int:
        """Corners that kept corner c of `box(w)` stands for: c, c + 2m, ... <= b - w in band (a, b, m), else 1."""
        return next(((b - w - c) // (2 * m) + 1 for a, b, m in self.mids if a <= c <= b - w), 1)

    def ends(self, w: int, c: int) -> list[int]:
        """Signed steps of the extreme bands the length-w run at c lies inside: -lo below the cuts, hi above."""
        below, above = (c + w - 1 < self.cuts[0], c >= self.cuts[-1]) if self.cuts else (True, True)
        return [s for s, inside in ((-self.lo, below), (self.hi, above)) if inside]

    def joint(self, other: _Axis, d: int) -> tuple[range, ...]:
        """The w = 1 range of the comparison box of this axis's plane and other's moved
        by d (`_agree`): both cut sets, both planes' steps' lcm on each side, and each
        overlap of their middle bands, where both repeat with the lcm m of their steps,
        cut to its first 2m where that skips more than 16 (a range costs a read about
        what a few dozen cells do), which needs both bands over 2s + 16 and 2t + 16 long."""
        mids = [(lo, hi, m) for a, b, s in self.mids for c, e, t in other.mids
                if (hi := min(b, e + d)) - (lo := max(a, c + d)) - 2 * (m := lcm(s, t)) > 16]
        cuts = self.cuts + tuple(c + d for c in other.cuts)
        return _corners(cuts, 1, lcm(self.lo, other.lo), lcm(self.hi, other.hi), mids)


class _Analysis:
    """Per-presentation scan index: the band geometry of each axis, as axes =
    (x, y) (`_Axis`), the code columns of the column classes asked for, per
    run height and kept row ranges, and the coded window-key sets asked for so far."""

    __slots__ = ("xcuts", "ycuts", "regions", "axes", "k", "keys", "codes")

    def __init__(self, g: GridPresentation):
        # the plane's parts, not the plane: no reference cycle, so the index dies with its plane
        self.xcuts, self.ycuts, self.regions = g.xcuts, g.ycuts, g.regions
        # per axis, each band's block periods along it
        self.axes = (_Axis(g.xcuts, [{b.u for b in col} for col in g.regions]),
                     _Axis(g.ycuts, [{b.v for b in row} for row in zip(*g.regions)]))
        self.k = len(g.alphabet)
        self.keys: dict[tuple[int, int], frozenset] = {}
        self.codes: dict[tuple, dict[tuple[int, int], list[int]]] = {}  # (h, ys) -> (x-band, x mod step) -> codes

    def corner_box(self, w: int, h: int) -> tuple[tuple[range, ...], tuple[range, ...]]:
        """Corner ranges whose w x h windows realize every window content, the
        box that positions and counts read (contents read `content_boxes`).
        A window inside an extreme band repeats under that band's step along
        its axis, whatever it crosses on the other: every block it reads lies
        in that band, has its period dividing the step, and is anchored at the
        origin.  So exactly one step of corners inside each extreme band (one
        step's worth with no cut) plus the straddling ones cover every content,
        and a tall middle band keeps two steps of inside corners (`_corners`)."""
        return self.axes[0].box(w), self.axes[1].box(h)

    def column(self, x: int, *rows: range) -> list[int]:
        """The cells of column x at each range of rows in turn, filled y-band by y-band from the blocks' own columns."""
        blocks, ycuts, col = self.regions[bisect_right(self.xcuts, x)], self.ycuts, []
        for r in rows:
            i = bisect_right(ycuts, r.start)
            edges = [r.start, *ycuts[i:bisect_right(ycuts, r.stop - 1)], r.stop]
            for b, lo, hi in zip(blocks[i:], edges, edges[1:]):
                s, n = lo % b.v, hi - lo
                col += (b.data[x % b.u] * ((s + n) // b.v + 1))[s:s + n]
        return col

    def _codes(self, x: int, h: int, ys: tuple[range, ...]) -> list[int]:
        """Column x's height-h codes at the rows of ys, each rolled from the
        one below it: drop the top digit, shift in the next cell."""
        k, top, codes = self.k, self.k ** (h - 1), []
        for r in ys:
            cells, code = self.column(x, range(r.start, r.stop + h - 1)), 0
            for s in cells[:h - 1]:
                code = code * k + s
            for s0, s1 in zip(cells, cells[h - 1:]):
                code = code * k + s1
                codes.append(code)
                code -= s0 * top
        return codes

    def windows(self, w: int, h: int, xs: tuple[range, ...], ys: tuple[range, ...]):
        """Coded keys of the w x h windows with corners xs x ys (tuples of increasing ranges,
        read concatenated), x-major: each key is the tuple of the window's w column codes.
        A class's code column covers the rows of ys only and is built once per (h, ys)."""
        cache, xcuts, xsteps = self.codes.setdefault((h, ys), {}), self.xcuts, self.axes[0].steps
        cols, starts = [], []  # the code column of each kept column's class, and each corner's first column
        for r in xs:
            starts += range(len(cols), len(cols) + len(r))
            for x in range(r[0], r[-1] + w):
                j = bisect_right(xcuts, x)
                col = cache.get(c := (j, x % xsteps[j]))
                if col is None:
                    col = cache[c] = self._codes(x, h, ys)
                cols.append(col)
        return chain.from_iterable(zip(*cols[i:i + w]) for i in starts)

    def content_boxes(self, w: int, h: int) -> dict[tuple[range, bool], list[range]]:
        """The corner box's runs (`_Axis.runs`) paired across the axes, as (y-run, outside) -> x-runs,
        outside when the windows lie inside an extreme band.  Where a run's windows lie in one
        band on an axis, the blocks they read repeat along it with the lcm L of their periods
        there, anchored at the origin: the run is cut to its first L corners, which show every
        content it does (never its counts)."""
        (x, y), boxes = self.axes, {}
        nx, ny, yruns = len(x.cuts), len(y.cuts), y.runs(h)
        for xr, x0, x1 in x.runs(w):
            for yr, y0, y1 in yruns:
                blocks = [b for col in self.regions[x0:x1 + 1] for b in col[y0:y1 + 1]]
                xs = xr[:lcm(*[b.u for b in blocks])] if x0 == x1 else xr
                ys = yr[:lcm(*[b.v for b in blocks])] if y0 == y1 else yr
                boxes.setdefault((ys, x1 == 0 or x0 == nx or y1 == 0 or y0 == ny), []).append(xs)
        return boxes

    def rect_keys(self, w: int, h: int) -> frozenset:
        """All distinct w x h window contents as coded keys (see the module docstring), read off
        the content boxes, or off the corner box in one read where no block repeats faster than its band."""
        got = self.keys.get((w, h))
        if got is None:
            if self.axes[0].local or self.axes[1].local:
                boxes = self.content_boxes(w, h).items()
                keys = chain.from_iterable(self.windows(w, h, tuple(xs), (ys,)) for (ys, _), xs in boxes)
            else:
                keys = self.windows(w, h, *self.corner_box(w, h))
            got = self.keys[(w, h)] = frozenset(keys)
        return got


def _decode(key: tuple[int, ...], h: int, k: int) -> tuple[int, ...]:
    """x-major state tuple of a coded window key of height h over k states."""
    return tuple(code // k ** (h - 1 - dy) % k for code in key for dy in range(h))


def _key_pattern(alphabet: Alphabet, key: tuple[int, ...], h: int) -> Pattern:
    flat = _decode(key, h, len(alphabet))
    return Pattern._trusted(alphabet, {Vec2(dx, dy): flat[dx * h + dy] for dx in range(len(key)) for dy in range(h)})


def window_at(g: GridPresentation, corner, n: int) -> Pattern:
    corner = _as_vec(corner)
    if n < 1:
        raise ValueError("window size must be positive")
    cells = {Vec2(dx, dy): cell_at(g, corner + Vec2(dx, dy)) for dx in range(n) for dy in range(n)}
    return Pattern(g.alphabet, cells)


def rect_window_keys(g: GridPresentation, w: int, h: int) -> frozenset:
    """All distinct w x h window contents, as x-major state tuples."""
    if w < 1 or h < 1:
        raise ValueError("window size must be positive")
    k = len(g.alphabet)
    return frozenset(_decode(key, h, k) for key in g._index.rect_keys(w, h))


def pattern_set(g: GridPresentation, n: int) -> set[Pattern]:
    if n < 1:
        raise ValueError("window size must be positive")
    return {_key_pattern(g.alphabet, key, n) for key in g._index.rect_keys(n, n)}


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Finite:
    count: int


@dataclass(frozen=True)
class Infinite:
    pass


def _occurrence_scan(g: GridPresentation, w: int, h: int, match) -> tuple[list[Vec2], set[Vec2]]:
    """Corners within the corner box of the w x h windows whose coded
    key is in match, plus the set of band-repeat directions witnessed by
    occurrences lying inside an unbounded band (those generate infinite
    occurrence families).  A direction is its band's own step, the least
    repeat the box guarantees: the box may hold one copy of such an
    occurrence, and its copy one step further out is an occurrence too."""
    a = g._index
    (x, y), box = a.axes, a.corner_box(w, h)
    xs, ys = ([*chain.from_iterable(rs)] for rs in box)
    n = len(ys)
    hits = compress(count(), map(match.__contains__, a.windows(w, h, *box)))
    positions = [Vec2(xs[t // n], ys[t % n]) for t in hits]
    dirs = {Vec2(s, 0) for p in positions for s in x.ends(w, p.x)}
    dirs.update(Vec2(0, s) for p in positions for s in y.ends(h, p.y))
    return positions, dirs


def occurrences(g: GridPresentation, p: Pattern):
    """Classify how often p occurs: never, finitely (with exact count), or infinitely.

    Every occurrence either straddles a cut on both axes (then it lies in the
    scan box literally, or a kept corner stands for it and its copies down a
    clipped middle band) or sits inside an unbounded band (then band repetition
    yields infinitely many copies, and a representative lands in the box).
    p occurs wherever its bounding-box window has one of the contents that
    agree with p on p's cells.
    """
    if p.alphabet != g.alphabet:
        raise ValueError("alphabet mismatch")
    p = p.normalize()
    w, h = p.extents()
    cells = [(c.x * h + c.y, s) for c, s in p.cells.items()]
    k = len(g.alphabet)
    flats = ((key, _decode(key, h, k)) for key in g._index.rect_keys(w, h))
    match = {key for key, flat in flats if all(flat[i] == s for i, s in cells)}
    if not match:
        return Zero()
    positions, dirs = _occurrence_scan(g, w, h, match)
    if dirs:
        return Infinite()
    x, y = g._index.axes
    return Finite(sum(x.copies(w, c.x) * y.copies(h, c.y) for c in positions))


def is_valid(g: GridPresentation, ts: TileSet) -> bool:
    """Whether g presents a tiling for ts, as a batch of one (`_first_invalid`)."""
    if ts.alphabet != g.alphabet:
        raise ValueError("alphabet mismatch")
    return _first_invalid([g], ts) is None


def _first_invalid(planes, ts: TileSet) -> int | None:
    """Index of the first plane not a tiling for ts, or None (alphabets checked by the caller).  Keys name
    contents exactly, so one part check on the extent window sets' union clears all; a failure is traced set by set."""
    sets = [g._index.rect_keys(ts.hextent, ts.vextent) for g in planes]
    bad = (i for i, keys in enumerate(sets) if not _parts_allowed(keys, ts))
    return None if _parts_allowed(frozenset().union(*sets), ts) else next(bad)


def _parts_allowed(keys, ts: TileSet) -> bool:
    """The part check: whether the extent window keys show only allowed shape contents.  A shape's
    box at p is the corner part of the extent window at p, checked once per distinct part."""
    k, height = len(ts.alphabet), ts.vextent
    for cells, allowed in zip(ts.shape_cells, ts.allowed_keys):
        w, h = max(c.x for c in cells) + 1, max(c.y for c in cells) + 1
        idx = [c.x * h + c.y for c in cells]
        cut = k ** (height - h)  # a code's leading h digits are its lowest h rows
        for part in {tuple([code // cut for code in key[:w]]) for key in keys}:
            flat = _decode(part, h, k)
            if tuple(flat[i] for i in idx) not in allowed:
                return False
    return True


def shift(g: GridPresentation, v) -> GridPresentation:
    """Presentation of the same plane translated by v (content moves by +v)."""
    v = _as_vec(v)

    def roll(b: Block) -> Block:
        return Block(
            b.u,
            b.v,
            tuple(
                tuple(b.data[(i - v.x) % b.u][(j - v.y) % b.v] for j in range(b.v))
                for i in range(b.u)
            ),
        )

    return GridPresentation(
        g.alphabet,
        tuple(c + v.x for c in g.xcuts),
        tuple(c + v.y for c in g.ycuts),
        tuple(tuple(roll(b) for b in col) for col in g.regions),
    )


def transpose(g: GridPresentation) -> GridPresentation:
    def flip(b: Block) -> Block:
        return Block(b.v, b.u, tuple(tuple(b.data[i][j] for i in range(b.u)) for j in range(b.v)))

    regions = tuple(
        tuple(flip(g.regions[ix][iy]) for ix in range(len(g.xcuts) + 1))
        for iy in range(len(g.ycuts) + 1)
    )
    return GridPresentation(g.alphabet, g.ycuts, g.xcuts, regions)


def _agree(a1: _Analysis, a2: _Analysis, v: Vec2) -> bool:
    """Whether a1's plane at p equals a2's plane at p - v for every p in the
    comparison box of the two planes, a2's moved by v: the cells of each
    axis's joint range (`_Axis.joint`), one read per column."""
    xs, ys = map(_Axis.joint, a1.axes, a2.axes, v)
    moved = [range(r.start - v.y, r.stop - v.y) for r in ys] if v.y else ys
    return all(a1.column(x, *ys) == a2.column(x - v.x, *moved) for x in chain.from_iterable(xs))


def equal(g1: GridPresentation, g2: GridPresentation) -> bool:
    """Exact configuration equality via one shared scan box.

    Beyond the union of both cut sets each plane lies in its own extreme band
    on that side, so both repeat with the lcm of their two steps there, and
    agreement on the box (cut span plus that joint step of margin per side)
    propagates to the whole plane.
    """
    if g1.alphabet != g2.alphabet:
        raise ValueError("alphabet mismatch")
    return _agree(g1._index, g2._index, Vec2(0, 0))


def _is_period(g: GridPresentation, v: Vec2) -> bool:
    """equal(g, shift(g, v)), read off g's own columns: the shifted plane has
    the same band geometry with its cuts moved by v."""
    return _agree(g._index, g._index, v)


@dataclass(frozen=True)
class PeriodLattice:
    """Translation symmetry group, with generators in row-echelon shape:
    rank 2 -> ((a, b), (0, c)) with a, c > 0 and 0 <= b < c; rank 1 -> one
    axis-aligned generator; rank 0 -> none."""

    rank: int
    generators: tuple[Vec2, ...]

    def contains(self, v) -> bool:
        v = _as_vec(v)
        if self.rank == 0:
            return v == Vec2(0, 0)
        if self.rank == 1:
            (a, b), = self.generators
            if a == 0:
                return v.x == 0 and v.y % b == 0
            return v.y == 0 and v.x % a == 0
        (a, b), (_, c) = self.generators
        if v.x % a != 0:
            return False
        return (v.y - (v.x // a) * b) % c == 0


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def period_lattice(g: GridPresentation) -> PeriodLattice:
    """Exact period lattice of the presented plane (`GridPresentation._lattice`)."""
    return g._lattice


@dataclass(frozen=True)
class TypeA:
    """Every finite pattern of the plane recurs infinitely often."""


@dataclass(frozen=True)
class TypeB:
    """Some pattern occurs exactly once; witness is a minimal-size one."""

    witness: Pattern


def _dims_ascending(wmax: int, hmax: int):
    """Every (w, h) with w <= wmax and h <= hmax, lazily, ordered by area,
    then longer side, then w."""
    for area in range(1, wmax * hmax + 1):
        ws = {d for e in range(1, isqrt(area) + 1) if area % e == 0 for d in (e, area // e)}
        dims = [(w, area // w) for w in ws if w <= wmax and area // w <= hmax]
        yield from sorted(dims, key=lambda d: (max(d), d[0]))


def type_of(g: GridPresentation):
    """Recurrence type of the plane.

    A nontrivial period lattice makes every pattern recur along it.  With a
    trivial lattice some window occurs exactly once: a window covering the cut
    box plus one lcm margin occurs finitely often (an occurrence inside an
    extreme band would splice band repetition into a global period), and the
    hull of its occurrences supports a once-occurring window of per-axis size
    at most 3 * span + 4 * lcm - 2, which bounds the witness search below.
    At each size only the straddle zone is counted: the corners outside it
    put the window inside an extreme band, where it recurs, so a window
    occurs once iff it has one corner in the zone (a window repeating down
    a clipped band has two there) and no content box outside shows it.
    """
    if period_lattice(g).rank >= 1:
        return TypeA()
    # rank 0 forces cuts on both axes
    a = g._index
    for w, h in _dims_ascending(*(3 * ax.span + 4 * ax.lcm - 2 for ax in a.axes)):
        # steps 0: corners from the first cut - w + 1 to the last cut - 1, clipped like the box
        cxs, cys = (_corners(ax.cuts, n, 0, 0, ax.mids) for ax, n in zip(a.axes, (w, h)))
        if not cxs or not cys:
            continue
        once = {key for key, n in Counter(a.windows(w, h, cxs, cys)).items() if n == 1}
        for (ys, outside), xs in a.content_boxes(w, h).items() if once else ():
            if outside and once:
                once.difference_update(a.windows(w, h, tuple(xs), (ys,)))
        if once:
            return TypeB(_key_pattern(g.alphabet, min(once), h))
    raise AssertionError("trivial lattice admits a once-occurring window within the bound")
