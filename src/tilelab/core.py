"""Ground types: alphabets, finite patterns, tile sets, torus tilings."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple


class Vec2(NamedTuple):
    x: int
    y: int

    def __add__(self, other):
        return Vec2(self.x + other[0], self.y + other[1])

    def __radd__(self, other):
        return Vec2(other[0] + self.x, other[1] + self.y)

    def __sub__(self, other):
        return Vec2(self.x - other[0], self.y - other[1])

    def __neg__(self):
        return Vec2(-self.x, -self.y)


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered set of cell states, addressed by index everywhere else."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("alphabet tokens must be distinct")
        for t in self.tokens:
            if not t or any(c.isspace() for c in t) or "#" in t or t == ".":
                raise ValueError(f"bad alphabet token {t!r}")

    def __len__(self):
        return len(self.tokens)

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}


def _as_vec(v) -> Vec2:
    return v if isinstance(v, Vec2) else Vec2(v[0], v[1])


class Pattern:
    """Partial map from a finite set of cells to states of one alphabet.

    Equality and hashing look at the cell map as placed, so translates of
    the same shape compare unequal; normalize() moves the componentwise-minimal
    corner to the origin (a pattern already placed so is returned as itself).
    """

    __slots__ = ("alphabet", "cells", "_hash")

    def __init__(self, alphabet: Alphabet, cells: dict):
        if not cells:
            raise ValueError("pattern must have at least one cell")
        fixed = {}
        for v, s in cells.items():
            if not isinstance(s, int) or not 0 <= s < len(alphabet):
                raise ValueError(f"state {s} out of range")
            fixed[_as_vec(v)] = s
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "cells", fixed)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, cells: dict) -> "Pattern":
        """Unchecked constructor: cells must be a nonempty Vec2-keyed map of in-range states, owned by the result."""
        p = object.__new__(cls)
        object.__setattr__(p, "alphabet", alphabet)
        object.__setattr__(p, "cells", cells)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Pattern is immutable")

    def __reduce__(self):
        return (Pattern, (self.alphabet, self.cells))

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.alphabet == other.alphabet and self.cells == other.cells

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.alphabet, frozenset(self.cells.items()))))
        return self._hash

    def __repr__(self):
        w, h = self.extents()
        return f"Pattern({w}x{h}, {len(self.cells)} cells)"

    def domain(self) -> frozenset[Vec2]:
        return frozenset(self.cells)

    def sorted_cells(self) -> list[Vec2]:
        return sorted(self.cells)

    def key(self) -> tuple:
        """States in (x, y)-sorted cell order; total order on same-shape patterns."""
        return tuple(self.cells[c] for c in sorted(self.cells))

    def min_corner(self) -> Vec2:
        xs, ys = zip(*self.cells)
        return Vec2(min(xs), min(ys))

    def extents(self) -> tuple[int, int]:
        xs, ys = zip(*self.cells)
        return max(xs) - min(xs) + 1, max(ys) - min(ys) + 1

    def translate(self, v) -> "Pattern":
        return Pattern._trusted(self.alphabet, {c + v: s for c, s in self.cells.items()})

    def normalize(self) -> "Pattern":
        xs, ys = zip(*self.cells)  # min_corner() without a Vec2: cli._pattern_json normalizes every square it prints
        dx, dy = min(xs), min(ys)
        return self.translate((-dx, -dy)) if dx or dy else self

    def is_rectangular(self) -> bool:
        w, h = self.extents()
        return len(self.cells) == w * h

    @classmethod
    def from_rows(cls, alphabet: Alphabet, rows: Iterable[str]) -> "Pattern":
        """Build a rectangular pattern from rows of tokens, top row first."""
        grid = [r.split() for r in rows]
        if not grid or any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("rows must be nonempty and equal length")
        h = len(grid)
        cells = {}
        for t, row in enumerate(grid):
            for x, tok in enumerate(row):
                if tok not in alphabet.index:
                    raise ValueError(f"token {tok!r} not in alphabet")
                cells[Vec2(x, h - 1 - t)] = alphabet.index[tok]
        return cls(alphabet, cells)

    def rows(self) -> list[str]:
        """Rectangular pattern as rows of tokens, top row first."""
        p = self.normalize()
        w, h = p.extents()
        if len(p.cells) != w * h:
            raise ValueError("pattern is not rectangular")
        return p._top_rows(w, h)

    def _top_rows(self, w: int, h: int) -> list[str]:
        """rows() of a normalized w x h rectangular pattern."""
        toks, cells = self.alphabet.tokens, self.cells
        return [" ".join([toks[cells[Vec2(x, y)]] for x in range(w)]) for y in range(h - 1, -1, -1)]


def appears_in(needle: Pattern, haystack: Pattern) -> bool:
    """True when some translate of needle agrees with haystack on its domain."""
    if needle.alphabet != haystack.alphabet:
        raise ValueError("alphabet mismatch")
    nc = needle.sorted_cells()
    anchor = nc[0]
    for spot, s in haystack.cells.items():
        if s != needle.cells[anchor]:
            continue
        d = spot - anchor
        if all(haystack.cells.get(c + d) == needle.cells[c] for c in nc[1:]):
            return True
    return False


# the cells of a pair's two tokens, in the order written: hpair (left, right), vpair (top, bottom)
_PAIR_CELLS = {"hpair": (Vec2(0, 0), Vec2(1, 0)), "vpair": (Vec2(0, 1), Vec2(0, 0))}


def _add_pair(tables: dict, head: str, a: int, b: int) -> None:
    """Adds the pair a b, placed as _PAIR_CELLS[head] says, to its shape's table in sorted-cell order."""
    cells, key = _PAIR_CELLS[head], (a, b)
    if cells[0] > cells[1]:
        cells, key = cells[::-1], key[::-1]
    tables.setdefault(cells, set()).add(key)


def _add_pattern(tables: dict, cells: dict) -> None:
    """Adds the pattern {(x, y): state}, moved to the origin, to its shape's table in sorted-cell order."""
    order = sorted(cells)
    x0, y0 = order[0][0], min(y for _, y in order)
    tables.setdefault(tuple(Vec2(x - x0, y - y0) for x, y in order), set()).add(tuple(map(cells.__getitem__, order)))


class TileSet:
    """Local constraint system: per shape, the set of allowed patterns.

    Shapes are stored normalized (minimal corner at origin) and deduplicated;
    a configuration is a tiling when every translate of every shape reads an
    allowed pattern.  A tile set is held as its key tables: shape_cells, each
    shape's cells sorted, and allowed_keys, its allowed patterns as state
    tuples in that order.  allowed, the patterns, is built from them on first
    read unless the public constructor was given it.
    """

    def __init__(self, alphabet: Alphabet, shapes: tuple[frozenset[Vec2], ...],
                 allowed: tuple[frozenset[Pattern], ...]):
        if not shapes:
            raise ValueError("tile set needs at least one shape")
        if len(shapes) != len(allowed):
            raise ValueError("shapes and allowed must align")
        if len(set(shapes)) != len(shapes):
            raise ValueError("duplicate shape")
        for shape, pats in zip(shapes, allowed):
            if not shape:
                raise ValueError("empty shape")
            if min(c.x for c in shape) != 0 or min(c.y for c in shape) != 0:
                raise ValueError("shape not normalized")
            for p in pats:
                if p.alphabet is not alphabet and p.alphabet != alphabet:
                    raise ValueError("pattern alphabet mismatch")
                if p.cells.keys() != shape:
                    raise ValueError("pattern domain differs from its shape")
        cells = tuple(tuple(sorted(s)) for s in shapes)
        keys = tuple(frozenset(tuple(map(p.cells.__getitem__, c)) for p in pats) for c, pats in zip(cells, allowed))
        self.__dict__.update(alphabet=alphabet, shapes=shapes, allowed=allowed, shape_cells=cells, allowed_keys=keys)

    @classmethod
    def _tables(cls, alphabet: Alphabet, tables: dict) -> "TileSet":
        """Unchecked constructor from {sorted shape cells: allowed state tuples}: each shape's cells
        are Vec2s at the origin and its tuples in-range states. Shapes sort by size, then cells."""
        if not tables:
            raise ValueError("tile set needs at least one shape")
        order = sorted(tables, key=lambda cells: (len(cells), cells))
        ts = object.__new__(cls)
        ts.__dict__.update(alphabet=alphabet, shapes=tuple(map(frozenset, order)), shape_cells=tuple(order),
                           allowed_keys=tuple(frozenset(tables[c]) for c in order))
        return ts

    def __setattr__(self, name, value):
        raise AttributeError("TileSet is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.shapes, self.allowed_keys) == (other.alphabet, other.shapes, other.allowed_keys)

    def __hash__(self):
        return hash((self.alphabet, self.shapes, self.allowed_keys))

    def __repr__(self):
        return f"TileSet(alphabet={self.alphabet!r}, shapes={self.shapes!r}, allowed={self.allowed!r})"

    @classmethod
    def from_allowed(cls, alphabet: Alphabet, patterns: Iterable[Pattern]) -> "TileSet":
        """Group patterns by normalized shape; placement offsets are dropped."""
        tables: dict[tuple[Vec2, ...], set[tuple[int, ...]]] = {}
        for p in patterns:
            if p.alphabet is not alphabet and p.alphabet != alphabet:
                raise ValueError("pattern alphabet mismatch")
            _add_pattern(tables, p.cells)
        return cls._tables(alphabet, tables)

    @classmethod
    def dominoes(cls, alphabet: Alphabet, hpairs: Iterable[tuple[str, str]],
                 vpairs: Iterable[tuple[str, str]]) -> "TileSet":
        """Nearest-neighbour system from allowed (left, right) and (top, bottom) token pairs."""
        idx, tables = alphabet.index, {}
        for head, pairs in (("hpair", hpairs), ("vpair", vpairs)):
            for pair in pairs:  # KeyError for an unknown token, ValueError for a pair not of two
                _add_pair(tables, head, *[idx[t] for _, t in zip((0, 1), pair, strict=True)])
        return cls._tables(alphabet, tables)

    @cached_property
    def allowed(self) -> tuple[frozenset[Pattern], ...]:
        al = self.alphabet
        return tuple(frozenset(Pattern._trusted(al, dict(zip(cells, key))) for key in keys)
                     for cells, keys in zip(self.shape_cells, self.allowed_keys))

    @cached_property
    def hextent(self) -> int:
        """Max shape width; 1 for an unconstrained system."""
        return max((max(c.x for c in s) + 1 for s in self.shapes), default=1)

    @cached_property
    def vextent(self) -> int:
        return max((max(c.y for c in s) + 1 for s in self.shapes), default=1)

    def transpose(self) -> "TileSet":
        """x and y swapped: each key is permuted into its flipped shape's sorted-cell order."""
        tables = {}
        for cells, keys in zip(self.shape_cells, self.allowed_keys):
            order = sorted(range(len(cells)), key=lambda i: cells[i][::-1])
            tables[tuple(Vec2(cells[i].y, cells[i].x) for i in order)] = frozenset(
                tuple(map(key.__getitem__, order)) for key in keys)
        return TileSet._tables(self.alphabet, tables)


_COMPLEMENT_LIMIT = 1 << 16  # largest state cube a complement may enumerate


def _complement(ts: TileSet) -> TileSet:
    """Each allowed set complemented inside Q^shape. Refuses, before enumerating
    anything, a shape whose state cube exceeds _COMPLEMENT_LIMIT."""
    k = len(ts.alphabet)
    for cells in ts.shape_cells:
        total = k ** len(cells)
        if total > _COMPLEMENT_LIMIT:
            raise ValueError(f"complement of size {total} over shape of {len(cells)} cells refused")
    return TileSet._tables(ts.alphabet, {cells: {c for c in product(range(k), repeat=len(cells)) if c not in keys}
                                         for cells, keys in zip(ts.shape_cells, ts.allowed_keys)})


def to_forbidden(ts: TileSet) -> dict[frozenset[Vec2], frozenset[Pattern]]:
    """The patterns of _complement(ts), keyed by shape in ts.shapes order."""
    c = _complement(ts)
    return {shape: c.allowed[c.shapes.index(shape)] for shape in ts.shapes}


@dataclass(frozen=True)
class TorusTiling:
    """p x q block of states read with both coordinates wrapped."""

    p: int
    q: int
    block: tuple[tuple[int, ...], ...]  # block[x][y]

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("torus dimensions must be positive")
        if len(self.block) != self.p or any(len(col) != self.q for col in self.block):
            raise ValueError("block shape mismatch")
        if not all(isinstance(s, int) and s >= 0 for col in self.block for s in col):
            raise ValueError("state out of range for alphabet")  # whatever the alphabet

    @classmethod
    def _trusted(cls, p: int, q: int, block: tuple[tuple[int, ...], ...]) -> "TorusTiling":
        """Unchecked constructor: block must be p columns of q states each."""
        t = object.__new__(cls)
        t.__dict__.update(p=p, q=q, block=block)
        return t

    def state_at(self, x: int, y: int) -> int:
        return self.block[x % self.p][y % self.q]

    def translate_key(self, dx: int, dy: int) -> tuple:
        """The block read from (dx, dy): key[x][y] == state_at(x + dx, y + dy)."""
        dx, dy = dx % self.p, dy % self.q
        return tuple(col[dy:] + col[:dy] for col in self.block[dx:] + self.block[:dx])

    def canonical_key(self) -> tuple:
        return min(self.translate_key(dx, dy) for dx in range(self.p) for dy in range(self.q))

    def h_period(self) -> int:
        return next((d for d in range(1, self.p) if self.p % d == 0 and self.translate_key(d, 0) == self.block), self.p)

    def v_period(self) -> int:
        return next((d for d in range(1, self.q) if self.q % d == 0 and self.translate_key(0, d) == self.block), self.q)


def check_torus(ts: TileSet, t: TorusTiling) -> bool:
    """Every shape window, read with wraparound, must be allowed."""
    for col in t.block:
        for s in col:
            if not isinstance(s, int) or not 0 <= s < len(ts.alphabet):
                raise ValueError("state out of range for alphabet")
    for cells, keys in zip(ts.shape_cells, ts.allowed_keys):
        for ax in range(t.p):
            for ay in range(t.q):
                window = tuple(t.block[(ax + c.x) % t.p][(ay + c.y) % t.q] for c in cells)
                if window not in keys:
                    return False
    return True
