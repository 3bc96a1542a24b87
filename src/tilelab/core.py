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
        xs, ys = zip(*self.cells)  # min_corner() without a Vec2: from_allowed normalizes every pattern
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


def _shape_sort_key(shape: frozenset[Vec2]):
    return (len(shape), sorted(shape))


@dataclass(frozen=True)
class TileSet:
    """Local constraint system: per shape, the set of allowed patterns.

    Shapes are stored normalized (minimal corner at origin) and deduplicated;
    a configuration is a tiling when every translate of every shape reads an
    allowed pattern.
    """

    alphabet: Alphabet
    shapes: tuple[frozenset[Vec2], ...]
    allowed: tuple[frozenset[Pattern], ...]

    def __post_init__(self):
        if not self.shapes:
            raise ValueError("tile set needs at least one shape")
        if len(self.shapes) != len(self.allowed):
            raise ValueError("shapes and allowed must align")
        if len(set(self.shapes)) != len(self.shapes):
            raise ValueError("duplicate shape")
        for shape, pats in zip(self.shapes, self.allowed):
            if not shape:
                raise ValueError("empty shape")
            if min(c.x for c in shape) != 0 or min(c.y for c in shape) != 0:
                raise ValueError("shape not normalized")
            for p in pats:
                if p.alphabet is not self.alphabet and p.alphabet != self.alphabet:
                    raise ValueError("pattern alphabet mismatch")
                if p.cells.keys() != shape:
                    raise ValueError("pattern domain differs from its shape")

    @classmethod
    def from_allowed(cls, alphabet: Alphabet, patterns: Iterable[Pattern]) -> "TileSet":
        """Group patterns by normalized shape; placement offsets are dropped."""
        by_shape: dict[frozenset[Vec2], set[Pattern]] = {}
        for p in patterns:  # __post_init__ checks every alphabet
            q = p.normalize()
            by_shape.setdefault(frozenset(q.cells), set()).add(q)
        shapes = sorted(by_shape, key=_shape_sort_key)
        return cls(alphabet, tuple(shapes), tuple(frozenset(by_shape[s]) for s in shapes))

    @classmethod
    def dominoes(
        cls,
        alphabet: Alphabet,
        hpairs: Iterable[tuple[str, str]],
        vpairs: Iterable[tuple[str, str]],
    ) -> "TileSet":
        """Nearest-neighbour system from allowed (left, right) and (top, bottom) token pairs."""
        idx = alphabet.index
        pats = [
            Pattern(alphabet, {c: idx[t] for c, t in zip(_PAIR_CELLS[head], pair, strict=True)})
            for head, pairs in (("hpair", hpairs), ("vpair", vpairs))
            for pair in pairs
        ]
        return cls.from_allowed(alphabet, pats)

    @cached_property
    def hextent(self) -> int:
        """Max shape width; 1 for an unconstrained system."""
        return max((max(c.x for c in s) + 1 for s in self.shapes), default=1)

    @cached_property
    def vextent(self) -> int:
        return max((max(c.y for c in s) + 1 for s in self.shapes), default=1)

    @cached_property
    def shape_cells(self) -> tuple[tuple[Vec2, ...], ...]:
        return tuple(tuple(sorted(s)) for s in self.shapes)

    @cached_property
    def allowed_keys(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """Per shape, allowed patterns as state tuples in sorted-cell order."""
        return tuple(
            frozenset(tuple(map(p.cells.__getitem__, cells)) for p in pats)
            for cells, pats in zip(self.shape_cells, self.allowed)
        )

    def transpose(self) -> "TileSet":
        flip = lambda s: frozenset(Vec2(c.y, c.x) for c in s)
        shapes = tuple(flip(s) for s in self.shapes)
        allowed = tuple(
            frozenset(Pattern._trusted(self.alphabet, {Vec2(c.y, c.x): v for c, v in p.cells.items()}) for p in pats)
            for pats in self.allowed
        )
        order = sorted(range(len(shapes)), key=lambda i: _shape_sort_key(shapes[i]))
        return TileSet(self.alphabet, tuple(shapes[i] for i in order), tuple(allowed[i] for i in order))


_COMPLEMENT_LIMIT = 1 << 16  # largest state cube a complement may enumerate


def to_forbidden(ts: TileSet) -> dict[frozenset[Vec2], frozenset[Pattern]]:
    """Complement each allowed set inside Q^shape. Refuses, before enumerating
    anything, a shape whose state cube exceeds _COMPLEMENT_LIMIT."""
    al, k = ts.alphabet, len(ts.alphabet)
    for cells in ts.shape_cells:
        total = k ** len(cells)
        if total > _COMPLEMENT_LIMIT:
            raise ValueError(f"complement of size {total} over shape of {len(cells)} cells refused")
    return {
        shape: frozenset(Pattern._trusted(al, dict(zip(cells, c)))
                         for c in product(range(k), repeat=len(cells)) if c not in keys)
        for shape, cells, keys in zip(ts.shapes, ts.shape_cells, ts.allowed_keys)
    }


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
        for d in range(1, self.p + 1):
            if self.p % d == 0 and self.translate_key(d, 0) == self.block:
                return d
        return self.p

    def v_period(self) -> int:
        for d in range(1, self.q + 1):
            if self.q % d == 0 and self.translate_key(0, d) == self.block:
                return d
        return self.q


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
