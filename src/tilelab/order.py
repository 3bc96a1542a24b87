"""Extraction preorder on families of presented planes.

x extracts into y when every window of x occurs somewhere in y.  At a fixed
window size that is a plain inclusion test.  Inclusion between two planes is
constant from the larger of their saturation sizes on, so a family reads each
member's window set at one size N, its window raised to every member's
saturation size.  Equal sets make a class, a proper subset lies strictly below,
and the reported order is a property of the planes, not of a window parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import TileSet
from .presentation import GridPresentation, _first_invalid


def preceq(x: GridPresentation, y: GridPresentation, n: int) -> bool:
    """Window-language inclusion at size n."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    if n < 1:
        raise ValueError("window size must be positive")
    return x._index.rect_keys(n, n) <= y._index.rect_keys(n, n)


def saturation_window(g: GridPresentation) -> int:
    """Size from which the window language pins the plane's banded structure."""
    return max(g._settled) + 1


class TilingFamily:
    """Ordered, named members presenting tilings of one tile set.

    window is the base comparison size; every member is read at one size N, window raised
    to every member's saturation size, so enlarging window further never changes the reported
    order.  After the alphabets, members are validated in one check on the union of their extent window sets.
    """

    def __init__(self, tileset: TileSet, members, window: int, validate: bool = True):
        members = tuple((name, pres) for name, pres in members)
        if len(dict(members)) != len(members):
            raise ValueError("member names must be distinct")
        if window < max(tileset.hextent, tileset.vextent):
            raise ValueError("window smaller than the largest constraint extent")
        for name, pres in members:
            if pres.alphabet != tileset.alphabet:
                raise ValueError(f"member {name}: alphabet mismatch")
        if validate and (bad := _first_invalid([pres for _, pres in members], tileset)) is not None:
            raise ValueError(f"member {members[bad][0]} is not a tiling of the tile set")
        self.tileset = tileset
        self.window = window
        self.members = members
        self._pres = dict(members)

    @cached_property
    def _n(self) -> int:
        """The comparison size N, found on first use unless a parent family set it (`_without`)."""
        return max([self.window] + [saturation_window(pres) for _, pres in self.members])

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.members)

    def presentation(self, name: str) -> GridPresentation:
        return self._pres[name]

    def compare_window(self, a: str, b: str) -> int:
        return self._n

    def le(self, a: str, b: str) -> bool:
        return preceq(self._pres[a], self._pres[b], self._n)

    def lt(self, a: str, b: str) -> bool:
        return self.le(a, b) and not self.le(b, a)

    def _windows(self, name: str) -> frozenset:
        return self._pres[name]._index.rect_keys(self._n, self._n)

    @cached_property
    def _classes(self) -> tuple[tuple[str, ...], ...]:
        """Members grouped in one pass by equal N-window sets (keys compare
        exactly; the hash only picks a bucket), in first-appearance order.
        Kept apart from _order, which is built from them on its first read:
        equivalence_classes needs no order, while each isolation round reads
        both (cb._pinning_key)."""
        classes: dict[frozenset, list[str]] = {}
        for name in self.names():
            classes.setdefault(self._windows(name), []).append(name)
        return tuple(map(tuple, classes.values()))

    @cached_property
    def _order(self) -> "_Preorder":
        return _Preorder(self)

    def _without(self, gone) -> "TilingFamily":
        """The family less the gone members, keeping this family's comparison size N:
        it derives no saturation size and reads window sets its planes have built."""
        keep = [(n, p) for n, p in self.members if n not in gone]
        sub = TilingFamily(self.tileset, keep, self.window, validate=False)
        sub._n = self._n
        return sub


class _Preorder:
    """The strict extraction order between a family's classes (above[i]
    holds each class over class i, below[j] each class under j) and every
    class's level: class i lies under class j when i's N-window set is a
    proper subset of j's."""

    def __init__(self, f: TilingFamily):
        sets = [f._windows(cls[0]) for cls in f._classes]
        k = range(len(sets))
        self.index = {name: i for i, cls in enumerate(f._classes) for name in cls}
        self.above = [{j for j in k if sets[i] < sets[j]} for i in k]
        self.below = [{i for i in k if j in self.above[i]} for j in k]
        # below is transitively closed, so a class has more classes below it
        # than any class under it: by that count, each level reads settled ones
        self.levels = [0] * len(sets)
        for j in sorted(k, key=lambda j: len(self.below[j])):
            self.levels[j] = 1 + max((self.levels[i] for i in self.below[j]), default=-1)


def equivalence_classes(f: TilingFamily) -> tuple[tuple[str, ...], ...]:
    """Mutual-extraction classes, ordered by first appearance, members in family order."""
    return f._classes


@dataclass(frozen=True)
class HasseDiagram:
    """Covering relation of the extraction order on equivalence classes;
    covers hold (lower, upper) indices into classes."""

    classes: tuple[tuple[str, ...], ...]
    covers: tuple[tuple[int, int], ...]


def hasse(f: TilingFamily) -> HasseDiagram:
    """Transitive reduction of the strict relation (Aho, Garey and Ullman,
    1972): i < j is a cover when no class lies strictly between them."""
    o = f._order
    covers = sorted((i, j) for i, up in enumerate(o.above) for j in up if not up & o.below[j])
    return HasseDiagram(f._classes, tuple(covers))


def minimal_classes(f: TilingFamily) -> tuple[tuple[str, ...], ...]:
    return tuple(c for c, down in zip(f._classes, f._order.below) if not down)


def maximal_classes(f: TilingFamily) -> tuple[tuple[str, ...], ...]:
    return tuple(c for c, up in zip(f._classes, f._order.above) if not up)


def level_of(f: TilingFamily, name: str) -> int:
    """Length of the longest strict chain strictly below name's class."""
    return f._order.levels[f._order.index[name]]
