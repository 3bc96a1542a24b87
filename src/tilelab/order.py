"""Extraction preorder on families of presented planes.

x extracts into y when every window of x occurs somewhere in y.  At a fixed
window size that is a plain inclusion test; family-level structure is read at
a per-pair size large enough that inclusion there settles inclusion at every
larger size (the band spans plus two lcm periods and change), so the reported
order is a property of the planes, not of a window parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .core import TileSet
from .presentation import GridPresentation, _window_codes, block_lcms, cut_spans, is_valid


def preceq(x: GridPresentation, y: GridPresentation, n: int) -> bool:
    """Window-language inclusion at size n."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    if n < 1:
        raise ValueError("window size must be positive")
    return _window_codes(x, n, n) <= _window_codes(y, n, n)


def saturation_window(g: GridPresentation) -> int:
    """Size from which the window language pins the plane's banded structure."""
    s, l = cut_spans(g), block_lcms(g)
    return max(s.x + 2 * l.x + 1, s.y + 2 * l.y + 1)


class TilingFamily:
    """Ordered, named members presenting tilings of one tile set.

    window is the base comparison size; pairwise comparisons enlarge it to
    the members' saturation sizes, so enlarging window further never changes
    the reported order.
    """

    def __init__(self, tileset: TileSet, members, window: int, validate: bool = True):
        members = tuple((name, pres) for name, pres in members)
        names = [name for name, _ in members]
        if len(set(names)) != len(names):
            raise ValueError("member names must be distinct")
        if window < max(tileset.hextent, tileset.vextent):
            raise ValueError("window smaller than the largest constraint extent")
        for name, pres in members:
            if pres.alphabet != tileset.alphabet:
                raise ValueError(f"member {name}: alphabet mismatch")
            if validate and not is_valid(pres, tileset):
                raise ValueError(f"member {name} is not a tiling of the tile set")
        self.tileset = tileset
        self.window = window
        self.members = members
        self._pres = dict(members)
        self._sat = {name: saturation_window(pres) for name, pres in members}
        self._le: dict[tuple[str, str], bool] = {}

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.members)

    def presentation(self, name: str) -> GridPresentation:
        return self._pres[name]

    def compare_window(self, a: str, b: str) -> int:
        return max(self.window, self._sat[a], self._sat[b])

    def le(self, a: str, b: str) -> bool:
        got = self._le.get((a, b))
        if got is None:
            n = self.compare_window(a, b)
            got = preceq(self._pres[a], self._pres[b], n)
            self._le[(a, b)] = got
        return got

    def lt(self, a: str, b: str) -> bool:
        return self.le(a, b) and not self.le(b, a)


def equivalence_classes(f: TilingFamily) -> tuple[tuple[str, ...], ...]:
    """Mutual-extraction classes, ordered by first appearance, members in family order."""
    classes: list[list[str]] = []
    for name in f.names():
        for cls in classes:
            if f.le(name, cls[0]) and f.le(cls[0], name):
                cls.append(name)
                break
        else:
            classes.append([name])
    return tuple(tuple(c) for c in classes)


@dataclass(frozen=True)
class HasseDiagram:
    """Covering relation of the extraction order on equivalence classes;
    covers hold (lower, upper) indices into classes."""

    classes: tuple[tuple[str, ...], ...]
    covers: tuple[tuple[int, int], ...]


def _strict_edges(f: TilingFamily, classes) -> list[tuple[int, int]]:
    reps = [cls[0] for cls in classes]
    return [
        (i, j)
        for i in range(len(reps))
        for j in range(len(reps))
        if i != j and f.lt(reps[i], reps[j])
    ]


def hasse(f: TilingFamily) -> HasseDiagram:
    classes = equivalence_classes(f)
    g = nx.DiGraph()
    g.add_nodes_from(range(len(classes)))
    g.add_edges_from(_strict_edges(f, classes))
    reduced = nx.transitive_reduction(g)
    return HasseDiagram(classes, tuple(sorted(reduced.edges())))


def minimal_classes(f: TilingFamily) -> tuple[tuple[str, ...], ...]:
    classes = equivalence_classes(f)
    uppers = {j for _, j in _strict_edges(f, classes)}
    return tuple(cls for i, cls in enumerate(classes) if i not in uppers)


def maximal_classes(f: TilingFamily) -> tuple[tuple[str, ...], ...]:
    classes = equivalence_classes(f)
    strict = _strict_edges(f, classes)
    lowers = {i for i, _ in strict}
    return tuple(cls for i, cls in enumerate(classes) if i not in lowers)


def level_of(f: TilingFamily, name: str) -> int:
    """Length of the longest strict chain strictly below name's class."""
    classes = equivalence_classes(f)
    idx = next((i for i, cls in enumerate(classes) if name in cls), None)
    if idx is None:
        raise KeyError(name)
    strict = set(_strict_edges(f, classes))
    lower = {j: [i for i in range(len(classes)) if (i, j) in strict] for j in range(len(classes))}
    memo: dict[int, int] = {}

    def depth(j: int) -> int:
        if j not in memo:
            memo[j] = 1 + max((depth(i) for i in lower[j]), default=-1)
        return memo[j]

    return depth(idx)
