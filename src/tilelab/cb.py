"""Isolated members, family derivatives, and iterated isolation ranks.

A member is isolated in its family when some pattern of its plane occurs in
no other extraction class and, within the plane itself, occurs along a single
orbit of the period lattice (in particular: exactly once when the lattice is
trivial).  One test at the member's search bound decides it (`_isolated`).
Removing all isolated classes at once and iterating assigns each member the
round at which it disappears; what never disappears is the residue.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Pattern
from .presentation import (
    GridPresentation,
    _dims_ascending,
    _key_pattern,
    _occurrence_scan,
    period_lattice,
)
from .order import TilingFamily, equivalence_classes


def _search_bounds(f: TilingFamily, g: GridPresentation) -> tuple[int, int]:
    """Candidate dimensions: the family window, raised per axis to the
    member's settled size (its cut span plus two lcm periods).  That is no
    saturation bound: a larger window can still isolate the member, so ranks
    can move with `--window` (README, "Windows and stabilization")."""
    m = g._settled
    return max(f.window, m.x), max(f.window, m.y)


def _pinning_key(f: TilingFamily, name: str, w: int, h: int) -> tuple[int, ...] | None:
    """Least coded w x h window of name's plane in no other class whose
    occurrences in the plane form one period-lattice orbit, else None.  A class's
    windows up to N x N lie in every class above it: only a maximal class has
    private ones, and only the classes maximal but for name's are subtracted."""
    x, order = f.presentation(name), f._order
    mine = order.index[name]
    assert max(w, h) <= f._n, "every search bound is at most the comparison size"
    if order.above[mine]:
        return None
    cands = set(x._index.rect_keys(w, h))
    for j, (cls, up) in enumerate(zip(equivalence_classes(f), order.above)):
        if j != mine and up <= {mine}:
            cands -= f.presentation(cls[0])._index.rect_keys(w, h)
            if not cands:
                return None
    # coded keys sort like the windows' x-major state tuples
    for key in sorted(cands):
        positions, dirs = _occurrence_scan(x, w, h, {key})
        if len(positions) == 1 and not dirs:
            return key
        lat = period_lattice(x)
        base = positions[0]
        if all(lat.contains(pos - base) for pos in positions[1:]) and all(lat.contains(d) for d in dirs):
            return key
    return None


def _isolated(f: TilingFamily, name: str) -> bool:
    """Whether some window within the search bounds pins name, decided at the
    bounds alone.  If a smaller window P pins name, so does the bound-size
    window Q at one of P's occurrence corners: Q is private because P is, and
    Q's occurrences are among P's, which form one orbit."""
    return _pinning_key(f, name, *_search_bounds(f, f.presentation(name))) is not None


def isolating_pattern(f: TilingFamily, name: str) -> Pattern | None:
    """Smallest pattern private to name's class whose occurrences in name's
    own plane form one period-lattice orbit; None when no such pattern exists
    within the search bounds.  Sizes are swept only once `_isolated` holds."""
    if not _isolated(f, name):
        return None
    for w, h in _dims_ascending(*_search_bounds(f, f.presentation(name))):
        key = _pinning_key(f, name, w, h)
        if key is not None:
            return _key_pattern(f.tileset.alphabet, key, h)


def isolated_classes(f: TilingFamily) -> tuple[tuple[str, ...], ...]:
    """Classes whose first member some window pins (`_isolated`)."""
    return tuple(cls for cls in equivalence_classes(f) if _isolated(f, cls[0]))


def derivative(f: TilingFamily) -> TilingFamily:
    """Family minus all isolated classes, removed simultaneously."""
    return f._without({name for cls in isolated_classes(f) for name in cls})


@dataclass
class RankReport:
    """ranks[name] is the removal round (1-based); residue members survive
    every derivative and get no rank."""

    ranks: dict[str, int]
    family_rank: int
    residue: tuple[str, ...]


def ranks(f: TilingFamily) -> RankReport:
    assigned: dict[str, int] = {}
    rounds = 0
    while f.names():
        rest = derivative(f)
        kept = set(rest.names())
        if len(kept) == len(f.names()):
            break
        rounds += 1
        assigned.update((n, rounds) for n in f.names() if n not in kept)
        f = rest
    return RankReport(assigned, rounds, f.names())
