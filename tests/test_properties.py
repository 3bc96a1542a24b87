"""Randomized invariants.  derandomize keeps every run on the same seed."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import brute
from conftest import CORPUS, FAMILY_DIR, corpus_planes
from tilelab.cli import parse_presentation, parse_tileset
from tilelab.core import Alphabet, TileSet
from tilelab.lang import admissible_squares, count_torus, extensible_squares
from tilelab.order import preceq
from tilelab.presentation import (
    TypeB,
    pattern_set,
    period_lattice,
    rect_window_keys,
    shift,
    type_of,
)
from tilelab.solver import enumerate_torus, refute

STRIPES = parse_tileset(CORPUS / "stripes.tiles")
MEMBERS = {
    f.stem: parse_presentation(f, STRIPES.alphabet)
    for f in sorted(FAMILY_DIR.glob("*.pres"))
}
NAMES = sorted(MEMBERS)
PLANES = corpus_planes()

common = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def domino_rules(draw, sizes=(2, 3)):
    """(tokens, hpairs, vpairs) with state pairs; at least one list non-empty."""
    tokens = ("a", "b", "c")[: draw(st.sampled_from(sizes))]
    pairs = [(x, y) for x in range(len(tokens)) for y in range(len(tokens))]
    h = draw(st.frozensets(st.sampled_from(pairs)))
    v = draw(st.frozensets(st.sampled_from(pairs)))
    assume(h or v)
    return tokens, sorted(h), sorted(v)


def _build(tokens, h, v) -> TileSet:
    return TileSet.dominoes(
        Alphabet(tokens),
        [(tokens[a], tokens[b]) for a, b in h],
        [(tokens[a], tokens[b]) for a, b in v],
    )


@common
@given(rules=domino_rules(sizes=(2,)))
def test_extensible_anti_monotone_in_margin(rules):
    ts = _build(*rules)
    prev = None
    for margin in (0, 1, 2):
        cur = {p.key() for p in extensible_squares(ts, 2, margin)}
        if prev is not None:
            assert cur <= prev
        prev = cur


# the four 2x2 sub-windows of a 3x3 square, as indexes into its x-major key
SUB_WINDOWS = [[(dx + x) * 3 + dy + y for x in range(2) for y in range(2)]
               for dx in range(2) for dy in range(2)]


@common
@given(rules=domino_rules())
def test_admissibility_is_hereditary(rules):
    ts = _build(*rules)
    small = {p.key() for p in admissible_squares(ts, 2)}
    for p in admissible_squares(ts, 3):
        key = p.key()
        for idx in SUB_WINDOWS:
            sub = tuple(key[i] for i in idx)
            assert sub in small


@common
@given(rules=domino_rules())
def test_torus_counts_match_oracle(rules):
    tokens, h, v = rules
    ts = _build(tokens, h, v)
    constraints = brute.pair_rules(h, v)
    for p in (1, 2):
        for q in (1, 2):
            want = len(brute.wrapped_recursive(len(tokens), constraints, p, q))
            assert count_torus(ts, p, q) == want
    if refute(ts, 2):
        assert count_torus(ts, 3, 3) == 0
        assert enumerate_torus(ts, 3, 3) == []


@common
@given(name=st.sampled_from(NAMES), vx=st.integers(-5, 5), vy=st.integers(-5, 5))
def test_shift_invariance(name, vx, vy):
    g = MEMBERS[name]
    s = shift(g, (vx, vy))
    assert {p.key() for p in pattern_set(s, 3)} == {p.key() for p in pattern_set(g, 3)}
    t1, t2 = type_of(g), type_of(s)
    assert type(t1) is type(t2)
    if isinstance(t1, TypeB):
        assert t1.witness.key() == t2.witness.key()
        assert t1.witness.extents() == t2.witness.extents()
    l1, l2 = period_lattice(g), period_lattice(s)
    assert (l1.rank, l1.generators) == (l2.rank, l2.generators)


@common
@given(
    a=st.sampled_from(NAMES),
    b=st.sampled_from(NAMES),
    c=st.sampled_from(NAMES),
    n=st.integers(1, 6),
)
def test_preceq_transitive(a, b, c, n):
    if preceq(MEMBERS[a], MEMBERS[b], n) and preceq(MEMBERS[b], MEMBERS[c], n):
        assert preceq(MEMBERS[a], MEMBERS[c], n)


@common
@given(name=st.sampled_from(NAMES), n=st.integers(1, 4))
def test_pattern_set_saturates_against_boxed_plane(name, n):
    fn, xs, ys = PLANES[name]
    base = max(xs, ys) + n + 2
    keys = brute.window_keys(brute.box_grid(fn, base), n, n)
    assert keys == brute.window_keys(brute.box_grid(fn, base + 1), n, n)
    assert keys == brute.window_keys(brute.box_grid(fn, base + 7), n, n)
    assert rect_window_keys(MEMBERS[name], n, n) == keys


@common
@given(name=st.sampled_from(NAMES), vx=st.integers(-4, 4), vy=st.integers(-4, 4))
def test_finite_window_iff_no_period(name, vx, vy):
    g = shift(MEMBERS[name], (vx, vy))
    assert isinstance(type_of(g), TypeB) == (period_lattice(g).rank == 0)
