"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments.  It
builds tilelab objects, writes them as files through the CLI's own emitters
(`emit_tileset`, `emit_presentation`) and returns the queries to run, each
with the plain-data description the reference checks need: oracle
constraint lists for tile sets and (x, y) -> state functions for planes.
Those descriptions come from the generator's raw choices, never from
tilelab, so a fault in parsing or emitting shows up as a mismatch.

The seed renames every token, draws the small random parts (band heights)
and shuffles the query order.  Everything that sets a query's cost (which
constraints a tile set has, which family, which blocks a plane has) comes
from a fixed catalogue, so runs with different seeds do the same work and
their timings can be compared.  States keep their order, because the
searches try states in that order: a permutation would change how soon a
first witness turns up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from math import lcm
from pathlib import Path

from tilelab.cli import emit_presentation, emit_tileset
from tilelab.core import Alphabet, Pattern, TileSet, Vec2
from tilelab.presentation import Block, GridPresentation

CATALOGUE_SEED = 2008


@dataclass(frozen=True)
class Query:
    """One CLI call: argv goes to tilelab.cli.main unchanged; ref is what the
    reference check needs, a kind tag first."""

    name: str
    argv: tuple[str, ...]
    ref: tuple = field(compare=False)


def _tokens(rng: random.Random, n: int) -> tuple[str, ...]:
    return tuple(rng.sample([a + b for a in "abcdefghjkmnpqrstuvwxyz" for b in "0123456789"], n))


def _pair_constraints(hpairs, vpairs) -> tuple:
    """Oracle constraint list, as oracle.brute.pair_rules builds it: hpairs
    are (left, right), vpairs (top, bottom); an empty list leaves that
    direction free."""
    out = []
    if hpairs:
        out.append((((0, 0), (1, 0)), frozenset(hpairs)))
    if vpairs:
        out.append((((0, 0), (0, 1)), frozenset((b, t) for t, b in vpairs)))
    return tuple(out)


# ---------------------------------------------------------------- tile sets

SQUARE2 = ((0, 0), (0, 1), (1, 0), (1, 1))
TILESET_KINDS = ("count", "margin", "torus", "classify", "weak")


def catalogue_tileset(k: int):
    """Catalogue entry k: (kind, nstates, hpairs, vpairs, 2x2 fills or None).

    Each ordered pair is allowed with probability 0.8, so the languages are
    large.  Margin queries use 2-state sets: the reference completes every
    4x4 box by brute force, which is out of reach for dense 3-state sets.
    Every seventh set also carries a 2x2 pattern constraint."""
    rng = random.Random(f"{CATALOGUE_SEED}:tileset:{k}")
    kind = TILESET_KINDS[k % len(TILESET_KINDS)]
    nstates = 2 if kind == "margin" or k % 4 == 0 else 3
    pairs = list(product(range(nstates), repeat=2))
    hpairs = [p for p in pairs if rng.random() < 0.8] or [rng.choice(pairs)]
    vpairs = [p for p in pairs if rng.random() < 0.8] or [rng.choice(pairs)]
    fills = None
    if k % 7 == 3:
        every = list(product(range(nstates), repeat=4))
        fills = [f for f in every if rng.random() < 0.8] or [rng.choice(every)]
    return kind, nstates, hpairs, vpairs, fills


def oracle_constraints(hpairs, vpairs, fills) -> tuple:
    out = _pair_constraints(hpairs, vpairs)
    return out if fills is None else out + ((SQUARE2, frozenset(fills)),)


def build_tileset(hpairs, vpairs, fills, toks) -> TileSet:
    alphabet = Alphabet(toks)
    ts = TileSet.dominoes(alphabet, [(toks[a], toks[b]) for a, b in hpairs],
                          [(toks[a], toks[b]) for a, b in vpairs])
    if fills is None:
        return ts
    square = [Pattern(alphabet, {Vec2(*off): s for off, s in zip(SQUARE2, f)}) for f in fills]
    return TileSet.from_allowed(alphabet, [p for pats in ts.allowed for p in pats] + square)


def tileset_queries(seed: int, out: Path, nsets: int) -> list[Query]:
    """One query per catalogue set 0..nsets-1, kinds in a fixed rotation.

    The answers do not depend on token names, so the key for cached oracle
    answers is the exact text of the set under fixed names."""
    rng = random.Random(seed)
    queries = []
    for k in range(nsets):
        kind, nstates, hpairs, vpairs, fills = catalogue_tileset(k)
        ts = build_tileset(hpairs, vpairs, fills, _tokens(rng, nstates))
        canon = build_tileset(hpairs, vpairs, fills, tuple("abc"[:nstates]))
        path = out / f"set{k:03d}.tiles"
        path.write_text(emit_tileset(ts))
        argv = {
            "count": ("patterns", str(path), "--size", "3", "--count"),
            "margin": ("patterns", str(path), "--size", "2", "--margin", "1"),
            "torus": ("torus", str(path), "--max-p", "3", "--max-q", "3"),
            "classify": ("classify", str(path), "--budget", "3"),
            "weak": ("weak-periodic", str(path), "--max-period", "3"),
        }[kind]
        key = f"{kind}\n{emit_tileset(canon)}"
        queries.append(Query(f"{kind}:set{k:03d}", argv,
                             (kind, nstates, oracle_constraints(hpairs, vpairs, fills), ts.alphabet.tokens, key)))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------- planes

R, G, W, B = 0, 1, 2, 3
# the corpus stripes system as raw (left, right) / (top, bottom) pairs
STRIPES_H = ((R, R), (R, W), (R, G), (R, B), (W, W), (G, G), (B, B))
STRIPES_V = ((R, R), (G, G), (G, W), (W, W), (W, B), (B, B))


class Stripes:
    """The stripes tile set with seeded token names (R G W B without a seed)."""

    def __init__(self, rng: random.Random | None):
        self.tokens = ("R", "G", "W", "B") if rng is None else _tokens(rng, 4)
        self.alphabet = Alphabet(self.tokens)
        t = self.tokens
        self.tileset = TileSet.dominoes(
            self.alphabet, [(t[a], t[b]) for a, b in STRIPES_H], [(t[a], t[b]) for a, b in STRIPES_V]
        )
        self.constraints = _pair_constraints(STRIPES_H, STRIPES_V)


def _cell(s: int) -> Block:
    return Block(1, 1, ((s,),))


def make_a(alphabet: Alphabet, i: int) -> GridPresentation:
    """Corner tiling a_i: red left half; right half green over a white band
    of height i over black (as conftest.make_a)."""
    c = _cell
    return GridPresentation(alphabet, (0,), (0, i), ((c(R), c(R), c(R)), (c(B), c(W), c(G))))


def make_b(alphabet: Alphabet, i: int) -> GridPresentation:
    """Bounded stack b_i: green over a white band of height i over black
    (as conftest.make_b)."""
    return GridPresentation(alphabet, (), (0, i), ((_cell(B), _cell(W), _cell(G)),))


def plane_a(i: int):
    return lambda x, y: R if x < 0 else G if y >= i else W if y >= 0 else B


def plane_b(i: int):
    return lambda x, y: G if y >= i else W if y >= 0 else B


_COLOURS = {"red": R, "green": G, "white": W, "black": B}


def family_members(alphabet: Alphabet, imax: int) -> dict:
    """The corpus family with the a_i / b_i series run to i = imax, as
    name -> (presentation, plane function, x span, y span)."""
    c = _cell
    out = {}
    for name, s in _COLOURS.items():
        out[f"mono_{name}"] = (
            GridPresentation(alphabet, (), (), ((c(s),),)), lambda x, y, s=s: s, 0, 0)
    for name in ("green", "white", "black"):
        s = _COLOURS[name]
        out[f"red_{name}"] = (
            GridPresentation(alphabet, (0,), (), ((c(R),), (c(s),))),
            lambda x, y, s=s: R if x < 0 else s, 0, 0)
    for top, bot in (("green", "white"), ("white", "black")):
        t, b = _COLOURS[top], _COLOURS[bot]
        out[f"{top}_over_{bot}"] = (
            GridPresentation(alphabet, (), (0,), ((c(b), c(t)),)),
            lambda x, y, t=t, b=b: t if y >= 0 else b, 0, 0)
        out[f"red_{top}_over_{bot}"] = (
            GridPresentation(alphabet, (0,), (0,), ((c(R), c(R)), (c(b), c(t)))),
            lambda x, y, t=t, b=b: R if x < 0 else t if y >= 0 else b, 0, 0)
    for i in range(1, imax + 1):
        out[f"a{i}"] = (make_a(alphabet, i), plane_a(i), 0, i)
        out[f"b{i}"] = (make_b(alphabet, i), plane_b(i), 0, i)
    return out


def family_text(imax: int) -> str:
    """The family directory under tokens R G W B as one text: for each
    member a name line, then its file."""
    members = family_members(Stripes(None).alphabet, imax)
    return "".join(f"== {n}\n{emit_presentation(g)}" for n, (g, *_) in sorted(members.items()))


def family_ranks(seed: int, out: Path, imaxes: tuple[int, ...]) -> list[Query]:
    """order at windows 6 and 8 and cb at window 6 on one family directory
    per i_max.

    The answers name only members, so the key for cached oracle answers is
    the exact text of the family under fixed token names, plus command and
    window."""
    rng = random.Random(seed)
    st = Stripes(rng)
    tpath = out / "stripes.tiles"
    tpath.write_text(emit_tileset(st.tileset))
    queries = []
    for imax in imaxes:
        d = out / f"fam{imax:02d}"
        d.mkdir()
        for name, (g, *_) in family_members(st.alphabet, imax).items():
            (d / f"{name}.pres").write_text(emit_presentation(g))
        canon = family_text(imax)
        for cmd, window in (("order", 6), ("order", 8), ("cb", 6)):
            argv = (cmd, str(tpath), str(d), "--window", str(window))
            key = f"{cmd} --window {window}\n{canon}"
            queries.append(Query(f"{cmd}:i{imax}:w{window}", argv, (cmd, imax, window, key)))
    rng.shuffle(queries)
    return queries


# (u, v) per region, in the order (0,0) (0,1) (1,0) (1,1); the x and y
# lcms are 35, 35, 105, 105 and 210
BLOCK_PERIODS = (
    ((5, 7), (7, 5), (5, 5), (7, 7)),
    ((7, 5), (5, 7), (7, 7), (5, 5)),
    ((3, 5), (5, 7), (7, 3), (3, 3)),
    ((5, 3), (7, 5), (3, 7), (3, 3)),
    ((6, 5), (5, 7), (7, 6), (3, 2)),
)


def block_plane(k: int) -> tuple[list, callable]:
    """Catalogue plane k: four random 3-state blocks with the periods of
    BLOCK_PERIODS[k] over one cut per axis at 0.  Returns the blocks
    (data[x][y]) and the plane function."""
    rng = random.Random(f"{CATALOGUE_SEED}:blocks:{k}")
    blocks = [tuple(tuple(rng.randrange(3) for _ in range(v)) for _ in range(u))
              for u, v in BLOCK_PERIODS[k]]
    b00, b01, b10, b11 = blocks

    def fn(x, y):
        b = (b00 if y < 0 else b01) if x < 0 else (b10 if y < 0 else b11)
        return b[x % len(b)][y % len(b[0])]

    return blocks, fn


def presentation_scan(seed: int, out: Path, heights: tuple[int, ...], nblocks: int) -> list[Query]:
    """validate and analyze on a_i and b_i over stripes with i near each of
    heights, and analyze on one random-block plane for each of the first
    nblocks rows of BLOCK_PERIODS, over the free 3-state tile set."""
    rng = random.Random(seed)
    st = Stripes(rng)
    tpath = out / "stripes.tiles"
    tpath.write_text(emit_tileset(st.tileset))
    queries = []
    for h in heights:
        i = h + rng.randrange(4)
        for tag, make, plane in (("a", make_a, plane_a), ("b", make_b, plane_b)):
            path = out / f"{tag}{i}.pres"
            path.write_text(emit_presentation(make(st.alphabet, i)))
            for cmd in ("validate", "analyze"):
                ref = (cmd, st.constraints, plane(i), (0, 0, 0, i), (1, 1), st.tokens)
                queries.append(Query(f"{cmd}:{tag}{i}", (cmd, str(tpath), str(path)), ref))
    toks = _tokens(rng, 3)
    free = TileSet.dominoes(Alphabet(toks), [(a, b) for a in toks for b in toks], [])
    fpath = out / "free3.tiles"
    fpath.write_text(emit_tileset(free))
    free_constraints = _pair_constraints(list(product(range(3), repeat=2)), [])
    for k, periods in enumerate(BLOCK_PERIODS[:nblocks]):
        blocks, fn = block_plane(k)
        (c00, c01, c10, c11) = (Block(u, v, d) for (u, v), d in zip(periods, blocks))
        g = GridPresentation(free.alphabet, (0,), (0,), ((c00, c01), (c10, c11)))
        path = out / f"blocks{k}.pres"
        path.write_text(emit_presentation(g))
        lcms = (lcm(*(u for u, _ in periods)), lcm(*(v for _, v in periods)))
        ref = ("analyze", free_constraints, fn, (0, 0, 0, 0), lcms, toks)
        queries.append(Query(f"analyze:blocks{k}", ("analyze", str(fpath), str(path)), ref))
    # the order stays fixed: a call's cost depends on the heap the call
    # before it left behind, and the lcm-210 plane frees some 170 MB
    return queries
