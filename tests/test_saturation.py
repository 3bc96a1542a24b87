"""Referee for the claim the extraction order rests on: window inclusion
between two planes is constant at every size from the larger of their
saturation sizes on, so one family-wide comparison size is exact."""

import random

import pytest

from oracle import brute
from tilelab.core import Alphabet
from tilelab.order import preceq, saturation_window
from tilelab.presentation import Block, GridPresentation

# Cuts lie in [-2, 2] and block periods are at most 2, so saturation sizes
# are at most 4 + 2 * 2 + 1 = 9 and the largest size checked is 12.  Every
# n-window content then has a copy with its corner in [-2 - n - 2, 2 + 2]
# (a window inside an extreme band repeats under one lcm step), whose cells
# lie in [-16, 15]: the box of reach 16 holds the whole window language.
REACH = 16
EXTRA = 3
PAIR_SEEDS = range(30)


def small_plane(rng, k, pool=None):
    """(presentation, plane fn) over k states: cuts in [-2, 2] on 0, 1 or 2
    axes, blocks up to 2 x 2, drawn from pool when one is given.  The fn is
    read off the raw draws, not off the presentation."""
    xcuts = sorted(rng.sample(range(-2, 3), rng.randint(1, 2))) if rng.random() < 0.5 else []
    ycuts = sorted(rng.sample(range(-2, 3), rng.randint(1, 2))) if rng.random() < 0.5 else []

    def block():
        if pool:
            return rng.choice(pool)
        u, v = rng.randint(1, 2), rng.randint(1, 2)
        return tuple(tuple(rng.randrange(k) for _ in range(v)) for _ in range(u))

    raw = [[block() for _ in range(len(ycuts) + 1)] for _ in range(len(xcuts) + 1)]

    def fn(x, y):
        data = raw[sum(c <= x for c in xcuts)][sum(c <= y for c in ycuts)]
        return data[x % len(data)][y % len(data[0])]

    regions = tuple(tuple(Block(len(d), len(d[0]), d) for d in col) for col in raw)
    al = Alphabet(tuple(f"s{i}" for i in range(k)))
    return GridPresentation(al, tuple(xcuts), tuple(ycuts), regions), fn


def plane_pairs(seed):
    """Two independent planes, then four pairs whose blocks come from one
    small shared pool, so that inclusions occur."""
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    pairs = [(small_plane(rng, k), small_plane(rng, k))]
    for _ in range(4):
        pool = [small_plane(rng, k)[0].regions[0][0].data for _ in range(rng.randint(1, 3))]
        pairs.append((small_plane(rng, k, pool), small_plane(rng, k, pool)))
    return pairs


def oracle_answers(fx, fy, sizes):
    gx, gy = brute.box_grid(fx, REACH), brute.box_grid(fy, REACH)
    return [brute.window_keys(gx, n, n) <= brute.window_keys(gy, n, n) for n in sizes]


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_inclusion_is_constant_from_saturation_on(seed):
    for (x, fx), (y, fy) in plane_pairs(seed):
        s = max(saturation_window(x), saturation_window(y))
        sizes = range(s, s + EXTRA + 1)
        assert s + EXTRA <= 12
        want = oracle_answers(fx, fy, sizes)
        assert [preceq(x, y, n) for n in sizes] == want, (seed, s)
        assert len(set(want)) == 1, (seed, s)


def test_pairs_include_both_answers():
    # the referee above is vacuous unless inclusions and non-inclusions both occur
    answers = [
        preceq(x, y, max(saturation_window(x), saturation_window(y)))
        for seed in PAIR_SEEDS
        for (x, _), (y, _) in plane_pairs(seed)
    ]
    assert 0.2 < sum(answers) / len(answers) < 0.8
