import gc
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent
sys.path.insert(0, str(ROOT))  # oracle/ lives next to this file

from tilelab.cli import parse_presentation, parse_tileset
from tilelab.order import TilingFamily
from tilelab.presentation import Block, GridPresentation, _Analysis

CORPUS = ROOT / "corpus"
FAMILY_DIR = CORPUS / "family"

# Raw domino rules restated by hand for the oracle, in alphabet order
# R G W B = 0 1 2 3; hpairs are (left, right), vpairs (top, bottom).
R, G, W, B = 0, 1, 2, 3
STRIPES_H = [(R, R), (R, W), (R, G), (R, B), (W, W), (G, G), (B, B)]
STRIPES_V = [(R, R), (G, G), (G, W), (W, W), (W, B), (B, B)]
CHECKER_H = [(0, 1), (1, 0)]
CHECKER_V = [(0, 1), (1, 0)]


def _mono(s):
    return lambda x, y: s


def _red_left(s):
    return lambda x, y: R if x < 0 else s


def _over(top, bottom):
    return lambda x, y: top if y >= 0 else bottom


def _stack(i):
    return lambda x, y: G if y >= i else W if y >= 0 else B


def _corner(i):
    return lambda x, y: R if x < 0 else G if y >= i else W if y >= 0 else B


def _red_over(top, bottom):
    return lambda x, y: R if x < 0 else top if y >= 0 else bottom


def corpus_planes(imax=6):
    """name -> (plane fn, xspan, yspan), restating each corpus member from
    its geometric description rather than its file."""
    planes = {
        "mono_red": (_mono(R), 0, 0),
        "mono_green": (_mono(G), 0, 0),
        "mono_white": (_mono(W), 0, 0),
        "mono_black": (_mono(B), 0, 0),
        "red_green": (_red_left(G), 0, 0),
        "red_white": (_red_left(W), 0, 0),
        "red_black": (_red_left(B), 0, 0),
        "green_over_white": (_over(G, W), 0, 0),
        "white_over_black": (_over(W, B), 0, 0),
        "red_green_over_white": (_red_over(G, W), 0, 0),
        "red_white_over_black": (_red_over(W, B), 0, 0),
    }
    for i in range(1, imax + 1):
        planes[f"a{i}"] = (_corner(i), 0, i)
        planes[f"b{i}"] = (_stack(i), 0, i)
    return planes


def live_indexes():
    """How many plane scan indexes are alive in the process."""
    return sum(isinstance(o, _Analysis) for o in gc.get_objects())


def raw_lcms(g):
    """(x, y): the lcm of every block's period along each axis, read off the
    raw blocks, not off the scan index, for oracle reaches."""
    blocks = [b for col in g.regions for b in col]
    return math.lcm(*(b.u for b in blocks)), math.lcm(*(b.v for b in blocks))


def order_reads(monkeypatch):
    """Log (family, w, h) for every window set that tilelab.order reads from
    a plane's scan index (family is None outside a TilingFamily method)."""
    real = _Analysis.rect_keys
    log = []

    def logged(self, w, h):
        caller = sys._getframe(1)
        if caller.f_globals["__name__"] == "tilelab.order":
            log.append((caller.f_locals.get("self"), w, h))
        return real(self, w, h)

    monkeypatch.setattr(_Analysis, "rect_keys", logged)
    return log


def _cell(s):
    return Block(1, 1, ((s,),))


def make_a(alphabet, i):
    return GridPresentation(
        alphabet, (0,), (0, i),
        ((_cell(R), _cell(R), _cell(R)), (_cell(B), _cell(W), _cell(G))),
    )


def make_b(alphabet, i):
    return GridPresentation(alphabet, (), (0, i), ((_cell(B), _cell(W), _cell(G)),))


@pytest.fixture(scope="session")
def stripes():
    return parse_tileset(CORPUS / "stripes.tiles")


@pytest.fixture(scope="session")
def checkerboard():
    return parse_tileset(CORPUS / "checkerboard.tiles")


@pytest.fixture(scope="session")
def members(stripes):
    return {f.stem: parse_presentation(f, stripes.alphabet)
            for f in sorted(FAMILY_DIR.glob("*.pres"))}


@pytest.fixture(scope="session")
def family6(stripes, members):
    return TilingFamily(stripes, sorted(members.items()), 6)


@pytest.fixture(scope="session")
def family8(stripes, members):
    """Same family with the two schematic series extended to i <= 12, window 8."""
    big = {n: g for n, g in members.items() if not (n[0] in "ab" and n[1:].isdigit())}
    for i in range(1, 13):
        big[f"a{i}"] = make_a(stripes.alphabet, i)
        big[f"b{i}"] = make_b(stripes.alphabet, i)
    return TilingFamily(stripes, sorted(big.items()), 8)
