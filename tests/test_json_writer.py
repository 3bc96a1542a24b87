"""The CLI's JSON writer against the stdlib.

`cli._json(obj)` must return exactly `json.dumps(obj, indent=2,
sort_keys=True)` for every value the subcommands print: str-keyed dicts,
lists and tuples nested to any depth, and str, int, bool and None leaves.
derandomize keeps every run on the same seed.  A torus, which `torus` and
`classify` print from one template, must come out as its dict form would.
"""

import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab.cli import _json, _torus_json
from tilelab.core import Alphabet, TorusTiling

# every code point but lone surrogates, with the ones the escaper treats
# specially drawn often: quotes, backslashes, controls, DEL, non-ASCII
# letters, line separators and astral characters
SPECIAL = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u2029\ufeff\U0001f600'
text = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(SPECIAL), max_size=12)
scalars = (st.none() | st.booleans() | text
           | st.integers() | st.integers(min_value=-(10**40), max_value=10**40))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(text, inner, max_size=5)),
    max_leaves=40,
)


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values)
@example({})
@example([])
@example(())
@example({"": [], "a": {}, "b": (), "c": [[]], "d": [{}]})
@example({'k"\\\x00\xe9\u2028\U0001f600': 'v"\\\x1f\x7f\xe9\u2029\U0001f600'})
@example([True, False, None, 0, 1, -1, 2**64, -(2**200), 10**300])
@example({"b": 1, "a": True, "B": None, "": False, "\xe9": "x", "\x00": 0})
def test_writer_is_json_dumps(obj):
    assert _json(obj) == stdlib(obj)


def test_bool_is_not_printed_as_an_int():
    assert _json([True, False, 1, 0]) == "[\n  true,\n  false,\n  1,\n  0\n]"


def _torus_dict(t: TorusTiling, tokens) -> dict:
    return {"p": t.p, "q": t.q,
            "rows": [" ".join(tokens[t.block[x][y]] for x in range(t.p)) for y in reversed(range(t.q))]}


def test_tori_are_laid_out_as_json_dumps():
    """Seeded tori up to 4 x 4 over tokens of SPECIAL characters (no
    whitespace, which a token may not hold), nested as classify nests one and
    listed as torus lists them, with rows shared across a listing."""
    chars = [c for c in SPECIAL if not c.isspace()]
    rng = random.Random("tori")
    assert _json({"count": 0, "tilings": []}) == stdlib({"count": 0, "tilings": []})
    for _ in range(100):
        tokens, k = [], rng.randint(1, 4)
        while len(tokens) < k:
            tok = "".join(rng.choices(chars, k=rng.randint(1, 3)))
            tokens += [tok] if tok not in tokens else []
        al = Alphabet(tuple(tokens))
        tori = []
        for _ in range(rng.randint(1, 6)):
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            column = [rng.randrange(len(al)) for _ in range(q)]
            tori.append(TorusTiling(p, q, tuple(tuple(column if rng.random() < 0.5 else
                                                      [rng.randrange(len(al)) for _ in range(q)])
                                                for _ in range(p))))
        want = [_torus_dict(t, al.tokens) for t in tori]
        got = _json({"outcome": "periodic", "tiling": _torus_json(tori[0].block, al, "\n  ")})
        assert got == stdlib({"outcome": "periodic", "tiling": want[0]})
        memo: dict = {}
        got = _json({"count": len(tori), "tilings": [_torus_json(t.block, al, "\n    ", memo) for t in tori]})
        assert got == stdlib({"count": len(tori), "tilings": want})
