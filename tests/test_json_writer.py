"""The CLI's one hand-laid JSON text against the stdlib.

Every CLI answer is `json.dumps(obj, indent=2, sort_keys=True)`.  `torus`
and `classify` print tori from one template, `cli._torus_json`, so a torus
laid out at a pad must come out exactly as json.dumps lays out its dict at
that pad.  The wrappers around it are checked on whole stdout in
`tests/test_cli.py`.
"""

import json
import random

from tilelab.cli import _torus_json
from tilelab.core import Alphabet, TorusTiling

# characters the escaper treats specially: quotes, backslashes, controls,
# DEL, non-ASCII letters, line separators and astral characters
SPECIAL = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u2029\ufeff\U0001f600'


def _torus_dict(t: TorusTiling, tokens) -> dict:
    return {"p": t.p, "q": t.q,
            "rows": [" ".join(tokens[t.block[x][y]] for x in range(t.p)) for y in reversed(range(t.q))]}


def test_tori_are_laid_out_as_json_dumps():
    """Seeded tori up to 4 x 4 over tokens of SPECIAL characters (no
    whitespace, which a token may not hold), at the pad classify nests one
    at and at the pad torus lists them at, with rows shared across a listing."""
    chars = [c for c in SPECIAL if not c.isspace()]
    rng = random.Random("tori")
    for _ in range(100):
        tokens, k = [], rng.randint(1, 4)
        while len(tokens) < k:
            tok = "".join(rng.choices(chars, k=rng.randint(1, 3)))
            tokens += [tok] if tok not in tokens else []
        al = Alphabet(tuple(tokens))
        memo: dict = {}
        for _ in range(rng.randint(1, 6)):
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            column = [rng.randrange(len(al)) for _ in range(q)]
            t = TorusTiling(p, q, tuple(tuple(column if rng.random() < 0.5 else
                                              [rng.randrange(len(al)) for _ in range(q)])
                                        for _ in range(p)))
            want = json.dumps(_torus_dict(t, al.tokens), indent=2, sort_keys=True)
            assert _torus_json(t.block, al, "\n  ") == want.replace("\n", "\n  ")
            assert _torus_json(t.block, al, "\n    ", memo) == want.replace("\n", "\n    ")
