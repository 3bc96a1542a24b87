"""The CLI's JSON writer against the stdlib.

`cli._json(obj)` must return exactly `json.dumps(obj, indent=2,
sort_keys=True)` for every value the subcommands print: str-keyed dicts,
lists and tuples nested to any depth, and str, int, bool and None leaves.
derandomize keeps every run on the same seed.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab.cli import _json

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
