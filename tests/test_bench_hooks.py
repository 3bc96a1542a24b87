"""The hooks the benchmark reaches into tilelab by name.

bench/spans.py wraps the functions listed in its TARGETS, and
bench/worker.py empties tilelab.presentation._ANALYSES before every call.
A rename in tilelab would break the traced run without failing any other
test, so both hooks are checked here; bench/spans.py is read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import tilelab.presentation
from tilelab.core import Alphabet
from tilelab.presentation import rect_window_keys, uniform

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_tilelab_span_target_resolves():
    checked = 0
    for modname, attr, _, _ in _targets():
        if not modname.startswith("tilelab"):
            continue
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), (modname, cls_name, attr)
        assert callable(getattr(owner, attr)), (modname, attr)
        checked += 1
    assert checked


def test_scans_fill_the_index_table_and_clear_empties_it():
    analyses = tilelab.presentation._ANALYSES
    analyses.clear()
    # an index lives as long as its plane, so the plane is kept in a local
    g = uniform(Alphabet(("a", "b")), 1)
    rect_window_keys(g, 2, 2)
    assert len(analyses) == 1
    analyses.clear()
    assert not analyses
