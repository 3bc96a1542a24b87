"""The hooks the benchmark reaches into tilelab by name.

bench/spans.py wraps the functions listed in its TARGETS.  A rename in
tilelab would break the traced run without failing any other test, so the
targets are checked here; bench/spans.py is read, not changed.

bench/worker.py's lookup of tilelab.presentation._ANALYSES finds nothing:
a plane's scan index is an attribute of the plane and dies with it, so calls
stay cold without a reset, and tests/test_imports.py keeps tilelab free of
module-level caches that would make them warm.
"""

import importlib
import importlib.util
from pathlib import Path

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

