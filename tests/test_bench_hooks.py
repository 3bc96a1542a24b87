"""The hooks the benchmark reaches into tilelab by name.

bench/spans.py wraps the functions listed in its TARGETS.  A rename in
tilelab would break the traced run without failing any other test, so the
targets are checked here; bench/spans.py is read, not changed.  The traced
run imports tilelab.cli and then looks every target module up in
sys.modules, third-party ones (networkx) included, so that import alone must
load them all.

bench/worker.py's lookup of tilelab.presentation._ANALYSES finds nothing:
a plane's scan index is an attribute of the plane and dies with it, so calls
stay cold without a reset, and tests/test_imports.py keeps tilelab free of
module-level caches that would make them warm.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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



# run in a fresh interpreter: targets as JSON on stdin, unmet ones as JSON on stdout
_AFTER_CLI_IMPORT = """
import functools, json, sys
import tilelab.cli
targets = json.load(sys.stdin)
print(json.dumps({
    "not_loaded": [m for m, _ in targets if m not in sys.modules],
    "unresolved": [[m, a] for m, a in targets if m in sys.modules and not m.startswith("tilelab")
                   and not callable(functools.reduce(getattr, a.split("."), sys.modules[m]))],
}))
"""


def test_importing_the_cli_loads_every_span_target_module():
    targets = [[modname, attr] for modname, attr, _, _ in _targets()]
    assert any(not m.startswith("tilelab") for m, _ in targets)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", _AFTER_CLI_IMPORT], input=json.dumps(targets),
                         capture_output=True, text=True, env=env, check=True)
    assert json.loads(res.stdout) == {"not_loaded": [], "unresolved": []}
