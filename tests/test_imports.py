"""Every name a library module imports is used in it, every private
module-level helper is used somewhere in the package and each default of
a private function is left out by some call there, only `solver` reaches
outside the standard library, and no module keeps process-wide mutable
state or a process-wide memoized function.

`__init__.py` is exempt from the first check: its imports are the package's
public surface.  Names are collected with the standard `ast` module,
including names inside string annotations; `from __future__` imports are
not names.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tilelab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the one module with a third-party import (networkx), as README states
THIRD_PARTY_OK = {"solver.py"}


def _imported(tree: ast.Module) -> dict[str, int]:
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return out


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def _used(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a string annotation such as "weakref.WeakKeyDictionary[...]"
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "lang.py", "solver.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imported(tree).items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_detects_an_unused_import():
    tree = ast.parse("from os import path, sep\nimport json\nx: 'json.JSONDecoder' = sep\n'path'\n")
    assert set(_imported(tree)) - _used(tree) == {"path"}


def _third_party(tree: ast.Module) -> list[tuple[str, int]]:
    """Top-level packages imported from outside the standard library and tilelab."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(n, node.lineno) for n in names
                if n.split(".")[0] not in sys.stdlib_module_names | {"tilelab"}]
    return out


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name not in THIRD_PARTY_OK],
                         ids=lambda p: p.name)
def test_no_third_party_imports(path):
    found = _third_party(ast.parse(path.read_text(), filename=str(path)))
    assert not found, "\n".join(f"{path.name}:{line}: imports {name}" for name, line in found)


def test_detects_a_third_party_import():
    tree = ast.parse("import os.path\nfrom . import core\nfrom tilelab.core import Vec2\n"
                     "import networkx as nx\nfrom numpy import array\n")
    assert _third_party(tree) == [("networkx", 4), ("numpy", 5)]


def _private_defs(tree: ast.Module):
    """(name, statement) for each module-level `_name` a statement defines; dunders are not helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((n, node) for n in names if n.startswith("_") and not n.startswith("__"))


def _referenced(node: ast.AST) -> set[str]:
    """Names and attributes a statement mentions, string annotations included."""
    return _used(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _dead_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level names that no other statement in the package reads."""
    stmts = [(name, node) for name, tree in trees.items() for node in tree.body]
    dead = []
    for name, tree in trees.items():
        for helper, where in _private_defs(tree):
            if not any(helper in _referenced(node) for _, node in stmts if node is not where):
                dead.append(f"{name}:{where.lineno}: {helper}")
    return dead


def test_no_dead_private_helpers():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert sum(1 for tree in trees.values() for _ in _private_defs(tree)) > 40
    dead = _dead_helpers(trees)
    assert not dead, "private helpers used nowhere:\n" + "\n".join(dead)


def test_detects_a_dead_helper():
    trees = {
        "a.py": ast.parse("_LIMIT = 3\n_table = {}\ndef _walk(n):\n    return _walk(n - 1)\n"
                          "def _read() -> '_Node':\n    return _table\nclass _Node:\n    pass\n"),
        "b.py": ast.parse("from a import _read\nx = _read()\n"),
    }
    assert _dead_helpers(trees) == ["a.py:1: _LIMIT", "a.py:3: _walk"]


def _supplies(call: ast.Call, param: str, i: int | None) -> bool:
    """Whether a call passes param (positional index i, None for keyword-only)."""
    return (any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, param) for k in call.keywords)
            or i is not None and i < len(call.args))


def _unused_defaults(trees: dict[str, ast.Module]) -> list[str]:
    """Each default of a private module-level function that every call in the
    package supplies, so that no caller reaches it.  A call through `*args`
    or `**kwargs` counts as supplying every argument."""
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unused = []
    for name, tree in trees.items():
        for fn, node in _private_defs(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            pos = [p.arg for p in args.posonlyargs + args.args]
            kwonly = [p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            mine = [c for c in calls if fn in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]
            for param in pos[len(pos) - len(args.defaults):] + kwonly:
                i = pos.index(param) if param in pos else None
                if all(_supplies(c, param, i) for c in mine):
                    unused.append(f"{name}:{node.lineno}: {fn}({param})")
    return unused


def test_every_private_default_is_reached():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    unused = _unused_defaults(trees)
    assert not unused, "defaults that every call supplies:\n" + "\n".join(unused)


def test_detects_an_unused_default():
    trees = {
        "a.py": ast.parse("def _walk(n, depth=0, *, seen=None, cap=9):\n    return _walk(n - 1, depth + 1, seen=seen)\n"
                          "def _read(path, mode='r'):\n    return path\ndef _spread(a, b=1):\n    return a\n"
                          "def _load(a, b=1):\n    return a\ndef walk(n, depth=0):\n    return n\n"
                          "class _Node:\n    def get(self, k=None):\n        return k\n"),
        "b.py": ast.parse("import a\nfrom a import _load, _read, _spread\na._walk(3, 0, seen=set())\n"
                          "_read('x')\n_spread(*args)\n_load(1, **opts)\n_Node().get(1)\n"),
    }
    assert _unused_defaults(trees) == ["a.py:1: _walk(depth)", "a.py:1: _walk(seen)",
                                       "a.py:5: _spread(b)", "a.py:7: _load(b)"]


# module-level containers that are fixed after import: the public surface
# and the one table of pair cells
CONSTANT_CONTAINERS = {("__init__.py", "__all__"), ("core.py", "_PAIR_CELLS")}


def _module_containers(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each module-level name bound to a dict, list or set:
    a display, a comprehension, or a dict()/list()/set() call.  Function and
    class bodies are not module level."""
    out = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            v = node.value
            if isinstance(v, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)) or (
                isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id in ("dict", "list", "set")
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        todo += ast.iter_child_nodes(node)
    return sorted(out, key=lambda t: t[1])


def test_no_process_wide_mutable_state():
    """A module-level cache would let one call's scans answer the next, so
    a benchmark call would be warm without any other test noticing."""
    found = [f"{p.name}:{line}: {name}" for p in sorted(SRC.glob("*.py"))
             for name, line in _module_containers(ast.parse(p.read_text(), filename=str(p)))
             if (p.name, name) not in CONSTANT_CONTAINERS]
    assert not found, "module-level mutable containers:\n" + "\n".join(found)


def test_detects_module_level_containers():
    tree = ast.parse("A = {}\nB: list[int] = []\nC = (1, 2)\nD = {k: 1 for k in 'ab'}\nE = set()\n"
                     "F = frozenset()\nif A:\n    G = [1]\ndef f():\n    H = {}\nclass K:\n    I = []\n")
    assert _module_containers(tree) == [("A", 1), ("B", 2), ("D", 4), ("E", 5), ("G", 8)]


# module-level functions that may memoize process-wide: the CLI's argument
# parser, which is built at the first call and only read after that
CACHED_FUNCTIONS = {("cli.py", "_parser")}


def _is_cache(node: ast.expr) -> bool:
    """Whether an expression is functools.cache or lru_cache: bare, dotted
    or called, as in `lru_cache(maxsize=None)`."""
    while isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def _module_caches(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each module-level function or class method memoized
    by functools.cache or lru_cache, as a decorator or as a call bound to a
    module-level name.  A cache made inside a function lives for that call."""
    out = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(map(_is_cache, node.decorator_list)):
                out.append((node.name, node.lineno))
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _is_cache(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        todo += ast.iter_child_nodes(node)
    return sorted(out, key=lambda t: t[1])


def test_no_process_wide_caches():
    """A memoized module-level function keeps its answers for the life of
    the process, so the next call would be answered from this one's work."""
    found = [f"{p.name}:{line}: {name}" for p in sorted(SRC.glob("*.py"))
             for name, line in _module_caches(ast.parse(p.read_text(), filename=str(p)))
             if (p.name, name) not in CACHED_FUNCTIONS]
    assert not found, "module-level memoized functions:\n" + "\n".join(found)


def test_detects_module_level_caches():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache, cached_property\n"
                     "@cache\ndef a(): pass\n@functools.lru_cache(maxsize=None)\ndef b(): pass\n"
                     "@lru_cache\ndef c(): pass\nclass K:\n    @functools.cache\n    def d(self): pass\n"
                     "    @cached_property\n    def e(self): pass\nf = cache(len)\n"
                     "def g():\n    h = cache(len)\n    @cache\n    def i(): pass\n"
                     "if a:\n    @functools.cache\n    def j(): pass\n")
    assert _module_caches(tree) == [("a", 4), ("b", 6), ("c", 8), ("d", 11), ("f", 14), ("j", 21)]


# band geometry has one home, the per-axis records of presentation's scan
# index; every other module reads sizes and window sets through the plane
BAND_GEOMETRY_HOME = "presentation.py"


def _band_geometry(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each mention of `_Axis` or `_corners` (as a name, an
    imported name or an attribute) and each `.axes` attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr] if node.attr != "axes" else [".axes"]
        else:
            continue
        out += [(n, node.lineno) for n in names if n in ("_Axis", "_corners", ".axes")]
    return sorted(out, key=lambda t: t[1])


def test_band_geometry_stays_in_presentation():
    found = [f"{p.name}:{line}: {name}" for p in MODULES if p.name != BAND_GEOMETRY_HOME
             for name, line in _band_geometry(ast.parse(p.read_text(), filename=str(p)))]
    assert not found, "band geometry read outside presentation:\n" + "\n".join(found)
    home = ast.parse((SRC / BAND_GEOMETRY_HOME).read_text())
    assert {name for name, _ in _band_geometry(home)} == {"_Axis", "_corners", ".axes"}


def test_detects_band_geometry():
    tree = ast.parse("from .presentation import _corners, shift\nimport tilelab.presentation as p\n"
                     "x, y = g._index.axes\nb = p._Axis(c, s)\naxes = 2\nn = g._settled\n")
    assert _band_geometry(tree) == [("_corners", 1), (".axes", 3), ("_Axis", 4)]
