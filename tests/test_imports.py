"""Every name a library module imports is used in it.

`__init__.py` is exempt: its imports are the package's public surface.
Names are collected with the standard `ast` module, including names inside
string annotations; `from __future__` imports are not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tilelab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
