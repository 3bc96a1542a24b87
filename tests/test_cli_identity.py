"""tools/cli_identity.py, which compares the CLI answers of two trees.

The tree against itself must match on every corpus call, and a tree whose
`main` gives one subcommand another exit code, or whose `order --dot` writes
another dot file, must not.  The corpus calls must also reach every CLI
outcome they vouch for: run in process under a line trace, they reach every
output line of `cli.py` and the transposed witness of
`solver.weak_periodic_witness`.
"""

import ast
import contextlib
import importlib.util
import io
import shutil
import sys
from pathlib import Path

import tilelab.cli
import tilelab.solver

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("cli_identity", ROOT / "tools" / "cli_identity.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tree_matches_itself_on_the_corpus_calls(capsys):
    assert _tool().main([str(ROOT), str(ROOT), "--seeds"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(" calls, 0 differ\n") and int(out.split()[0]) > 100


def test_a_changed_exit_code_is_reported(tmp_path, capsys, monkeypatch):
    shutil.copytree(ROOT / "src" / "tilelab", tmp_path / "src" / "tilelab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "tilelab" / "cli.py", "a") as f:
        f.write("\n_main = main\n\n\ndef main(argv=None):\n"
                "    return _main(argv) + (argv[0] == 'torus')\n")
    tool = _tool()
    torus = ["torus", str(ROOT / "corpus" / "stripes.tiles"), "--max-p", "2", "--max-q", "2"]
    validate = ["validate", str(ROOT / "corpus" / "stripes.tiles"), str(ROOT / "corpus" / "family" / "a1.pres")]
    monkeypatch.setattr(tool, "corpus_calls", lambda: [validate, torus])
    assert tool.main([str(ROOT), str(tmp_path), "--seeds"]) == 1
    assert capsys.readouterr().out == f"differ in exit code: {' '.join(torus)}\n2 calls, 1 differ\n"


def test_a_changed_dot_file_is_reported(tmp_path, capsys, monkeypatch):
    shutil.copytree(ROOT / "src" / "tilelab", tmp_path / "src" / "tilelab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "tilelab" / "cli.py", "a") as f:
        f.write("\n_old_dot = _dot\n\n\ndef _dot(h):\n    return _old_dot(h) + '\\n'\n")
    tool = _tool()
    dot = [c for c in tool.corpus_calls() if "--dot" in c]
    monkeypatch.setattr(tool, "corpus_calls", lambda: dot)
    assert tool.main([str(ROOT), str(tmp_path), "--seeds"]) == 1
    assert capsys.readouterr().out == f"differ in dot file: {' '.join(dot[0])}\n1 calls, 1 differ\n"


def _gated(mod, fn: ast.FunctionDef):
    """Line numbers in fn, a top-level function of mod, that the corpus calls
    must reach: every _emit or print call in cli.py, every return of a
    cli._cmd_* function, main's exit-2 handler, and the line of
    weak_periodic_witness that transposes a witness."""
    for node in ast.walk(fn):
        called = isinstance(node, ast.Call) and getattr(node.func, "id", None)
        if mod is tilelab.solver:
            if fn.name == "weak_periodic_witness" and called == "transpose":
                yield node.lineno
        elif called in ("_emit", "print") or isinstance(node, ast.Return) and fn.name.startswith("_cmd_"):
            yield node.lineno
        elif isinstance(node, ast.ExceptHandler) and fn.name == "main":
            yield from (stmt.lineno for stmt in node.body)


def _gated_lines() -> dict[tuple[str, int], str]:
    """(file, line) -> source text of each gated line of cli.py and solver.py."""
    out = {}
    for mod in (tilelab.cli, tilelab.solver):
        text = Path(mod.__file__).read_text()
        lines = text.splitlines()
        for fn in ast.parse(text).body:
            if isinstance(fn, ast.FunctionDef):
                out.update({(mod.__file__, n): lines[n - 1].strip() for n in _gated(mod, fn)})
    return out


def _unreached(calls, work: Path) -> list[str]:
    """The gated lines that calls, run in process through tilelab.cli.main in
    work under sys.settrace, never reach, as "file:line: text"."""
    gated, reached = _gated_lines(), set()
    files = {f for f, _ in gated}

    def on_line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):  # lines are traced only in the gated files
        return on_line if frame.f_code.co_filename in files else None

    outer = sys.gettrace()
    with contextlib.chdir(work):
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.settrace(on_call)
                try:
                    tilelab.cli.main(argv)
                except SystemExit:  # argparse refusals
                    pass
                finally:
                    sys.settrace(outer)
    return [f"{Path(f).name}:{n}: {text}" for (f, n), text in sorted(gated.items()) if (f, n) not in reached]


def test_the_corpus_calls_reach_every_cli_outcome(tmp_path):
    tool = _tool()
    tool.write_mixed_family(tmp_path)
    assert len(_gated_lines()) > 20
    assert _unreached(tool.corpus_calls(), tmp_path) == []


def test_an_unreached_outcome_is_reported(tmp_path):
    """One validate call reaches validate's output and return, and none of
    the lines that only the other subcommands and a failed parse reach."""
    validate = ["validate", str(ROOT / "corpus" / "stripes.tiles"), str(ROOT / "corpus" / "family" / "a1.pres")]
    missed = _unreached([validate], tmp_path)
    assert "solver.py" in missed[-1] and "transpose(pres)" in missed[-1]
    assert any(line.endswith(": return 2") for line in missed)
    assert any(line.endswith(': _emit({"outcome": "empty", "square": res.n})') for line in missed)
    assert not any('_emit({"valid": ok})' in line for line in missed)
    assert sum(line.endswith(": return 0 if ok else 1") for line in missed) == 1  # analyze's, not validate's
