"""tools/cli_identity.py, which compares the CLI answers of two trees.

The tree against itself must match on every corpus call, and a tree whose
`main` gives one subcommand another exit code must not.
"""

import importlib.util
import shutil
from pathlib import Path

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
