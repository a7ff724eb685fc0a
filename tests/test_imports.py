"""Every name a module of the package imports is used in that module, and
importing the command line loads no module that only some commands need.

The first check reads the sources with the standard ``ast`` module only, so
it needs no linter.  ``__init__.py`` is exempt: its imports are the
package's re-exports.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ctrskit

MODULES = sorted(p for p in Path(ctrskit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = imported_names(tree)
    assert [f"{name} (line {imported[name]})" for name in imported if name not in used] == []


# Modules that only some commands need, or that only record generation did;
# ``import ctrskit.cli`` must load none of them.
LAZY = (
    "ctrskit.experiment",
    "dataclasses",
    "inspect",
    "concurrent.futures",
    "logging",
    "subprocess",
    "tempfile",
    "shlex",
    "importlib.resources",
)
SRC = str(Path(ctrskit.__file__).parent.parent)


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter without ``site``, ``src`` first on
    its path."""
    return subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {SRC!r}); {code}", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_importing_the_cli_loads_no_lazy_module():
    child = _fresh(f"import ctrskit.cli; print([m for m in {LAZY!r} if m in sys.modules])")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_experiment_with_workers_and_an_external_tool_in_a_fresh_interpreter(tmp_path):
    # The modules imported on demand load when they are needed.
    (tmp_path / "one.ctrs").write_text("(VAR x)\n(RULES f(f(x)) -> f(x))\n")
    (tmp_path / "two.ctrs").write_text("(RULES a -> a)\n")
    tool = {"name": "fake", "command": f"{sys.executable} -S -c \"print('NO')\""}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workers": 2, "seed_size": 2, "external_tools": [tool]}))
    child = _fresh(
        "from ctrskit.cli import cli_main; code = cli_main(sys.argv[1:]); "
        f"print(code, [m for m in {LAZY!r} if m in sys.modules])",
        "experiment", str(tmp_path), "--config", str(config), "--json", str(tmp_path / "out.json"),
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[-1] == (
        "0 ['ctrskit.experiment', 'concurrent.futures', 'logging', 'subprocess', 'tempfile', "
        "'shlex']"
    )
    assert "summary: YES=1 NO=1 MAYBE=0 error=0" in lines
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert [(r["system"], r["verdict"], r["external"]) for r in rows] == [
        ("one", "YES", {"fake": "NO"}),
        ("two", "NO", {"fake": "NO"}),
    ]
