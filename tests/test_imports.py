"""Every name a module of the package imports is used in that module.

The check reads the sources with the standard ``ast`` module only, so it
needs no linter.  ``__init__.py`` is exempt: its imports are the package's
re-exports.
"""

from __future__ import annotations

import ast
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
