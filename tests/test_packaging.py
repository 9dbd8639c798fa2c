"""The package's third-party imports and its declared runtime dependencies agree.

An import that pyproject.toml does not declare breaks a fresh install; a
declaration that nothing imports is installed for nothing. Distribution and
import names are assumed equal, as they are for every dependency so far.
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cotbudget"


def third_party_imports() -> set[str]:
    """Top-level names of the absolute imports under src/cotbudget outside the stdlib."""
    names: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names} - {"cotbudget"}


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {
        re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def test_every_third_party_import_is_declared():
    assert third_party_imports() - declared_dependencies() == set()


def test_every_declared_dependency_is_imported():
    assert declared_dependencies() - third_party_imports() == set()
