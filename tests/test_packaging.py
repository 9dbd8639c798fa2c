"""The package's third-party imports and its declared runtime dependencies agree.

An import that pyproject.toml does not declare breaks a fresh install; a
declaration that nothing imports is installed for nothing. Distribution and
import names are assumed equal, as they are for every dependency so far.
"""
from __future__ import annotations

import ast
import importlib
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


def test_every_exported_name_resolves():
    import cotbudget

    assert [name for name in cotbudget.__all__ if not hasattr(cotbudget, name)] == []
    assert len(set(cotbudget.__all__)) == len(cotbudget.__all__)


def test_every_exported_name_is_the_object_of_its_module():
    """__all__ is the one table's names, each listed once and each its module's own object."""
    import cotbudget

    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    table = cotbudget._EXPORTS
    assert sorted(cotbudget.__all__) == sorted(name for names in table.values() for name in names)
    for module, names in table.items():
        defining = importlib.import_module(f"cotbudget.{module}")
        for name in names:
            assert source.count(f'"{name}"') == 1, name
            assert getattr(cotbudget, name) is getattr(defining, name), name


def test_record_readers_are_exported():
    import cotbudget
    from cotbudget import records

    for name in ("load_records", "read_matrices"):
        assert name in cotbudget.__all__
        assert getattr(cotbudget, name) is getattr(records, name)
    for name in ("read_columns", "RecordColumns", "save_records", "unpivot"):
        assert name not in cotbudget.__all__
        assert not hasattr(records, name)
    assert "cache" not in cotbudget.__all__


def test_removed_helpers_stay_gone():
    """Library surface that only tests called is in no module and no __all__."""
    import cotbudget
    from cotbudget import cli, complexity, mockserver, oracle, records

    for name in ("grid_lengths", "scaled_lengths", "_float_taus", "load_taus"):
        assert name not in cotbudget.__all__
        assert not hasattr(oracle, name)
    for name in ("estimate_tau", "is_finite"):
        assert name not in cotbudget.__all__
        assert not hasattr(complexity, name) and not hasattr(oracle, name)
    assert not hasattr(records.EvalRecord, "from_json_dict")
    assert not hasattr(records.RunMatrix, "cells")
    assert not hasattr(complexity.QuestionComplexity, "finite")
    assert not hasattr(cli, "_budget_entry")
    endpoint = mockserver.MockChatEndpoint()
    assert not hasattr(endpoint, "responses") and not hasattr(endpoint, "default_answer")
