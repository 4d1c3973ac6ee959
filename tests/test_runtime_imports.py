"""The package imports nothing at run time beyond numpy, scipy and the
standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "humsearch"
SOURCES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"numpy", "scipy", "humsearch"} | set(sys.stdlib_module_names)


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert "cli.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_scipy_and_stdlib(path):
    assert imported_modules(path) <= ALLOWED


def test_a_third_party_import_is_caught(tmp_path):
    source = tmp_path / "bad.py"
    source.write_text("import numpy\ndef f():\n    from pandas import api\n")
    assert imported_modules(source) - ALLOWED == {"pandas"}
