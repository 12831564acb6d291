"""The library imports nothing but the standard library and its own modules.

Every import in `src/tensoralg` must be relative (a module of the package) or
name a top-level module listed in `sys.stdlib_module_names`; the source is
parsed, not imported, so an import inside a function or a branch counts too.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tensoralg").glob("*.py"))


def _outside_imports(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, module) for every import that is neither relative nor from the standard library."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found.extend((node.lineno, m) for m in modules if m.partition(".")[0] not in sys.stdlib_module_names)
    return found


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "linalg.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    assert _outside_imports(path.read_text(encoding="utf-8"), str(path)) == []


def test_an_outside_import_is_found():
    source = "import json\nfrom . import linalg\nimport numpy.linalg\ndef f():\n    from hypothesis import given\n"
    assert _outside_imports(source, "example.py") == [(3, "numpy.linalg"), (5, "hypothesis")]
