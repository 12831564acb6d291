"""The library imports nothing but the standard library and its own modules,
and nothing it does not use.

Every import in `src/tensoralg` must be relative (a module of the package) or
name a top-level module listed in `sys.stdlib_module_names`; the source is
parsed, not imported, so an import inside a function or a branch counts too.
Every name a top-level import binds must be read somewhere in its module,
except in `__init__.py`, which imports to re-export.  The functions that
construct a trusted type positionally are a pinned list.  No module calls
json.dump or json.dumps: `catalog._json_text` renders every JSON output.
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


def _unused_imports(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, name) for every name a top-level import binds that the module never reads."""
    tree = ast.parse(source, filename=filename)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend((node.lineno, (alias.asname or alias.name).partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, alias.asname or alias.name) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8"), str(path)) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport json\n"
        "from .linalg import Vector, kernel as k\nx: Vector = json.loads('1')\n"
    )
    assert _unused_imports(source, "example.py") == [(2, "os"), (4, "k")]


def _json_dump_calls(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, name) for every call of json.dump or json.dumps, through the module or a name imported from it."""
    tree = ast.parse(source, filename=filename)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in ("dump", "dumps")
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps") and isinstance(f.value, ast.Name) and f.value.id == "json":
            found.append((node.lineno, f"json.{f.attr}"))
        elif isinstance(f, ast.Name) and f.id in imported:
            found.append((node.lineno, f.id))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_json_dumps_call(path):
    assert _json_dump_calls(path.read_text(encoding="utf-8"), str(path)) == []


def test_a_json_dumps_call_is_found():
    source = (
        "import json\nfrom json import dumps as d, loads\nimport sys\n"
        "def render(obj):\n    return json.dumps(obj, indent=2) + '\\n'\n"
        "text = d({})\njson.dump({}, sys.stdout)\nobj = json.loads(loads('1'))\nwriter.dumps(obj)\n"
    )
    assert _json_dump_calls(source, "example.py") == [(5, "json.dumps"), (6, "d"), (7, "json.dump")]


# The positional constructors of these types are trusted by contract; each
# type has one checked edge (LieAlgebra.make, make_pair and
# make_pair_with_actions, AlgebraHom.make).  Every function that calls one
# positionally must build what is a Lie algebra, a pair or a homomorphism by
# theorem, so the list is pinned here and a new site is a reviewed change.
TRUSTED_TYPES = {"LieAlgebra", "Pair", "AlgebraHom"}
POSITIONAL_SITES = {
    "liealg.LieAlgebra.make",  # checked right after
    "liealg.LieAlgebra.abelian",
    "liealg.AlgebraHom.make",  # checked right before
    "liealg.quotient_algebra",
    "liealg.direct_sum",
    "liealg.abelianization",
    "liealg._quotient_table",
    "pairs.Pair.ideal_algebra",
    "pairs._inner_pair",
    "pairs.pair_full",
    "pairs.make_pair_with_actions",  # checked right after
    "pairs.quotient_pair",
    "tensor.NonabelianTensor.algebra",
}


def _positional_constructions(source: str, module: str) -> set[str]:
    """module.qualname of every function that calls a trusted type by name, or
    as cls inside that type's own class body."""
    found = set()

    def visit(node, scope: tuple[str, ...], own: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), child.name if child.name in TRUSTED_TYPES else None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), own)
            else:
                if isinstance(child, ast.Call):
                    f = child.func
                    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                    if name in TRUSTED_TYPES or (name == "cls" and own is not None):
                        found.add(".".join((module,) + scope))
                visit(child, scope, own)

    visit(ast.parse(source, filename=f"{module}.py"), (), None)
    return found


def test_positional_constructions_are_the_reviewed_sites():
    found = set()
    for path in SOURCES:
        found |= _positional_constructions(path.read_text(encoding="utf-8"), path.stem)
    assert found == POSITIONAL_SITES


def test_a_positional_construction_is_found():
    source = (
        "class LieAlgebra:\n    @classmethod\n    def zero(cls):\n        return cls(0, (), ())\n"
        "class Other:\n    @classmethod\n    def make(cls):\n        return cls()\n"
        "def checked(a):\n    return LieAlgebra.make(1, ('x',), {})\n"
        "def planted(a, n, x, y):\n    def inner():\n        return liealg.AlgebraHom(a, a, x)\n"
        "    return Pair(a, n, x, y), inner\n"
    )
    assert _positional_constructions(source, "example") == {
        "example.LieAlgebra.zero", "example.planted", "example.planted.inner",
    }
