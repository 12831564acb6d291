"""The library imports nothing but the standard library and its own modules,
and nothing it does not use.

Every import in `src/tensoralg` must be relative (a module of the package) or
name a top-level module listed in `sys.stdlib_module_names`; the source is
parsed, not imported, so an import inside a function or a branch counts too.
Every name an import binds must be read in its scope, the function around
the import or else the module, except in `__init__.py`, which imports to
re-export.  The functions that
construct a trusted type positionally are a pinned list, and so are the
names `__init__.py` exports.  No module calls json.dump or json.dumps:
`catalog._json_text` renders every JSON output.  No private function has a
defaulted parameter that every call leaves at its default.  Outside `linalg`,
no module reads a subspace's Gauss-Jordan rows or calls `.echelon()`.  Only
`catalog.pair_center` calls `center`, and no module reads an `exterior`
attribute.  Only `tensor` reads a pair's `inclusion`, in the pinned functions
that form products of ideal vectors, and `LieAlgebra.bracket_sparse` is read
only in a pinned list of functions.
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
    """(line, name) for every name an import binds that its scope never reads, sorted.

    The scope of an import is the innermost function around it, else the module."""
    found = []

    def bind(node, bound: list):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(child)
            elif isinstance(child, ast.Import):
                bound.extend((child.lineno, (alias.asname or alias.name).partition(".")[0]) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                bound.extend((child.lineno, alias.asname or alias.name) for alias in child.names)
            else:
                bind(child, bound)

    def check(scope):
        bound: list = []
        bind(scope, bound)
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        found.extend((line, name) for line, name in bound if name not in read)

    check(ast.parse(source, filename=filename))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8"), str(path)) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport json\n"
        "from .linalg import Vector, kernel as k\nx: Vector = json.loads('1')\n"
    )
    assert _unused_imports(source, "example.py") == [(2, "os"), (4, "k")]


def test_an_unused_function_level_import_is_found():
    # A name a function imports must be read in that function; a read
    # elsewhere in the module does not count.
    source = (
        "def f():\n    from .catalog import SelectorError, _json_text\n    return _json_text(1)\n"
        "def g(x):\n    if x:\n        import json\n    def inner():\n        return json.loads(x)\n    return inner\n"
        "def h():\n    from .verify import verify_pair\n    return 1\n"
        "verify_pair = SelectorError = None\n"
        "class C:\n    def m(self):\n        try:\n            import os.path\n        finally:\n            pass\n"
    )
    assert _unused_imports(source, "example.py") == [(2, "SelectorError"), (11, "verify_pair"), (17, "os")]


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


# A Subspace's Gauss-Jordan rows are linalg's own format: other modules push
# a subspace through a map with LinearMap.kills and LinearMap.image_of, and
# read its basis through `entries`.  No module outside linalg grows a basis.
ROW_SITES_ALLOWED = []


def _sites(source: str, module: str, label) -> list[tuple[str, int, str]]:
    """(module.qualname, line, label(node)) for every node that label names, sorted."""
    found = []

    def visit(node, scope: tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            inner = scope + (child.name,) if named else scope
            read = label(child)
            if read is not None:
                found.append((".".join((module,) + inner), child.lineno, read))
            visit(child, inner)

    visit(ast.parse(source, filename=f"{module}.py"), ())
    return sorted(found)


def _row_read(node) -> str | None:
    """The attribute name for a read of rows or _rows, echelon() for a call of .echelon()."""
    if isinstance(node, ast.Attribute) and node.attr in ("rows", "_rows"):
        return node.attr
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "echelon":
        return "echelon()"
    return None


def test_only_linalg_reads_gauss_jordan_rows():
    found = []
    for path in SOURCES:
        if path.name != "linalg.py":
            found += _sites(path.read_text(encoding="utf-8"), path.stem, _row_read)
    assert [(where, read) for where, _, read in found] == ROW_SITES_ALLOWED


def test_a_row_read_is_found():
    source = (
        "def grow(space):\n    basis = space.echelon()\n    return basis.rows\n"
        "class Map:\n    def push(self, space):\n        return [self.f(r) for r in space._rows.values()]\n"
        "def fine(rows, space):\n    rows = space.entries\n    return grid.from_rows(1, rows), echelon()\n"
    )
    assert _sites(source, "example", _row_read) == [
        ("example.Map.push", 6, "_rows"), ("example.grow", 2, "echelon()"), ("example.grow", 3, "rows"),
    ]


# verify_pair reads centrality and [T, T] off the collapse maps, with no
# bracket table.  A centre is computed only to build the centre pair, and no
# module reads the exterior product's table, DerivedMaps.exterior, which is
# kept for callers outside the package.
TABLE_SITES_ALLOWED = [("catalog.pair_center", "center()")]


def _table_read(node) -> str | None:
    """center() for a call of center, by name or as an attribute; exterior for a read of an exterior attribute."""
    if isinstance(node, ast.Call):
        f = node.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "center":
            return "center()"
    if isinstance(node, ast.Attribute) and node.attr == "exterior":
        return "exterior"
    return None


def test_table_reads_are_the_reviewed_sites():
    found = []
    for path in SOURCES:
        found += _sites(path.read_text(encoding="utf-8"), path.stem, _table_read)
    assert [(where, read) for where, _, read in found] == TABLE_SITES_ALLOWED


def test_a_table_read_is_found():
    source = (
        "from .liealg import center\ndef pair_center(a):\n    return center(a)\n"
        "class Report:\n    def size(self, maps):\n        return maps.exterior.dim + liealg.center(maps.tensor.algebra).dim\n"
        "def fine(exterior, centre):\n    return exterior, centre.center, center\n"
    )
    assert _sites(source, "example", _table_read) == [
        ("example.Report.size", 6, "center()"), ("example.Report.size", 6, "exterior"),
        ("example.pair_center", 3, "center()"),
    ]


# Every product of ideal vectors is formed in the tensor module: the diagonal,
# psi and the verifier share tensor._ideal_class and tensor._squares, which
# lift an ideal vector into L, and kappa_maps carries rho into L.  No other
# function reads a pair's inclusion.
INCLUSION_SITES_ALLOWED = [
    ("tensor._ideal_class", "inclusion"), ("tensor._squares", "inclusion"), ("tensor.kappa_maps", "inclusion"),
]


def _inclusion_read(node) -> str | None:
    """inclusion for a read of an inclusion attribute."""
    return "inclusion" if isinstance(node, ast.Attribute) and node.attr == "inclusion" else None


def test_only_the_tensor_layer_lifts_ideal_vectors():
    found = []
    for path in SOURCES:
        found += _sites(path.read_text(encoding="utf-8"), path.stem, _inclusion_read)
    assert [(where, read) for where, _, read in found] == INCLUSION_SITES_ALLOWED


def test_an_inclusion_read_is_found():
    source = (
        "def lift(pair, m):\n    return pair.inclusion._image(m)\n"
        "class Derivation:\n    def mixed(self):\n        inclusion = self.pair.ideal_maps[1]\n"
        "        return [inclusion, self.pair.inclusion]\n"
        "def fine(inclusion):\n    return inclusion.compose(inclusion)\n"
    )
    assert _sites(source, "example", _inclusion_read) == [
        ("example.Derivation.mixed", 6, "inclusion"), ("example.lift", 2, "inclusion"),
    ]


# A pair's brackets [l_i, n_a] are formed once, in Pair.collapse_maps, and
# [N, L], [L, L] and make_pair's ideal check read them from there and from
# the bracket table.  The other functions that read LieAlgebra.bracket_sparse
# bracket what no table holds: the ideal test of a bare subspace, a map's
# images, and the representatives of a derived algebra's basis.
BRACKET_SITES_ALLOWED = [
    ("liealg.AlgebraHom.make", "bracket_sparse"), ("liealg.AlgebraSubspace.is_ideal", "bracket_sparse"),
    ("liealg._quotient", "bracket_sparse"), ("pairs.Pair.collapse_maps", "bracket_sparse"),
    ("pairs.Pair.ideal_algebra", "bracket_sparse"), ("tensor.DerivedMaps.exterior", "bracket_sparse"),
]


def _bracket_read(node) -> str | None:
    """bracket_sparse for a read of a bracket_sparse attribute, called or passed on."""
    return "bracket_sparse" if isinstance(node, ast.Attribute) and node.attr == "bracket_sparse" else None


def test_brackets_are_formed_at_the_reviewed_sites():
    found = []
    for path in SOURCES:
        found += _sites(path.read_text(encoding="utf-8"), path.stem, _bracket_read)
    assert [(where, read) for where, _, read in found] == BRACKET_SITES_ALLOWED


def test_a_bracket_read_is_found():
    source = (
        "class Pair:\n    def relative_commutator(self):\n"
        "        return [self.algebra.bracket_sparse(((i, 1),), n) for i, n in self.symbols]\n"
        "def derived(a):\n    return induced(a.bracket_sparse, a)\n"
        "def fine(bracket_sparse, a):\n    return bracket_sparse(a), a.bracket_entries(0, 1)\n"
    )
    assert _sites(source, "example", _bracket_read) == [
        ("example.Pair.relative_commutator", 3, "bracket_sparse"), ("example.derived", 5, "bracket_sparse"),
    ]


# The positional constructors of these types are trusted by contract; each
# type has one checked edge (LieAlgebra.make, make_pair, AlgebraHom.make).
# Every function that calls one positionally must build what is a Lie
# algebra, a pair or a homomorphism by theorem, so the list is pinned here and
# a new site is a reviewed change.
TRUSTED_TYPES = {"LieAlgebra", "Pair", "AlgebraHom"}
POSITIONAL_SITES = {
    "liealg.LieAlgebra.make",  # checked right after
    "liealg.LieAlgebra.abelian",
    "liealg.AlgebraHom.make",  # checked right before
    "liealg.quotient_algebra",
    "liealg.direct_sum",
    "liealg.abelianization",
    "liealg._induced_algebra",
    "pairs.make_pair",  # checked right before
    "pairs.pair_full",
    "pairs.quotient_pair",
    "pairs.direct_sum_pair",
    "catalog.pair_center",
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
        "    return Pair(a, n), inner\n"
    )
    assert _positional_constructions(source, "example") == {
        "example.LieAlgebra.zero", "example.planted", "example.planted.inner",
    }


# The public surface: what the CLI, the verifier and documented callers use.
# A name added to or dropped from __all__ is a reviewed change, so the list is
# pinned here.
EXPORTED = frozenset({
    "AlgebraDocument", "AlgebraHom", "AlgebraSubspace", "CheckRecord", "DerivedMaps", "DocumentError",
    "GammaSpace", "LieAlgebra", "LinalgError", "LinearMap", "NonabelianTensor", "NotAnIdealError", "Pair",
    "PairDocument", "PsiDefect", "QuotientPair", "SelectorError", "StructureError", "StructureViolation", "Subspace",
    "TensorConstructionError", "VerificationReport", "abelian", "abelianization",
    "algebra_from_document", "catalog_pairs", "catalog_selectors", "center", "check_names", "closure",
    "complement_condition", "construct_tensor", "diagonal", "direct_sum", "direct_sum_pair",
    "gamma_dim", "heisenberg", "kappa_maps", "kernel", "load_path", "make_pair",
    "nonabelian2", "pair_center", "pair_from_document", "pair_full", "pair_is_clean", "parse", "parse_scalar",
    "psi_map", "psi_welldefined", "quotient_algebra", "quotient_pair", "relation_seed",
    "relative_abelianization_dim", "resolve_selector", "serialize", "serialize_report", "validate_structure",
    "verify_abelian_basis", "verify_diagonal_descent", "verify_diagram", "verify_j2_decomposition",
    "verify_ker_pi", "verify_kunneth", "verify_pair", "verify_splitting",
})


def _export_drift(source: str, filename: str) -> tuple[list[str], list[str]]:
    """(names __all__ lists that are not pinned, pinned names it leaves out), each sorted.

    A name listed twice counts as not pinned."""
    tree = ast.parse(source, filename=filename)
    listed = [
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]
    repeated = {name for name in listed if listed.count(name) > 1}
    return sorted(set(listed) - EXPORTED | repeated), sorted(EXPORTED - set(listed))


def test_exported_names_are_the_pinned_list():
    init = next(p for p in SOURCES if p.name == "__init__.py")
    assert _export_drift(init.read_text(encoding="utf-8"), str(init)) == ([], [])


def test_an_unpinned_export_is_found():
    listed = sorted(EXPORTED - {"kernel"}) + ["planted", "parse"]
    source = f"from .linalg import kernel\n__all__ = {listed!r}\n"
    assert _export_drift(source, "example.py") == (["parse", "planted"], ["kernel"])


def _unused_defaults(sources: dict[str, str]) -> list[str]:
    """module.qualname.parameter for every defaulted parameter of a private
    (single-underscore) function that no call in the sources passes, by
    position or by keyword, sorted.

    Calls are matched to functions by the called name alone, across all the
    sources, so a name two functions share counts the calls of both.  A call
    that unpacks *args or **kwargs passes every parameter.  A method's
    positions are counted after self or cls, a static method's from the first."""
    defaults = []  # (label, name, position or None, keyword)
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}

    def visit(node, module: str, scope: tuple[str, ...], in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, scope + (child.name,), True)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, a = child.name, child.args
                if name.startswith("_") and not name.startswith("__"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                    shift = 1 if in_class and not static else 0
                    label = ".".join((module,) + scope + (name,))
                    positional = a.posonlyargs + a.args
                    first = len(positional) - len(a.defaults)
                    for k, arg in enumerate(positional[first:], first):
                        defaults.append((f"{label}.{arg.arg}", name, k - shift, arg.arg))
                    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                        if default is not None:
                            defaults.append((f"{label}.{arg.arg}", name, None, arg.arg))
                visit(child, module, scope + (name,), False)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                callee = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if callee is not None:
                    unpacks = any(isinstance(x, ast.Starred) for x in child.args) or any(
                        kw.arg is None for kw in child.keywords
                    )
                    calls.setdefault(callee, []).append(
                        (len(child.args), {kw.arg for kw in child.keywords}, unpacks)
                    )
            visit(child, module, scope, in_class)

    for module, source in sources.items():
        visit(ast.parse(source, filename=f"{module}.py"), module, (), False)

    def passed(name: str, position: int | None, keyword: str) -> bool:
        return any(
            unpacks or keyword in keywords or (position is not None and count > position)
            for count, keywords, unpacks in calls.get(name, ())
        )

    return sorted(label for label, name, position, keyword in defaults if not passed(name, position, keyword))


def test_every_private_default_is_passed_somewhere():
    assert _unused_defaults({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_an_unused_private_default_is_found():
    sources = {
        "a": (
            "def _f(x, c=1, *, k=None, used=0):\n    return x\ndef _g(y=2):\n    return y\n"
            "def _h(a=0, b=0):\n    return a\n"
            "class C:\n    def _m(self, a, b=0):\n        return a\n"
            "    @staticmethod\n    def _s(a, b=0):\n        return a\n"
            "def public(z=3):\n    def _inner(w=4):\n        return w\n    return _inner()\n"
            "def __dunder__(w=1):\n    return w\n"
        ),
        "b": "from .a import _f, _g, _h, C\n_f(1, used=2)\n_g(5)\n_h(*[1, 2])\nC()._m(1)\nC._s(1, 2)\n",
    }
    assert _unused_defaults(sources) == ["a.C._m.b", "a._f.c", "a._f.k", "a.public._inner.w"]
