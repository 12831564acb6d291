"""Built-in algebras and pairs, document parsing, and report serialization.

Documents are JSON with a fixed shape.  An algebra document:

    {"name": "heisenberg1", "dim": 3, "basis": ["x", "y", "z"],
     "brackets": {"x,y": {"z": "1"}}}

Bracket keys name an ordered basis pair, at most once; the parts of a key
are stripped, so a basis name holds no "," and no surrounding whitespace.
Values map basis names to rational scalars written as strings (plain integers
are also accepted).  A pair document wraps an algebra, inline or by file
reference, with an ideal:

    {"algebra": "heisenberg1.json", "ideal": [["0", "0", "1"]]}

or "ideal": "all" for the pair of the algebra with itself.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable

from .liealg import LieAlgebra, NotAnIdealError, StructureError, center
from .linalg import Vector, parse_scalar
from .pairs import Pair, _inner_pair, direct_sum_pair, make_pair, pair_full
from .verify import VerificationReport


class DocumentError(ValueError):
    """A document that cannot be read, with position or witness when known."""

    def __init__(self, message, line=None, col=None, witness=None):
        self.line = line
        self.col = col
        self.witness = witness
        if line is not None:
            message = f"line {line} col {col}: {message}"
        if witness is not None:
            message = f"{message} (witness: {witness})"
        super().__init__(message)


class SelectorError(ValueError):
    """A builtin selector that does not name a constructible object."""


# ---------------------------------------------------------------- builtins


def _abelian_dim(n: int) -> int:
    if n < 0:
        raise SelectorError("abelian dimension must be non-negative")
    return n


def _heisenberg_dim(m: int) -> int:
    if m < 1:
        raise SelectorError("heisenberg rank must be positive")
    return 2 * m + 1


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra.abelian(_abelian_dim(n))


def nonabelian2() -> LieAlgebra:
    return LieAlgebra.make(2, ("x", "y"), {(0, 1): (0, 1)})


def heisenberg(m: int) -> LieAlgebra:
    """2m+1 dimensional: [x_i, y_i] = z, everything else zero."""
    dim = _heisenberg_dim(m)
    names = tuple(f"x{i + 1}" for i in range(m)) + tuple(f"y{i + 1}" for i in range(m)) + ("z",)
    return LieAlgebra.make(dim, names, {(i, m + i): {dim - 1: 1} for i in range(m)})


def pair_center(algebra: LieAlgebra) -> Pair:
    """(L, Z(L)) with the inner actions; the centre is an ideal by theorem, as [L, Z(L)] = 0."""
    return _inner_pair(algebra, center(algebra))


_TOKEN = re.compile(r"\s*([a-z_][a-z0-9_]*|\d+|[(),])")
# The catalog nests three calls deep; the bound keeps parsing and evaluation
# far from the interpreter's recursion limit.
_MAX_SELECTOR_DEPTH = 32


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise SelectorError(f"cannot read selector at: {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_node(tokens: list[str], at: int, depth: int = 0):
    if depth > _MAX_SELECTOR_DEPTH:
        raise SelectorError(f"selector nests deeper than {_MAX_SELECTOR_DEPTH} levels")
    if at >= len(tokens):
        raise SelectorError("selector ends unexpectedly")
    head = tokens[at]
    if head.isdigit():
        return int(head), at + 1
    if not head[0].isalpha() and head[0] != "_":
        raise SelectorError(f"expected a name, found {head!r}")
    at += 1
    args = []
    if at < len(tokens) and tokens[at] == "(":
        at += 1
        if at < len(tokens) and tokens[at] == ")":
            at += 1
        else:
            while True:
                node, at = _parse_node(tokens, at, depth + 1)
                args.append(node)
                if at >= len(tokens):
                    raise SelectorError("unclosed parenthesis in selector")
                if tokens[at] == ",":
                    at += 1
                    continue
                if tokens[at] == ")":
                    at += 1
                    break
                raise SelectorError(f"expected ',' or ')', found {tokens[at]!r}")
    return (head, args), at


@dataclass(frozen=True)
class _Plan:
    """What a selector or document names, known before it is built: its kind
    (LieAlgebra or Pair), the dimension of its algebra, and how to build it."""

    kind: type
    dim: int
    build: Callable[[], LieAlgebra | Pair]


def _eval_node(node):
    """Check a parsed selector and size what it names; nothing is built."""
    if isinstance(node, int):
        return node
    name, args = node
    values = [_eval_node(a) for a in args]

    def arity(n, kinds):
        if len(values) != n:
            raise SelectorError(f"{name} takes {n} argument(s), got {len(values)}")
        for v, kind in zip(values, kinds):
            if (v.kind if isinstance(v, _Plan) else type(v)) is not kind:
                raise SelectorError(f"{name} argument has the wrong kind")

    if name == "abelian":
        arity(1, [int])
        return _Plan(LieAlgebra, _abelian_dim(values[0]), lambda: abelian(values[0]))
    if name == "nonabelian2":
        arity(0, [])
        return _Plan(LieAlgebra, 2, nonabelian2)
    if name == "heisenberg":
        arity(1, [int])
        return _Plan(LieAlgebra, _heisenberg_dim(values[0]), lambda: heisenberg(values[0]))
    if name == "pair_full":
        arity(1, [LieAlgebra])
        return _Plan(Pair, values[0].dim, lambda: pair_full(values[0].build()))
    if name == "pair_center":
        arity(1, [LieAlgebra])
        return _Plan(Pair, values[0].dim, lambda: pair_center(values[0].build()))
    if name == "pair_direct_sum":
        arity(2, [Pair, Pair])
        a, b = values
        return _Plan(Pair, a.dim + b.dim, lambda: direct_sum_pair(a.build(), b.build()))
    raise SelectorError(f"unknown builtin {name!r}")


def _selector_plan(text: str) -> _Plan:
    body = text.strip()
    if body.startswith("builtin:"):
        body = body[len("builtin:"):]
    tokens = _tokenize(body)
    if not tokens:
        raise SelectorError("empty selector")
    node, at = _parse_node(tokens, 0)
    if at != len(tokens):
        raise SelectorError(f"trailing input after selector: {tokens[at:]!r}")
    value = _eval_node(node)
    if isinstance(value, int):
        raise SelectorError("selector names a number, not an algebra or pair")
    return value


def resolve_selector(text: str) -> LieAlgebra | Pair:
    """Evaluate a builtin selector such as builtin:pair_full(heisenberg(1))."""
    return _selector_plan(text).build()


def catalog_selectors() -> tuple[str, ...]:
    """The standing list of pairs every decomposition is expected to cover."""
    return (
        "builtin:pair_full(abelian(1))",
        "builtin:pair_full(abelian(2))",
        "builtin:pair_full(abelian(3))",
        "builtin:pair_full(abelian(4))",
        "builtin:pair_full(nonabelian2)",
        "builtin:pair_full(heisenberg(1))",
        "builtin:pair_center(heisenberg(1))",
        "builtin:pair_direct_sum(pair_full(nonabelian2),pair_full(abelian(1)))",
        "builtin:pair_direct_sum(pair_center(heisenberg(1)),pair_full(abelian(1)))",
    )


def catalog_pairs() -> tuple[tuple[str, Pair], ...]:
    return tuple((s, resolve_selector(s)) for s in catalog_selectors())


# ---------------------------------------------------------------- documents


@dataclass(frozen=True)
class AlgebraDocument:
    name: str
    dim: int
    basis: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], Vector], ...]


@dataclass(frozen=True)
class PairDocument:
    algebra: AlgebraDocument | str  # inline, or a file reference
    ideal: tuple[Vector, ...] | None  # None means the whole algebra


_SPACE = re.compile(r"[ \t\n\r]*")


def _locate(text: str, path: tuple[str, ...], key: str) -> tuple[int | None, int | None]:
    """Line and column of the opening quote of key, in the object that path names from the root.

    Keys are decoded before they are compared, so a key written with escapes
    is found; text is a valid document whose path leads through objects."""
    skip = json.JSONDecoder().raw_decode
    at = _SPACE.match(text).end()
    for depth, want in enumerate(path + (key,)):
        at = _SPACE.match(text, at + 1).end()  # past the object's "{"
        while text[at] == '"':
            start = at
            name, at = scanstring(text, at + 1)
            at = _SPACE.match(text, _SPACE.match(text, at).end() + 1).end()  # past the ":"
            if name == want:
                break
            at = _SPACE.match(text, skip(text, at)[1]).end()
            if text[at] == ",":
                at = _SPACE.match(text, at + 1).end()
        else:
            return None, None
    line = text.count("\n", 0, start) + 1
    return line, start - text.rfind("\n", 0, start)


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as e:
        raise DocumentError(e.msg, e.lineno, e.colno) from None
    except ValueError as e:
        raise DocumentError(str(e)) from None
    except RecursionError:
        raise DocumentError("JSON nests too deeply to decode") from None


def _scalar(value, context: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DocumentError(f"{context}: scalar must be an integer or a rational string",
                            witness=repr(value))
    if isinstance(value, int):
        return Fraction(value)
    try:
        return parse_scalar(value)
    except Exception:
        raise DocumentError(f"{context}: cannot read rational", witness=repr(value)) from None


def _expect_keys(obj: dict, allowed: set, kind: str):
    for key in obj:
        if key not in allowed:
            raise DocumentError(f"unknown key in {kind} document", witness=key)
    for key in allowed:
        if key not in obj:
            raise DocumentError(f"missing key in {kind} document", witness=key)


def _check_basis_names(basis: Iterable[str]) -> None:
    """Refuse a basis name that a document cannot carry, as DocumentError with the name as witness."""
    for b in basis:  # a JSON escape can decode to a lone surrogate, which no UTF-8 output can hold
        if any("\ud800" <= c <= "\udfff" for c in b):
            raise DocumentError("basis name does not encode as UTF-8", witness=repr(b))
        if "," in b or b != b.strip():  # a bracket key splits at "," and strips its parts
            raise DocumentError("basis name cannot be named in a bracket key", witness=repr(b))


def _algebra_document(obj: dict, text: str, path: tuple[str, ...]) -> AlgebraDocument:
    """The algebra document held by obj, the object at path in text."""
    _expect_keys(obj, {"name", "dim", "basis", "brackets"}, "algebra")
    name = obj["name"]
    dim = obj["dim"]
    basis = obj["basis"]
    if not isinstance(name, str):
        raise DocumentError("name must be a string", witness=repr(name))
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise DocumentError("dim must be a non-negative integer", witness=repr(dim))
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise DocumentError("basis must be a list of names")
    if len(basis) != dim:
        raise DocumentError("basis length does not match dim", witness=f"{len(basis)} vs {dim}")
    if len(set(basis)) != dim:
        raise DocumentError("basis names must be unique")
    _check_basis_names(basis)
    index = {b: k for k, b in enumerate(basis)}
    raw = obj["brackets"]
    if not isinstance(raw, dict):
        raise DocumentError("brackets must be an object")
    at = path + ("brackets",)
    entries = {}
    for key, value in raw.items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2:
            raise DocumentError("bracket key must name two basis elements", *_locate(text, at, key), witness=key)
        for p in parts:
            if p not in index:
                raise DocumentError("bracket key uses an unknown basis name", *_locate(text, at, key), witness=p)
        i, j = index[parts[0]], index[parts[1]]
        if i >= j:
            raise DocumentError("bracket key is not an ordered basis pair", *_locate(text, at, key), witness=key)
        if (i, j) in entries:
            raise DocumentError("bracket pair is named twice", *_locate(text, at, key), witness=key)
        if not isinstance(value, dict):
            raise DocumentError(f"bracket value for {key} must be an object", witness=repr(value))
        vec = [Fraction(0)] * dim
        for b, c in value.items():
            if b not in index:
                raise DocumentError("bracket value uses an unknown basis name", witness=b)
            vec[index[b]] = _scalar(c, f"bracket {key}")
        entries[(i, j)] = tuple(vec)
    return AlgebraDocument(name, dim, tuple(basis), tuple(sorted((ij, v) for ij, v in entries.items() if any(v))))


def _pair_document(obj: dict, text: str) -> PairDocument:
    _expect_keys(obj, {"algebra", "ideal"}, "pair")
    raw_algebra = obj["algebra"]
    if isinstance(raw_algebra, str):
        algebra: AlgebraDocument | str = raw_algebra
    elif isinstance(raw_algebra, dict):
        algebra = _algebra_document(raw_algebra, text, ("algebra",))
    else:
        raise DocumentError("algebra must be an object or a file reference")
    raw_ideal = obj["ideal"]
    if raw_ideal == "all":
        return PairDocument(algebra, None)
    if not isinstance(raw_ideal, list):
        raise DocumentError('ideal must be "all" or a list of vectors')
    vectors = []
    for row in raw_ideal:
        if not isinstance(row, list):
            raise DocumentError("ideal vector must be a list", witness=repr(row))
        vectors.append(tuple(_scalar(c, "ideal vector") for c in row))
    widths = {len(v) for v in vectors}
    if len(widths) > 1:
        raise DocumentError("ideal vectors have mixed lengths")
    if isinstance(algebra, AlgebraDocument) and vectors and widths != {algebra.dim}:
        raise DocumentError(
            "ideal vector length does not match the algebra dimension",
            witness=f"{widths.pop()} vs {algebra.dim}",
        )
    return PairDocument(algebra, tuple(vectors))


def _document(obj, text: str) -> AlgebraDocument | PairDocument:
    if not isinstance(obj, dict):
        raise DocumentError("document must be an object")
    if "ideal" in obj:
        return _pair_document(obj, text)
    return _algebra_document(obj, text, ())


def parse(text: str) -> AlgebraDocument | PairDocument:
    """Read one document; the shape decides whether it is an algebra or a pair."""
    return _document(_loads(text), text)


def _json_text(obj) -> str:
    """The text json.dumps(obj, indent=2) gives, with a closing newline.

    Every JSON output of the package is rendered here.  obj is built from
    str, int, bool, None, lists, and dicts with str keys, in insertion order;
    strings are ASCII-escaped.  Any other type raises TypeError."""
    parts: list[str] = []
    _json_parts(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _json_parts(obj, newline: str, parts: list[str]) -> None:
    """Append the text of one value; newline is the line break and indent of the line it starts on."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, value in obj.items():
            # encode_basestring_ascii raises TypeError on a key that is not a str
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(value, inner, parts)
            sep = comma
        parts.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _json_parts(value, inner, parts)
            sep = comma
        parts.append(newline + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _algebra_payload(doc: AlgebraDocument) -> dict:
    _check_basis_names(doc.basis)
    return {
        "name": doc.name,
        "dim": doc.dim,
        "basis": list(doc.basis),
        "brackets": {
            f"{doc.basis[i]},{doc.basis[j]}": {
                doc.basis[k]: str(c) for k, c in enumerate(v) if c != 0
            }
            for (i, j), v in doc.brackets
        },
    }


def serialize(doc: AlgebraDocument | PairDocument) -> str:
    """Canonical text for a document; parse(serialize(doc)) == doc.

    A basis name that parse would refuse is refused here, with the same
    DocumentError, so no document is written that cannot be read back."""
    if isinstance(doc, AlgebraDocument):
        payload = _algebra_payload(doc)
    else:
        algebra = doc.algebra if isinstance(doc.algebra, str) else _algebra_payload(doc.algebra)
        ideal = "all" if doc.ideal is None else [[str(c) for c in v] for v in doc.ideal]
        payload = {"algebra": algebra, "ideal": ideal}
    return _json_text(payload)


def algebra_from_document(doc: AlgebraDocument) -> LieAlgebra:
    try:
        return LieAlgebra.make(doc.dim, doc.basis, dict(doc.brackets))
    except StructureError as e:
        raise DocumentError("structure violation", witness=e.args[0]) from None


def _build_pair(doc: AlgebraDocument, ideal: tuple[Vector, ...] | None) -> Pair:
    """The pair a document names: "all" by theorem, an explicit ideal through the checked make_pair."""
    algebra = algebra_from_document(doc)
    if ideal is None:
        return pair_full(algebra)
    for v in ideal:
        if len(v) != algebra.dim:
            raise DocumentError(
                "ideal vector length does not match the algebra dimension",
                witness=f"{len(v)} vs {algebra.dim}",
            )
    try:
        return make_pair(algebra, ideal)
    except NotAnIdealError as e:
        raise DocumentError("ideal is not an ideal", witness=e.witness) from None


def _read_json(path: str, what: str) -> tuple[object, str]:
    """A document file decoded, but not yet checked, together with its text."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {what}: {e}") from None
    except UnicodeDecodeError as e:
        byte = e.object[e.start]
        raise DocumentError(f"cannot read {what}: not UTF-8 text", witness=f"byte 0x{byte:02x}") from None
    return _loads(text), text


def _pair_plan(doc: PairDocument, base_dir: str | None, referenced: tuple[object, str] | None = None) -> _Plan:
    """Size a parsed pair document from its algebra, parsing a file reference.

    referenced is the reference already read by `_read_json`, if the caller
    has read it."""
    inner = doc.algebra
    if isinstance(inner, str):
        if referenced is None:
            referenced = _read_json(os.path.join(base_dir or ".", inner), "referenced algebra")
        inner = _document(*referenced)
        if not isinstance(inner, AlgebraDocument):
            raise DocumentError("referenced document is not an algebra", witness=doc.algebra)
    return _Plan(Pair, inner.dim, lambda: _build_pair(inner, doc.ideal))


def pair_from_document(doc: PairDocument, base_dir: str | None = None) -> Pair:
    return _pair_plan(doc, base_dir).build()


def _header_dim(obj) -> int | None:
    """The dim an algebra document declares, or None when it declares no usable one."""
    if not isinstance(obj, dict) or "ideal" in obj:
        return None
    dim = obj.get("dim")
    return dim if isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0 else None


def _document_plan(path: str) -> _Plan:
    """Size a document from its algebra's header, inline or referenced; the
    body is checked when the plan is built, so an oversized body is never read
    into vectors.  Without a usable header the whole document is checked now,
    which reports its fault."""
    obj, text = _read_json(path, "document")
    base_dir = os.path.dirname(os.path.abspath(path))
    referenced = None

    def parsed_plan() -> _Plan:
        doc = _document(obj, text)
        if isinstance(doc, AlgebraDocument):
            return _Plan(LieAlgebra, doc.dim, lambda: algebra_from_document(doc))
        return _pair_plan(doc, base_dir, referenced)

    is_pair = isinstance(obj, dict) and "ideal" in obj
    header = obj.get("algebra") if is_pair else obj
    if isinstance(header, str):
        referenced = _read_json(os.path.join(base_dir, header), "referenced algebra")
        header = referenced[0]
    dim = _header_dim(header)
    if dim is None:
        return parsed_plan()
    return _Plan(Pair if is_pair else LieAlgebra, dim, lambda: parsed_plan().build())


def load_path(path: str) -> LieAlgebra | Pair:
    """Read a document from disk and build the object it describes."""
    return _document_plan(path).build()


# ---------------------------------------------------------------- reports


def _summary(records) -> dict:
    return {
        "checks": len(records),
        "pass": sum(1 for r in records if r.status == "pass"),
        "fail": sum(1 for r in records if r.status == "fail"),
        "not-applicable": sum(1 for r in records if r.status == "not-applicable"),
        "asserted-failures": sum(1 for r in records if r.failed_assertion),
    }


def _record_payload(r) -> dict:
    return {
        "pair": r.pair_id,
        "check": r.check,
        "anchor": r.anchor,
        "status": r.status,
        "asserted": r.asserted,
        "dims": dict(sorted(r.dims.items())),
        "flags": dict(sorted(r.flags.items())),
        "witness": r.witness,
        "reason": r.reason,
    }


def serialize_report(report: VerificationReport, machine: bool = False) -> str:
    """Render a report: tab-separated lines, or one JSON document."""
    records = report.sorted_records()
    summary = _summary(records)
    if machine:
        return _json_text({"records": [_record_payload(r) for r in records], "summary": summary})
    lines = []
    for r in records:
        dims = ",".join(f"{k}={v}" for k, v in sorted(r.dims.items()))
        flags = ",".join(f"{k}={'yes' if v else 'no'}" for k, v in sorted(r.flags.items()))
        lines.append(
            "\t".join(
                [
                    r.pair_id,
                    r.check,
                    r.anchor,
                    r.status,
                    "asserted" if r.asserted else "reported",
                    dims or "-",
                    flags or "-",
                    r.witness or r.reason or "-",
                ]
            )
        )
    lines.append(
        "# checks={checks} pass={pass} fail={fail} not-applicable={not-applicable}"
        " asserted-failures={asserted-failures}".format(**summary)
    )
    return "\n".join(lines) + "\n"
