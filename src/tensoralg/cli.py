"""Command line front end.

Targets are either builtin selectors (builtin:pair_full(heisenberg(1))) or
paths to JSON documents.  Exit codes: 0 when everything asserted passed,
1 when a validation fails, an asserted check misses, or the construction
raises TensorConstructionError, NotAnIdealError or LinalgError (one line
`tensoralg: <message>`, no traceback), 2 for usage errors, for algebras and
pairs over the dimension cap (TENSORALG_MAX_DIM, default 8; read from the
selector, or from the "dim" in the header of the document or of the algebra
document it references, before anything is built or the body is checked; a
negative cap is a usage error too) and for an output path that cannot be
written.

Each target is read once: the plan that sizes it for the cap also builds it,
from the selector or the decoded documents it already holds.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .liealg import NotAnIdealError, StructureError
from .linalg import LinalgError, _fmt_vector
from .pairs import Pair
from .tensor import TensorConstructionError, construct_tensor, kappa_maps

if TYPE_CHECKING:
    from .catalog import _Plan
    from .verify import VerificationReport

_DEFAULT_CAP = 8


class _UsageError(RuntimeError):
    """A refusal that exits with code 2: a dimension over the cap, or unwritable output."""


@functools.cache
def _layer(name: str):
    """The package's module `name`, imported on the first call.

    The document layer and the verifier load through here, so importing this
    module loads neither, and `tensor` loads no verifier.  The module is held,
    not its functions, so each read finds a function as its module holds it."""
    return importlib.import_module(f"{__package__}.{name}")


def _check_cap(dim: int, what: str) -> None:
    raw = os.environ.get("TENSORALG_MAX_DIM", str(_DEFAULT_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise _layer("catalog").SelectorError(f"TENSORALG_MAX_DIM is not an integer: {raw!r}") from None
    if cap < 0:
        raise _layer("catalog").SelectorError(f"TENSORALG_MAX_DIM is negative: {raw!r}")
    if dim > cap:
        raise _UsageError(
            f"{what} dimension {dim} exceeds the cap {cap}; raise TENSORALG_MAX_DIM to allow it"
        )


def _checked_dim(target: str, need_pair: bool) -> _Plan:
    """Read what a target names without building it; refuse a pair or an algebra over the cap.

    The plan it returns builds the target from what was read here."""
    catalog = _layer("catalog")
    plan = catalog._selector_plan(target) if target.startswith("builtin:") else catalog._document_plan(target)
    if need_pair and plan.kind is not Pair:
        raise catalog.SelectorError(f"{target} names an algebra; this command needs a pair")
    _check_cap(plan.dim, "pair" if plan.kind is Pair else "algebra")
    return plan


def _load_pair(target: str) -> Pair:
    return _checked_dim(target, need_pair=True).build()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {out}: {e.strerror or e}") from None


def _fmt_combo(v, names) -> str:
    terms = []
    for c, name in zip(v, names):
        if c == 0:
            continue
        if c == 1:
            terms.append(name)
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{c}*{name}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out = f"{out} - {t[1:]}" if t.startswith("-") else f"{out} + {t}"
    return out


def _symbol_names(pair: Pair, tensor) -> list[str]:
    names = []
    for k in range(tensor.dim):
        at = tensor.section.column_entries(k)[0][0]  # the first nonzero row
        i, a = divmod(at, pair.right_dim)
        names.append(f"{pair.algebra.name_of(i)}(x){pair.ideal_algebra.name_of(a)}")
    return names


def _cmd_validate(args) -> int:
    catalog = _layer("catalog")
    obj = _checked_dim(args.target, need_pair=False).build()
    if isinstance(obj, Pair):
        if args.machine:
            payload = {"kind": "pair", "algebra-dim": obj.left_dim, "ideal-dim": obj.right_dim}
            _emit(catalog._json_text(payload), args.out)
        else:
            _emit(f"pair ok: algebra dim {obj.left_dim}, ideal dim {obj.right_dim}\n", args.out)
    else:
        if args.machine:
            payload = {"kind": "algebra", "dim": obj.dim, "brackets": len(obj._brackets)}
            _emit(catalog._json_text(payload), args.out)
        else:
            count = len(obj._brackets)
            _emit(f"algebra ok: dim {obj.dim}, {count} bracket entr{'y' if count == 1 else 'ies'}\n", args.out)
    return 0


def _cmd_tensor(args) -> int:
    pair = _load_pair(args.target)
    t = construct_tensor(pair)
    maps = kappa_maps(t)
    names = _symbol_names(pair, t)
    image = maps.kappa.image()
    if args.machine:
        payload = {
            "tensor": {"dim": t.dim, "basis": names},
            "diagonal": {"dim": maps.square.dim, "basis": [[str(c) for c in b] for b in maps.square.basis]},
            "exterior": {"dim": maps.eps.codomain_dim},
            "j2": {"dim": maps.j2.dim, "basis": [[str(c) for c in b] for b in maps.j2.basis]},
            "multiplier": {"dim": maps.multiplier.dim, "basis": [[str(c) for c in b] for b in maps.multiplier.basis]},
            "kappa-image": {"dim": image.dim, "basis": [[str(c) for c in b] for b in image.basis]},
            "brackets": {
                f"t{i},t{j}": {f"t{k}": str(c) for k, c in enumerate(v) if c != 0}
                for (i, j), v in t.algebra.brackets
            },
        }
        _emit(_layer("catalog")._json_text(payload), args.out)
        return 0
    lines = [f"tensor product: dim {t.dim}"]
    for k, name in enumerate(names):
        lines.append(f"  t{k} = [{name}]")
    lines.append(f"diagonal: dim {maps.square.dim}")
    lines.extend(f"  {_fmt_vector(b)}" for b in maps.square.basis)
    lines.append(f"exterior product: dim {maps.eps.codomain_dim}")
    lines.append(f"j2: dim {maps.j2.dim}")
    lines.extend(f"  {_fmt_vector(b)}" for b in maps.j2.basis)
    lines.append(f"multiplier: dim {maps.multiplier.dim}")
    lines.extend(f"  {_fmt_vector(b)}" for b in maps.multiplier.basis)
    lines.append(f"evaluation image in L: dim {image.dim}")
    lines.extend(f"  {_fmt_combo(b, pair.algebra.basis_names)}" for b in image.basis)
    lines.append("brackets:")
    if t.algebra.is_abelian():
        lines.append("  all brackets vanish")
    else:
        tensor_names = tuple(f"t{k}" for k in range(t.dim))
        for (i, j), v in t.algebra.brackets:
            lines.append(f"  [t{i}, t{j}] = {_fmt_combo(v, tensor_names)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _theorem_list(raw: str | None) -> Sequence[str] | None:
    """The checks --theorems names; an unknown name is a usage error."""
    if raw is None:
        return None
    names = [part.strip() for part in raw.split(",") if part.strip()]
    try:
        _layer("verify")._selected_checks(names)
    except ValueError as e:
        raise _layer("catalog").SelectorError(str(e)) from None
    return names


def _finish_report(report: VerificationReport, args) -> int:
    _emit(_layer("catalog").serialize_report(report, machine=args.machine), args.out)
    return 1 if report.asserted_failures() else 0


def _cmd_verify(args) -> int:
    checks = _theorem_list(args.theorems)
    pair = _load_pair(args.target)
    return _finish_report(_layer("verify").verify_pair(pair, pair_id=args.target, checks=checks), args)


def _cmd_kunneth(args) -> int:
    verify = _layer("verify")
    plans = [_checked_dim(target, need_pair=True) for target in (args.left, args.right)]
    _check_cap(sum(plan.dim for plan in plans), "direct sum")
    pair_a, pair_b = (plan.build() for plan in plans)
    records = verify.verify_kunneth(pair_a, pair_b, args.left, args.right)
    return _finish_report(verify.VerificationReport(tuple(records)), args)


def _cmd_catalog(args) -> int:
    catalog = _layer("catalog")
    rows = []
    for selector in catalog.catalog_selectors():
        pair = catalog.resolve_selector(selector)
        rows.append((selector, pair.left_dim, pair.right_dim))
    if args.machine:
        payload = [{"selector": s, "algebra-dim": l, "ideal-dim": r} for s, l, r in rows]
        _emit(catalog._json_text(payload), args.out)
    else:
        lines = [f"{s}\talgebra dim {l}\tideal dim {r}" for s, l, r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="tensoralg",
        description="Tensor products of Lie algebra pairs and their decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_output(p):
        p.add_argument("--machine", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    p = sub.add_parser("validate", help="check a document or selector and report shape")
    p.add_argument("target")
    with_output(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("tensor", help="construct the tensor product of a pair")
    p.add_argument("target")
    with_output(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("verify", help="run the decomposition checks on a pair")
    p.add_argument("target")
    p.add_argument("--theorems", metavar="LIST", help="comma separated subset of checks")
    with_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("kunneth", help="direct sum decomposition checks for two pairs")
    p.add_argument("left")
    p.add_argument("right")
    with_output(p)
    p.set_defaults(func=_cmd_kunneth)

    p = sub.add_parser("catalog", help="list the built-in pair catalog")
    with_output(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    catalog = _layer("catalog")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (_UsageError, catalog.SelectorError) as e:
        print(f"tensoralg: {e}", file=sys.stderr)
        return 2
    except catalog.DocumentError as e:
        print(f"tensoralg: {e}", file=sys.stderr)
        return 1
    except StructureError as e:
        print(f"tensoralg: structure violation: {e}", file=sys.stderr)
        return 1
    except (TensorConstructionError, NotAnIdealError, LinalgError) as e:
        print(f"tensoralg: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
