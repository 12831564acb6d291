"""Workload definitions: seeded inputs, the call into the program, and the output gate.

Every input is generated here from plain bracket tables, permuted by a seeded
basis permutation, and handed to the program either as a `LieAlgebra` built
through its public constructor (library path) or as a JSON pair document on
disk (document and CLI paths).  Derived dimensions do not depend on the basis,
so the pinned expectations hold for every seed; the cost does, which is why
each pass draws fresh permutations and the run reports medians over passes.

Importing this module imports `tensoralg`; the set-up timer relies on that.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import tensoralg
import tensoralg.cli

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------- algebras


@dataclass(frozen=True)
class Spec:
    """A Lie algebra by its i < j bracket table, plus the closed-form data
    (abelianization dimension, Schur multiplier dimension) used by the gate."""

    names: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]
    ab_dim: int
    multiplier: int

    @property
    def dim(self) -> int:
        return len(self.names)


def abelian(n: int) -> Spec:
    return Spec(tuple(f"a{k + 1}" for k in range(n)), (), n, n * (n - 1) // 2)


def heisenberg(m: int) -> Spec:
    # Multiplier: 2 for m = 1 and 2m^2 - m - 1 for m >= 2
    # (Batten, Moneyhun and Stitzinger, Comm. Algebra 1996).
    names = tuple(f"x{i + 1}" for i in range(m)) + tuple(f"y{i + 1}" for i in range(m)) + ("z",)
    brackets = tuple(((i, m + i), ((2 * m, 1),)) for i in range(m))
    return Spec(names, brackets, 2 * m, 2 if m == 1 else 2 * m * m - m - 1)


def sl2() -> Spec:
    # [e,f] = h, [h,e] = 2e, [h,f] = -2f; perfect, and H^2(sl2) = 0.
    return Spec(("e", "f", "h"), (((0, 1), ((2, 1),)), ((0, 2), ((0, -2),)), ((1, 2), ((1, 2),))), 0, 0)


def nonabelian2() -> Spec:
    # [x,y] = y; abelianization 1, multiplier 0.
    return Spec(("x", "y"), (((0, 1), ((1, 1),)),), 1, 0)


def direct_sum(a: Spec, b: Spec) -> Spec:
    """M(A + B) = M(A) + M(B) + dim(A^ab (x) B^ab)."""
    names = tuple(f"{n}.1" for n in a.names) + tuple(f"{n}.2" for n in b.names)
    shift = a.dim
    moved = tuple(((i + shift, j + shift), tuple((k + shift, c) for k, c in v)) for (i, j), v in b.brackets)
    return Spec(names, a.brackets + moved, a.ab_dim + b.ab_dim,
                a.multiplier + b.multiplier + a.ab_dim * b.ab_dim)


def full_pair_dims(spec: Spec) -> tuple[int, int, int, int, int]:
    """Closed form of (T, diagonal, exterior, j2, multiplier) for pair_full(L).

    With d = dim L^ab, c = dim [L,L] and M the multiplier: the diagonal is
    Gamma(L^ab) of dimension d(d+1)/2, the exterior square is an extension of
    [L,L] by M, kappa maps onto [L,L] so j2 = T - c.  For abelian(n) this is
    (n^2, n(n+1)/2, n(n-1)/2, n^2, n(n-1)/2), and sl2 gives (3, 0, 3, 0, 0).
    """
    d = spec.ab_dim
    c = spec.dim - d
    diag = d * (d + 1) // 2
    ext = spec.multiplier + c
    return diag + ext, diag, ext, diag + spec.multiplier, spec.multiplier


# ---------------------------------------------------------------- pairs


@dataclass(frozen=True)
class PairSpec:
    """A pair: the algebra, and the ideal as ambient vectors (None: the whole algebra)."""

    algebra: Spec
    ideal: tuple[tuple[int, ...], ...] | None = None


def center_of_heisenberg1() -> PairSpec:
    return PairSpec(heisenberg(1), ((0, 0, 1),))


def pair_sum(a: PairSpec, b: PairSpec) -> PairSpec:
    def rows(p: PairSpec):
        if p.ideal is None:
            return [tuple(1 if k == i else 0 for k in range(p.algebra.dim)) for i in range(p.algebra.dim)]
        return list(p.ideal)

    zeros_a, zeros_b = (0,) * a.algebra.dim, (0,) * b.algebra.dim
    ideal = [r + zeros_b for r in rows(a)] + [zeros_a + r for r in rows(b)]
    return PairSpec(direct_sum(a.algebra, b.algebra), tuple(ideal))


def permuted(p: PairSpec, perm: list[int]) -> PairSpec:
    """The same pair in the basis whose k-th vector is the old basis vector perm[k]."""
    a = p.algebra
    new = {old: k for k, old in enumerate(perm)}
    brackets = []
    for (i, j), v in a.brackets:
        ni, nj, sign = new[i], new[j], 1
        if ni > nj:
            ni, nj, sign = nj, ni, -1
        brackets.append(((ni, nj), tuple(sorted((new[k], sign * c) for k, c in v))))
    algebra = Spec(tuple(a.names[old] for old in perm), tuple(sorted(brackets)), a.ab_dim, a.multiplier)
    ideal = None
    if p.ideal is not None:
        ideal = tuple(tuple(row[old] for old in perm) for row in p.ideal)
    return PairSpec(algebra, ideal)


def to_algebra(spec: Spec):
    table = {}
    for (i, j), v in spec.brackets:
        vec = [0] * spec.dim
        for k, c in v:
            vec[k] = c
        table[(i, j)] = vec
    return tensoralg.LieAlgebra.make(spec.dim, spec.names, table)


def to_document(p: PairSpec) -> str:
    a = p.algebra
    algebra = {
        "name": "bench",
        "dim": a.dim,
        "basis": list(a.names),
        "brackets": {f"{a.names[i]},{a.names[j]}": {a.names[k]: str(c) for k, c in v} for (i, j), v in a.brackets},
    }
    ideal = "all" if p.ideal is None else [[str(c) for c in row] for row in p.ideal]
    return json.dumps({"algebra": algebra, "ideal": ideal}, indent=2) + "\n"


# ---------------------------------------------------------------- workloads


@dataclass
class Item:
    """One pair through its path: `call` is timed, `check` is not.

    `check(result)` returns (matches the pins, canonical output text).  The
    canonical text is what the traced and untraced runs must agree on byte
    for byte."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    out: str | None = None  # the file a CLI item writes


def _library_check(name: str, expected: dict):
    def check(result) -> tuple[bool, str]:
        t, maps = result
        dims = (t.dim, maps.square.dim, maps.exterior.dim, maps.j2.dim, maps.multiplier.dim)
        text = repr((t.algebra.brackets, maps.square.basis, maps.exterior.brackets,
                     maps.j2.basis, maps.multiplier.basis))
        return dims == expected[name], text
    return check


def _tensor_path(pair):
    t = tensoralg.construct_tensor(pair)
    return t, tensoralg.kappa_maps(t)


def cli_records(text: str) -> list:
    payload = json.loads(text)
    return sorted([r["check"], r["status"], r["asserted"], r["dims"]] for r in payload["records"])


def _cli_check(name: str, out: str, pins: dict):
    def check(code) -> tuple[bool, str]:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out)  # a later call that writes nothing must not pass on this file
        pin = pins[name]
        return code == pin["exit"] and cli_records(text) == pin["records"], text
    return check


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


TENSOR_WIDE = {
    "pair_full(abelian(3))": PairSpec(abelian(3)),
    "pair_full(abelian(4))": PairSpec(abelian(4)),
    "pair_full(heisenberg(2))": PairSpec(heisenberg(2)),
    "pair_full(heisenberg(1)+abelian(1))": PairSpec(direct_sum(heisenberg(1), abelian(1))),
}

CLOSURE_DEEP = {
    "pair_full(sl2)": PairSpec(sl2()),
    "pair_full(sl2+abelian(1))": PairSpec(direct_sum(sl2(), abelian(1))),
    "pair_full(sl2+nonabelian2)": PairSpec(direct_sum(sl2(), nonabelian2())),
    "pair_full(sl2+heisenberg(1))": PairSpec(direct_sum(sl2(), heisenberg(1))),
    "pair_full(sl2+sl2)": PairSpec(direct_sum(sl2(), sl2())),
}

# The catalog pairs except pair_full(abelian(4)), which is most of the
# catalog's verify time and whose construction tensor-wide already measures.
VERIFY_CATALOG = {
    "pair_full(abelian(1))": PairSpec(abelian(1)),
    "pair_full(abelian(2))": PairSpec(abelian(2)),
    "pair_full(abelian(3))": PairSpec(abelian(3)),
    "pair_full(nonabelian2)": PairSpec(nonabelian2()),
    "pair_full(heisenberg(1))": PairSpec(heisenberg(1)),
    "pair_center(heisenberg(1))": center_of_heisenberg1(),
    "pair_direct_sum(pair_full(nonabelian2),pair_full(abelian(1)))": pair_sum(PairSpec(nonabelian2()), PairSpec(abelian(1))),
    "pair_direct_sum(pair_center(heisenberg(1)),pair_full(abelian(1)))": pair_sum(center_of_heisenberg1(), PairSpec(abelian(1))),
}

# Ordered pairs of summands; the centre with itself is left out because its
# direct sum builds pair_full(h1+h1), whose validation would dominate the run.
_KUNNETH_SUMMANDS = {
    "pair_full(nonabelian2)": PairSpec(nonabelian2()),
    "pair_full(abelian(1))": PairSpec(abelian(1)),
    "pair_center(heisenberg(1))": center_of_heisenberg1(),
}
KUNNETH_SUMS = {
    f"{left}|{right}": (_KUNNETH_SUMMANDS[left], _KUNNETH_SUMMANDS[right])
    for left in _KUNNETH_SUMMANDS
    for right in _KUNNETH_SUMMANDS
    if not (left == right == "pair_center(heisenberg(1))")
}

EXPECTED = {name: full_pair_dims(p.algebra) for name, p in {**TENSOR_WIDE, **CLOSURE_DEEP}.items()}
PINS_PATH = os.path.join(HERE, "expected_cli.json")


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _perm(rng: random.Random, n: int, identity: bool) -> list[int]:
    perm = list(range(n))
    if not identity:
        rng.shuffle(perm)
    return perm


def build_pass(workload: str, seed: int, index: int, workdir: str, pins: dict,
               identity: bool = False) -> list[Item]:
    """The items of pass `index`, in the order to run them.

    The seed and pass index fix the basis permutation of every pair and the
    item order.  `identity` keeps the catalog basis and order instead."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    items: list[Item] = []
    if workload == "tensor-wide":
        for name, p in TENSOR_WIDE.items():
            pair = tensoralg.pair_full(to_algebra(permuted(p, _perm(rng, p.algebra.dim, identity)).algebra))
            items.append(Item(name, lambda pair=pair: _tensor_path(pair), _library_check(name, EXPECTED)))
    elif workload == "closure-deep":
        for k, (name, p) in enumerate(CLOSURE_DEEP.items()):
            path = _write(os.path.join(workdir, f"closure-{k}.json"),
                          to_document(permuted(p, _perm(rng, p.algebra.dim, identity))))
            items.append(Item(name, lambda path=path: _tensor_path(tensoralg.load_path(path)),
                              _library_check(name, EXPECTED)))
    elif workload == "verify-catalog":
        for k, (name, p) in enumerate(VERIFY_CATALOG.items()):
            path = _write(os.path.join(workdir, f"verify-{k}.json"),
                          to_document(permuted(p, _perm(rng, p.algebra.dim, identity))))
            out = os.path.join(workdir, f"verify-{k}.out.json")
            argv = ["verify", "--machine", "--out", out, path]
            items.append(Item(name, lambda argv=argv: tensoralg.cli.main(argv), _cli_check(name, out, pins), out))
    elif workload == "kunneth-sums":
        for k, (name, (left, right)) in enumerate(KUNNETH_SUMS.items()):
            paths = [
                _write(os.path.join(workdir, f"kunneth-{k}-{side}.json"),
                       to_document(permuted(p, _perm(rng, p.algebra.dim, identity))))
                for side, p in (("left", left), ("right", right))
            ]
            out = os.path.join(workdir, f"kunneth-{k}.out.json")
            argv = ["kunneth", "--machine", "--out", out, *paths]
            items.append(Item(name, lambda argv=argv: tensoralg.cli.main(argv), _cli_check(name, out, pins), out))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if not identity:
        rng.shuffle(items)
    return items
