"""Spans recorded from outside the program.

`Tracer.install()` replaces each traced public function by a recording
wrapper on every name that refers to it: the defining module, each consumer
module that imported it, and the class for methods.  `uninstall()` puts the
originals back, so untraced passes run the program exactly as shipped.

A span is [name, start, end, parent index, item id, sizes].  Spans stay in
memory; `aggregate()` turns one pass's spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute path, sizes hook).  A sizes hook maps
# (args, result) to exact counts recorded on the span.
TARGETS = (
    ("tensor.construct_tensor", "tensoralg.tensor", "construct_tensor",
     lambda a, r: {"p": a[0].left_dim, "q": a[0].right_dim, "T": r.dim}),
    ("tensor.kappa_maps", "tensoralg.tensor", "kappa_maps", None),
    ("tensor.relation_seed", "tensoralg.tensor", "relation_seed", lambda a, r: {"rank_out": r.dim}),
    ("tensor.closure", "tensoralg.tensor", "closure", lambda a, r: {"rank_out": r.dim}),
    ("liealg.validate_structure", "tensoralg.liealg", "validate_structure", None),
    ("liealg.LieAlgebra.make", "tensoralg.liealg", "LieAlgebra.make", None),
    ("liealg.center", "tensoralg.liealg", "center", None),
    ("liealg.direct_sum", "tensoralg.liealg", "direct_sum", None),
    ("linalg.Subspace.from_vectors", "tensoralg.linalg", "Subspace.from_vectors",
     lambda a, r: {"rows_in": len(a[2]), "rank_out": r.dim}),
    ("linalg.Subspace.contains", "tensoralg.linalg", "Subspace.contains", None),
    ("linalg.LinearMap.apply", "tensoralg.linalg", "LinearMap.apply", None),
    ("linalg.kernel", "tensoralg.linalg", "kernel", None),
    ("pairs.make_pair", "tensoralg.pairs", "make_pair", None),
    ("pairs.quotient_pair", "tensoralg.pairs", "quotient_pair", None),
    ("pairs.direct_sum_pair", "tensoralg.pairs", "direct_sum_pair", None),
    ("gamma.psi_map", "tensoralg.gamma", "psi_map", None),
    ("gamma.psi_welldefined", "tensoralg.gamma", "psi_welldefined", None),
    ("verify.verify_diagram", "tensoralg.verify", "verify_diagram", None),
    ("verify.verify_ker_pi", "tensoralg.verify", "verify_ker_pi", None),
    ("verify.verify_diagonal_descent", "tensoralg.verify", "verify_diagonal_descent", None),
    ("verify.verify_splitting", "tensoralg.verify", "verify_splitting", None),
    ("verify.verify_j2_decomposition", "tensoralg.verify", "verify_j2_decomposition", None),
    ("verify.verify_abelian_basis", "tensoralg.verify", "verify_abelian_basis", None),
    ("verify.verify_kunneth", "tensoralg.verify", "verify_kunneth", None),
    ("verify.verify_pair", "tensoralg.verify", "verify_pair", None),
    ("catalog.load_path", "tensoralg.catalog", "load_path", None),
    ("catalog.resolve_selector", "tensoralg.catalog", "resolve_selector", None),
    ("catalog.serialize_report", "tensoralg.catalog", "serialize_report", None),
    ("cli.main", "tensoralg.cli", "main", None),
)

_CHECKS_TABLE = ("tensoralg.verify", "_PAIR_CHECKS")  # verify_pair dispatches through this table


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, sizes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if sizes is not None:
                span[5] = sizes(args, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "tensoralg" or n.startswith("tensoralg.")]
        replaced = {}
        for name, module_name, path, sizes in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, sizes)))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(name, raw, sizes))
            else:
                wrapper = self._wrap(name, raw, sizes)
                replaced[id(raw)] = wrapper
                for module in modules:
                    for global_name, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, global_name, wrapper)
        table_module = importlib.import_module(_CHECKS_TABLE[0])
        table = getattr(table_module, _CHECKS_TABLE[1])
        self._set(table_module, _CHECKS_TABLE[1],
                  tuple((check, replaced.get(id(fn), fn)) for check, fn in table))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def aggregate(spans: list[list], first: int = 0) -> tuple[dict, dict]:
    """Per-layer numbers of spans[first:]: (seconds, exact counts).

    No span from `first` on may have a parent before `first`.  `s` is
    inclusive time of the outermost span of a name, `self_s` is a span's
    time minus the time of its direct children."""
    n = len(spans)
    child_time = [0.0] * n
    under_closure = [False] * n
    for k in range(first, n):
        name, start, end, parent, _, _ = spans[k]
        if parent >= 0:
            child_time[parent] += end - start
            under_closure[k] = under_closure[parent] or spans[parent][0] == "tensor.closure"
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for k in range(first, n):
        name, start, end, parent, _, sizes = spans[k]
        add(counts, f"{name}.calls", 1)
        add(seconds, f"{name}.self_s", end - start - child_time[k])
        outermost = True
        up = parent
        while up >= 0:
            if spans[up][0] == name:
                outermost = False
                break
            up = spans[up][3]
        if outermost:
            add(seconds, f"{name}.s", end - start)
        if name == "linalg.Subspace.from_vectors":
            add(counts, "linalg.from_vectors.rows_in", sizes["rows_in"])
            add(counts, "linalg.from_vectors.rank_out", sizes["rank_out"])
            if under_closure[k]:
                add(counts, "tensor.closure.rref_calls", 1)
    return seconds, counts


def item_sizes(spans: list[list]) -> dict:
    """Per item, the (p, q, p*q, seed rank, relation rank, T) of each construction."""
    out: dict = {}
    child: dict[int, dict] = {}
    for name, _, _, parent, _, sizes in spans:
        if name in ("tensor.relation_seed", "tensor.closure") and parent >= 0:
            child.setdefault(parent, {})[name] = sizes["rank_out"]
    for k, (name, _, _, _, item, sizes) in enumerate(spans):
        if name == "tensor.construct_tensor" and sizes is not None:
            ranks = child.get(k, {})
            out.setdefault(item, []).append({
                "p": sizes["p"], "q": sizes["q"], "pq": sizes["p"] * sizes["q"],
                "seed_rank": ranks.get("tensor.relation_seed"),
                "relation_rank": ranks.get("tensor.closure"),
                "T": sizes["T"],
            })
    return out
