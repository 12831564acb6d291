"""Structural checks on tensor products, reported as pass/fail records.

Checks share one derivation per pair, not verdicts: no record depends on a
conclusion drawn by another record.
A record is asserted when the underlying statement is expected to hold for
the pair unconditionally; records produced under known hypothesis gaps are
reported with the relevant flags instead of being asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .gamma import gamma_dim, psi_map, psi_welldefined
from .liealg import AlgebraSubspace, abelianization, center, direct_sum
from .linalg import (
    LinearMap,
    Subspace,
    combine,
    is_zero,
    kernel,
    quotient_with_section,
    span_intersect,
    span_sum,
    vadd,
    vscale,
)
from .pairs import (
    Pair,
    QuotientPair,
    complement_condition,
    direct_sum_pair,
    pair_full,
    pair_is_clean,
    quotient_pair,
    relative_abelianization_dim,
    relative_commutator,
    relative_commutator_in_ideal,
)
from .tensor import (
    NonabelianTensor,
    TensorConstructionError,
    construct_tensor,
    diagonal,
    kappa_maps,
)

_STATUSES = ("pass", "fail", "not-applicable")


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one structural check on one pair."""

    pair_id: str
    check: str
    anchor: str
    status: str
    asserted: bool
    dims: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    witness: str | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "not-applicable" and not self.reason:
            raise ValueError("a not-applicable record needs a reason")

    @property
    def failed_assertion(self) -> bool:
        return self.asserted and self.status == "fail"


@dataclass(frozen=True)
class VerificationReport:
    """A bundle of check records, usually for one pair or one decomposition."""

    records: tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.asserted_failures()

    def asserted_failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.failed_assertion)

    def sorted_records(self) -> tuple[CheckRecord, ...]:
        return tuple(sorted(self.records, key=lambda r: (r.pair_id, r.check)))

    @classmethod
    def merge(cls, reports: Sequence["VerificationReport"]) -> "VerificationReport":
        out = []
        for r in reports:
            out.extend(r.records)
        return cls(tuple(out))


def _record(pair_id, check, anchor, ok, asserted, dims, flags=None, witness=None):
    return CheckRecord(
        pair_id=pair_id,
        check=check,
        anchor=anchor,
        status="pass" if ok else "fail",
        asserted=asserted,
        dims=dict(dims),
        flags=dict(flags or {}),
        witness=None if ok else witness,
    )


def _fmt_vector(v: Sequence) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


class _Derivation:
    """One pair's derived objects, each built on first use; lives for one call."""

    def __init__(self, pair: Pair):
        self.pair = pair

    @cached_property
    def tensor(self) -> NonabelianTensor:
        return construct_tensor(self.pair)

    @cached_property
    def maps(self):
        return kappa_maps(self.tensor)

    @cached_property
    def mixed(self) -> Subspace:
        """(L (x) [N,L]) + ([N,L] (x) N) inside the tensor product."""
        pair, tensor = self.pair, self.tensor
        comm = relative_commutator_in_ideal(pair)
        gens = []
        for i in range(pair.left_dim):
            e = pair.algebra.basis_vector(i)
            for m in comm.basis:
                gens.append(tensor.tensor_of(e, m))
        for m in comm.basis:
            amb = pair.ideal_vector_to_ambient(m)
            for a in range(pair.right_dim):
                gens.append(tensor.tensor_of(amb, pair.ideal_algebra.basis_vector(a)))
        return Subspace.from_vectors(tensor.dim, gens)

    @cached_property
    def induced(self) -> tuple[QuotientPair, NonabelianTensor, LinearMap]:
        """The map of tensor products induced by quotienting the pair by [N, L].

        Built symbol by symbol; the relations of the source must die in the
        target for the map to make sense, and that is checked on a basis.
        """
        pair, tensor = self.pair, self.tensor
        qp = quotient_pair(pair)
        tq = construct_tensor(qp.pair)
        sym_images = []
        for i in range(pair.left_dim):
            li = qp.proj_algebra.apply(pair.algebra.basis_vector(i))
            for a in range(pair.right_dim):
                na = qp.proj_ideal.apply(pair.ideal_algebra.basis_vector(a))
                sym_images.append(tq.tensor_of(li, na))
        for r in tensor.relations.basis:
            if not is_zero(combine(r, sym_images, tq.dim)):
                raise TensorConstructionError("projection does not kill the relations")
        columns = [combine(tensor.section.column(k), sym_images, tq.dim) for k in range(tensor.dim)]
        return qp, tq, LinearMap.from_columns(tq.dim, columns)


def _derive(pair: Pair | _Derivation) -> _Derivation:
    return pair if isinstance(pair, _Derivation) else _Derivation(pair)


def _containment_witness(container: Subspace, sub: Subspace) -> str | None:
    for v in sub.basis:
        if not container.contains(v):
            return _fmt_vector(v)
    return None


def verify_diagram(pair: Pair, pair_id: str = "pair") -> list[CheckRecord]:
    """Centrality and image checks tying together all derived objects."""
    d = _derive(pair)
    t, maps = d.tensor, d.maps
    box = maps.square
    t_center = center(t.algebra).space
    e_center = center(maps.exterior).space
    comm = relative_commutator(d.pair).space
    dims = {
        "tensor": t.dim,
        "diagonal": box.dim,
        "exterior": maps.exterior.dim,
        "j2": maps.j2.dim,
        "multiplier": maps.multiplier.dim,
        "commutator": comm.dim,
    }
    eps_kernel = kernel(maps.eps)
    records = [
        _record(
            pair_id, "exterior-kernel-is-diagonal", "tensor-to-exterior-kernel",
            eps_kernel == box, True, dims,
            witness=f"kernel dim {eps_kernel.dim} vs diagonal dim {box.dim}",
        ),
        _record(
            pair_id, "diagonal-is-central", "diagonal-centrality",
            t_center.contains_subspace(box), True, dims,
            witness=_containment_witness(t_center, box),
        ),
        _record(
            pair_id, "evaluation-kernel-is-central", "evaluation-kernel-centrality",
            t_center.contains_subspace(maps.j2), True, dims,
            witness=_containment_witness(t_center, maps.j2),
        ),
        _record(
            pair_id, "evaluation-image-is-commutator", "evaluation-image",
            maps.kappa.image() == comm, True, dims,
            witness=f"image dim {maps.kappa.image().dim} vs commutator dim {comm.dim}",
        ),
        _record(
            pair_id, "exterior-evaluation-image-is-commutator", "exterior-evaluation-image",
            maps.kappa_prime.image() == comm, True, dims,
            witness=f"image dim {maps.kappa_prime.image().dim} vs commutator dim {comm.dim}",
        ),
        _record(
            pair_id, "multiplier-is-central-in-exterior", "multiplier-centrality",
            e_center.contains_subspace(maps.multiplier), True, dims,
            witness=_containment_witness(e_center, maps.multiplier),
        ),
        _record(
            pair_id, "kernel-dimensions-split", "kernel-dimension-identity",
            maps.j2.dim == box.dim + maps.multiplier.dim, True, dims,
            witness=f"j2 {maps.j2.dim} vs diagonal {box.dim} + multiplier {maps.multiplier.dim}",
        ),
    ]
    return records


def verify_ker_pi(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """Kernel of the induced projection equals the mixed commutator span."""
    d = _derive(pair)
    _, tq, pi = d.induced
    ker = kernel(pi)
    mix = d.mixed
    return _record(
        pair_id,
        "projection-kernel-is-mixed-commutator-span",
        "kernel-of-induced-projection",
        ker == mix,
        True,
        {"tensor": d.tensor.dim, "quotient-tensor": tq.dim, "kernel": ker.dim, "mixed-span": mix.dim},
        witness=f"kernel dim {ker.dim} vs mixed span dim {mix.dim}",
    )


def verify_diagonal_descent(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """The induced projection restricts to an isomorphism of diagonals."""
    d = _derive(pair)
    pair, t = d.pair, d.tensor
    _, tq, pi = d.induced
    box = diagonal(t)
    boxq = diagonal(tq)
    image = Subspace.from_vectors(tq.dim, [pi.apply(b) for b in box.basis])
    d = relative_abelianization_dim(pair)
    psi_rank = psi_map(pair, t).image().dim
    ok = image == boxq and image.dim == box.dim
    return _record(
        pair_id,
        "diagonal-descends-isomorphically",
        "diagonal-descent",
        ok,
        True,
        {
            "diagonal": box.dim,
            "quotient-diagonal": boxq.dim,
            "gamma": gamma_dim(d),
            "psi-rank": psi_rank,
            "relative-abelianization": d,
        },
        flags={
            "clean-intersection": pair_is_clean(pair),
            "psi-injective": psi_rank == gamma_dim(d),
            "psi-welldefined": psi_welldefined(pair, t) is None,
            "diagonal-law": box.dim == gamma_dim(d),
        },
        witness=f"image dim {image.dim} vs quotient diagonal dim {boxq.dim}",
    )


def verify_splitting(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """The tensor product splits as diagonal plus an ideal complement.

    The complement is grown greedily: first the mixed commutator span, then
    classes of complement-representative (x) ideal symbols, then
    antisymmetrized ideal-ideal symbols, keeping whatever stays independent
    of the diagonal and of what was kept before.
    """
    d = _derive(pair)
    pair, t, maps = d.pair, d.tensor, d.maps
    box = maps.square
    candidates = list(d.mixed.basis)
    _, outside = quotient_with_section(pair.left_dim, pair.ideal.space)
    ideal_units = [pair.ideal_algebra.basis_vector(a) for a in range(pair.right_dim)]
    ideal_ambient = [pair.ideal_basis_vector(a) for a in range(pair.right_dim)]
    for y in outside:
        for unit in ideal_units:
            candidates.append(t.tensor_of(y, unit))
    for i in range(pair.right_dim):
        for j in range(i + 1, pair.right_dim):
            candidates.append(
                vadd(
                    t.tensor_of(ideal_ambient[i], ideal_units[j]),
                    vscale(-1, t.tensor_of(ideal_ambient[j], ideal_units[i])),
                )
            )
    grown = box
    kept = []
    for v in candidates:
        if not is_zero(v) and not grown.contains(v):
            kept.append(v)
            grown = span_sum(grown, Subspace.from_vectors(t.dim, [v]))
    complement = Subspace.from_vectors(t.dim, kept)
    meet = span_intersect(box, complement)
    spans = span_sum(box, complement) == Subspace.full(t.dim)
    escape = AlgebraSubspace(t.algebra, complement).is_ideal()
    ok = meet.dim == 0 and spans and escape is None and complement.dim == maps.exterior.dim
    if escape is not None:
        k, c = escape
        witness = _fmt_vector(t.algebra.bracket_vectors(t.algebra.basis_vector(k), c))
    else:
        witness = (
            f"diagonal {box.dim} + complement {complement.dim} spans {span_sum(box, complement).dim}"
            f" of {t.dim}, intersection {meet.dim}"
        )
    return _record(
        pair_id,
        "tensor-splits-as-diagonal-plus-complement",
        "diagonal-complement-splitting",
        ok,
        True,
        {
            "tensor": t.dim,
            "diagonal": box.dim,
            "complement": complement.dim,
            "exterior": maps.exterior.dim,
        },
        flags={"complement-hypothesis": complement_condition(pair)},
        witness=witness,
    )


def verify_j2_decomposition(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """The evaluation kernel is the diagonal plus a copy of the multiplier."""
    maps = _derive(pair).maps
    box = maps.square
    eps_j2 = Subspace.from_vectors(
        maps.exterior.dim, [maps.eps.apply(b) for b in maps.j2.basis]
    )
    ok = (
        maps.j2.dim == box.dim + maps.multiplier.dim
        and maps.j2.contains_subspace(box)
        and eps_j2 == maps.multiplier
    )
    return _record(
        pair_id,
        "evaluation-kernel-splits-as-diagonal-plus-multiplier",
        "kernel-decomposition",
        ok,
        True,
        {"j2": maps.j2.dim, "diagonal": box.dim, "multiplier": maps.multiplier.dim},
        witness=(
            f"j2 {maps.j2.dim}, diagonal {box.dim}, multiplier {maps.multiplier.dim},"
            f" eps(j2) dim {eps_j2.dim}"
        ),
    )


def verify_abelian_basis(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """Reporter: do diagonal plus outside-corner symbols exhaust the tensor?

    For an abelian algebra the count is taken on the pair itself, otherwise
    on its quotient by [N, L].  The count is known to overshoot in general,
    so this record is never asserted; the deficit is reported.
    """
    d = _derive(pair)
    pair = d.pair
    if pair.algebra.is_abelian():
        target, tt = pair, d.tensor
    else:
        qp, tt, _ = d.induced
        target = qp.pair
    box = diagonal(tt)
    n = target.left_dim
    m = target.right_dim
    claimed = box.dim + (n - m) * m
    return _record(
        pair_id,
        "diagonal-and-cross-symbols-exhaust-tensor",
        "abelian-pair-basis",
        claimed == tt.dim,
        False,
        {
            "tensor": tt.dim,
            "diagonal": box.dim,
            "claimed": claimed,
            "deficit": tt.dim - claimed,
            "algebra": n,
            "ideal": m,
        },
        flags={"algebra-abelian": pair.algebra.is_abelian()},
        witness=f"claimed {claimed} vs tensor {tt.dim}",
    )


def _pair_dims(pair: Pair) -> tuple[int, int, int]:
    """(diagonal, j2, multiplier) dimensions of a pair's tensor product."""
    maps = kappa_maps(construct_tensor(pair))
    return maps.square.dim, maps.j2.dim, maps.multiplier.dim


def verify_kunneth(
    pair_a: Pair,
    pair_b: Pair,
    pair_id_a: str = "left",
    pair_id_b: str = "right",
) -> list[CheckRecord]:
    """Direct-sum decompositions: squares of the summand algebras and the
    direct sum of the actual pairs.

    The additivity records for tensor squares hold unconditionally.  The
    direct-sum identities for arbitrary pairs are asserted only when both
    summands are clean (the ideal meets the derived algebra in exactly the
    commutator) and the cross abelianization excess vanishes; outside that
    range they are reported with hypothesis flags.
    """
    pair_id = f"{pair_id_a}+{pair_id_b}"
    alg_a, alg_b = pair_a.algebra, pair_b.algebra
    h = abelianization(alg_a)[0].dim
    k = abelianization(alg_b)[0].dim
    hk = abelianization(direct_sum(alg_a, alg_b))[0].dim
    records = [
        _record(
            pair_id,
            "abelianization-square-additivity",
            "gamma-additivity",
            gamma_dim(hk) == gamma_dim(h) + gamma_dim(k) + h * k,
            True,
            {"left-abelianization": h, "right-abelianization": k, "sum-abelianization": hk},
            witness=f"gamma({hk}) vs gamma({h}) + gamma({k}) + {h * k}",
        ),
    ]
    _, j2_a, mult_a = _pair_dims(pair_full(alg_a))
    _, j2_b, mult_b = _pair_dims(pair_full(alg_b))
    _, j2_s, mult_s = _pair_dims(pair_full(direct_sum(alg_a, alg_b)))
    records.append(
        _record(
            pair_id,
            "multiplier-of-direct-sum",
            "multiplier-additivity",
            mult_s == mult_a + mult_b + h * k,
            True,
            {"left": mult_a, "right": mult_b, "sum": mult_s, "cross": h * k},
            witness=f"{mult_s} vs {mult_a} + {mult_b} + {h * k}",
        )
    )
    records.append(
        _record(
            pair_id,
            "evaluation-kernel-of-direct-sum",
            "kernel-additivity",
            j2_s == j2_a + j2_b + 2 * h * k,
            True,
            {"left": j2_a, "right": j2_b, "sum": j2_s, "cross": 2 * h * k},
            witness=f"{j2_s} vs {j2_a} + {j2_b} + {2 * h * k}",
        )
    )
    records.append(
        _record(
            pair_id,
            "free-presentation-square-additivity",
            "presentation-square-additivity",
            gamma_dim(h + k) == gamma_dim(h) + gamma_dim(k) + h * k,
            True,
            {"left-abelianization": h, "right-abelianization": k},
            witness=f"gamma({h + k}) vs gamma({h}) + gamma({k}) + {h * k}",
        )
    )
    # identities for the direct sum of the pairs themselves
    d_a = relative_abelianization_dim(pair_a)
    d_b = relative_abelianization_dim(pair_b)
    clean_a = pair_is_clean(pair_a)
    clean_b = pair_is_clean(pair_b)
    # h - d_a is how far the pair's abelianization falls short of the algebra's
    cross_clean = (h - d_a) * d_b + (k - d_b) * d_a == 0
    flags = {
        "left-clean": clean_a,
        "right-clean": clean_b,
        "left-complement": complement_condition(pair_a),
        "right-complement": complement_condition(pair_b),
        "cross-excess-zero": cross_clean,
    }
    box_a, j2p_a, mul_a = _pair_dims(pair_a)
    box_b, j2p_b, mul_b = _pair_dims(pair_b)
    box_s, j2p_s, mul_s = _pair_dims(direct_sum_pair(pair_a, pair_b))
    records.append(
        _record(
            pair_id,
            "direct-sum-evaluation-kernel",
            "direct-sum-kernel-identity",
            j2p_s == j2p_a + j2p_b + 2 * d_a * d_b,
            clean_a and clean_b and cross_clean,
            {"left": j2p_a, "right": j2p_b, "sum": j2p_s, "cross": 2 * d_a * d_b},
            flags=flags,
            witness=f"{j2p_s} vs {j2p_a} + {j2p_b} + {2 * d_a * d_b}",
        )
    )
    records.append(
        _record(
            pair_id,
            "direct-sum-diagonal",
            "direct-sum-diagonal-identity",
            box_s == box_a + box_b + d_a * d_b,
            clean_a and clean_b,
            {"left": box_a, "right": box_b, "sum": box_s, "cross": d_a * d_b},
            flags=flags,
            witness=f"{box_s} vs {box_a} + {box_b} + {d_a * d_b}",
        )
    )
    records.append(
        _record(
            pair_id,
            "direct-sum-multiplier",
            "direct-sum-multiplier-identity",
            mul_s == mul_a + mul_b + d_a * d_b,
            clean_a and clean_b and cross_clean,
            {"left": mul_a, "right": mul_b, "sum": mul_s, "cross": d_a * d_b},
            flags=flags,
            witness=f"{mul_s} vs {mul_a} + {mul_b} + {d_a * d_b}",
        )
    )
    lhs = (j2p_a + j2p_b + 2 * d_a * d_b) - (mul_a + mul_b + d_a * d_b)
    rhs = (j2p_a - mul_a) + (j2p_b - mul_b) + d_a * d_b
    records.append(
        _record(
            pair_id,
            "kernel-multiplier-difference",
            "kernel-quotient-consistency",
            lhs == rhs,
            True,
            {"difference": d_a * d_b},
            witness=f"{lhs} vs {rhs}",
        )
    )
    return records


_PAIR_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("diagram", verify_diagram),
    ("kernel", verify_ker_pi),
    ("descent", verify_diagonal_descent),
    ("splitting", verify_splitting),
    ("decomposition", verify_j2_decomposition),
    ("abelian", verify_abelian_basis),
)


def check_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _PAIR_CHECKS)


def verify_pair(pair: Pair, pair_id: str = "pair", checks: Sequence[str] | None = None) -> VerificationReport:
    """Run the per-pair checks, or the named subset, on one shared derivation
    of the pair, and bundle the records."""
    table = dict(_PAIR_CHECKS)
    selected = check_names() if checks is None else tuple(checks)
    derivation = _Derivation(pair)
    records = []
    for name in selected:
        if name not in table:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(check_names())}")
        result = table[name](derivation, pair_id)
        if isinstance(result, CheckRecord):
            records.append(result)
        else:
            records.extend(result)
    return VerificationReport(tuple(records))
