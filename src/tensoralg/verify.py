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

from .gamma import GammaSpace, gamma_dim, psi_map, psi_welldefined
from .liealg import LieAlgebra
from .linalg import LinearMap, Subspace, Vector, _fmt_vector, _meet_dim, kernel
from .pairs import (
    Pair,
    QuotientPair,
    complement_condition,
    direct_sum_pair,
    pair_full,
    pair_is_clean,
    quotient_pair,
    relative_abelianization_dim,
)
from .tensor import NonabelianTensor, _induced_map, construct_tensor, diagonal, kappa_maps

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
        """(L (x) [N,L]) + ([N,L] (x) N) inside the tensor product.

        Spanned by its first summand: m (x) x = -x (x) m for x in N and m in
        [N, L] (the lemma in the gamma module docstring), and x, lifted into
        L, lies in L.
        """
        pair, tensor = self.pair, self.tensor
        comm = pair.relative_commutator_in_ideal.entries
        gens = [tensor.class_entries([(((i, 1),), m)]) for i in range(pair.left_dim) for m in comm]
        return Subspace.from_vectors(tensor.dim, gens)

    @cached_property
    def derived(self) -> Subspace:
        """[T, T], read with no bracket table.

        [x, y] = -proj(lam(x) (x) rho(y)) on representatives (the tensor
        module docstring), so [T, T] is spanned by the classes of u (x) w for
        u over a basis of im lam and w over a basis of im rho: [N, L] in L and
        in N, as the pair holds them.
        """
        t, pair = self.tensor, self.pair
        left, right = pair.relative_commutator.space.entries, pair.relative_commutator_in_ideal.entries
        return Subspace.from_vectors(t.dim, [t.class_entries([(u, w)]) for u in left for w in right])

    def noncentral(self, space: Subspace, lift: LinearMap, read: LinearMap) -> Vector | None:
        """The first basis vector x of space for which read does not kill the
        class of lift(x) (x) w for some w in a basis of im rho, [N, L] in N, or None.

        lift takes space into L; verify_diagram says why this tests centrality.
        """
        t, right = self.tensor, self.pair.relative_commutator_in_ideal.entries
        for k, u in enumerate(lift._image(v).items() for v in space.entries):
            if any(read._image(t.class_entries([(u, w)]).items()) for w in right):
                return space.basis[k]
        return None

    @cached_property
    def induced(self) -> tuple[QuotientPair, NonabelianTensor, LinearMap]:
        """The map of tensor products induced by quotienting the pair by [N, L] (tensor._induced_map)."""
        qp = quotient_pair(self.pair)
        tq = construct_tensor(qp.pair)
        return qp, tq, _induced_map(self.tensor, tq, qp.proj_algebra.map, qp.proj_ideal.map)

    @cached_property
    def quotient_diagonal(self) -> Subspace:
        """The diagonal of the quotient pair's tensor product."""
        return diagonal(self.induced[1])


def _derive(pair: Pair | _Derivation) -> _Derivation:
    return pair if isinstance(pair, _Derivation) else _Derivation(pair)


def _shared_derivation(held: list[_Derivation], pair: Pair) -> _Derivation:
    """The held derivation of a pair equal to this one, else a new one, added to held.

    Equal pairs have equal derived objects.  The list is scanned, not keyed by
    the pair: it stays short, and hashing a pair hashes all of its tables.
    """
    for d in held:
        if d.pair == pair:
            return d
    held.append(_Derivation(pair))
    return held[-1]


def _central_record(pair_id, check, anchor, dims, witness: Vector | None) -> CheckRecord:
    """Asserted: a subspace is central; the witness is its first basis vector that is not."""
    return _record(pair_id, check, anchor, witness is None, True, dims, witness=witness and _fmt_vector(witness))


def _equality_record(pair_id, check, anchor, dims, left: tuple[str, Subspace], right: tuple[str, Subspace]):
    """Asserted: two named subspaces are equal; the witness compares their dimensions."""
    (a_name, a), (b_name, b) = left, right
    witness = f"{a_name} dim {a.dim} vs {b_name} dim {b.dim}"
    return _record(pair_id, check, anchor, a == b, True, dims, witness=witness)


def _sum_record(pair_id, check, anchor, asserted, sizes: tuple[int, int, int], cross: int, flags=None):
    """sum == left + right + cross, for sizes given as (left, right, sum)."""
    left, right, total = sizes
    return _record(
        pair_id, check, anchor, total == left + right + cross, asserted,
        {"left": left, "right": right, "sum": total, "cross": cross},
        flags, witness=f"{total} vs {left} + {right} + {cross}",
    )


def verify_diagram(pair: Pair, pair_id: str = "pair") -> list[CheckRecord]:
    """Centrality and image checks tying together all derived objects.

    Centrality is read off the collapse maps, with no bracket table.  With s
    the section, [x, y] = -proj(lam(s x) (x) rho(s y)) (the tensor module
    docstring), and rho(s y) runs over im rho as y runs over T because rho
    kills the relations.  So x in T is central exactly when lam(s x) (x) w has
    class 0 for every w in a basis of im rho.  The exterior product's bracket
    is the tensor's read through eps, so a class of it is central exactly when
    eps kills those classes for its representative x under eps_section.
    """
    d = _derive(pair)
    t, maps = d.tensor, d.maps
    box = maps.square
    comm = d.pair.relative_commutator.space
    lam, identity = d.pair.collapse_maps[0].compose(t.section), t.projection.compose(t.section)
    dims = {
        "tensor": t.dim,
        "diagonal": box.dim,
        "exterior": maps.eps.codomain_dim,
        "j2": maps.j2.dim,
        "multiplier": maps.multiplier.dim,
        "commutator": comm.dim,
    }
    return [
        _equality_record(
            pair_id, "exterior-kernel-is-diagonal", "tensor-to-exterior-kernel", dims,
            ("kernel", kernel(maps.eps)), ("diagonal", box),
        ),
        _central_record(pair_id, "diagonal-is-central", "diagonal-centrality", dims, d.noncentral(box, lam, identity)),
        _central_record(
            pair_id, "evaluation-kernel-is-central", "evaluation-kernel-centrality", dims,
            d.noncentral(maps.j2, lam, identity),
        ),
        _equality_record(
            pair_id, "evaluation-image-is-commutator", "evaluation-image", dims,
            ("image", maps.kappa.image()), ("commutator", comm),
        ),
        _equality_record(
            pair_id, "exterior-evaluation-image-is-commutator", "exterior-evaluation-image", dims,
            ("image", maps.kappa_prime.image()), ("commutator", comm),
        ),
        _central_record(
            pair_id, "multiplier-is-central-in-exterior", "multiplier-centrality", dims,
            d.noncentral(maps.multiplier, lam.compose(maps.eps_section), maps.eps),
        ),
        _record(
            pair_id, "kernel-dimensions-split", "kernel-dimension-identity",
            maps.j2.dim == box.dim + maps.multiplier.dim, True, dims,
            witness=f"j2 {maps.j2.dim} vs diagonal {box.dim} + multiplier {maps.multiplier.dim}",
        ),
    ]


def verify_ker_pi(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """Kernel of the induced projection equals the mixed commutator span."""
    d = _derive(pair)
    _, tq, pi = d.induced
    ker = kernel(pi)
    mix = d.mixed
    return _equality_record(
        pair_id, "projection-kernel-is-mixed-commutator-span", "kernel-of-induced-projection",
        {"tensor": d.tensor.dim, "quotient-tensor": tq.dim, "kernel": ker.dim, "mixed-span": mix.dim},
        ("kernel", ker), ("mixed span", mix),
    )


def verify_diagonal_descent(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """The induced projection restricts to an isomorphism of diagonals."""
    d = _derive(pair)
    pair, t = d.pair, d.tensor
    _, tq, pi = d.induced
    box = d.maps.square
    boxq = d.quotient_diagonal
    image = pi.image_of(box)
    rel = relative_abelianization_dim(pair)
    gamma = GammaSpace.from_pair(pair)
    psi_image = psi_map(pair, t, gamma).image()
    psi_rank = psi_image.dim
    ok = image == boxq and image.dim == box.dim
    return _record(
        pair_id, "diagonal-descends-isomorphically", "diagonal-descent", ok, True,
        {
            "diagonal": box.dim,
            "quotient-diagonal": boxq.dim,
            "gamma": gamma_dim(rel),
            "psi-rank": psi_rank,
            "relative-abelianization": rel,
        },
        flags={
            "clean-intersection": pair_is_clean(pair),
            "psi-injective": psi_rank == gamma_dim(rel),
            "psi-welldefined": psi_welldefined(pair, t, gamma, psi_image) is None,
            "diagonal-law": box.dim == gamma_dim(rel),
        },
        witness=f"image dim {image.dim} vs quotient diagonal dim {boxq.dim}",
    )


def verify_splitting(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """The tensor product T splits as the diagonal plus an ideal complement.

    The diagonal D is central, so this holds exactly when D meets [T, T] in 0:
    if it does, any complement C of D that contains [T, T] has
    [T, C] <= [T, T] <= C; if T = D + C with C an ideal, then
    [T, T] = [C, C] <= C.  The complement reported is [T, T] extended by
    basis vectors, of dimension T - dim D exactly when the record passes.
    """
    d = _derive(pair)
    t, maps, derived = d.tensor, d.maps, d.derived
    box = maps.square
    meet = _meet_dim(box, derived)
    return _record(
        pair_id, "tensor-splits-as-diagonal-plus-complement", "diagonal-complement-splitting", meet == 0, True,
        {"tensor": t.dim, "diagonal": box.dim, "complement": t.dim - box.dim + meet, "exterior": maps.eps.codomain_dim},
        flags={"complement-hypothesis": complement_condition(d.pair)},
        witness=f"diagonal {box.dim} meets [T, T] {derived.dim} in dimension {meet}",
    )


def verify_j2_decomposition(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """The evaluation kernel is the diagonal plus a copy of the multiplier."""
    maps = _derive(pair).maps
    box = maps.square
    eps_j2 = maps.eps.image_of(maps.j2)
    ok = (
        maps.j2.dim == box.dim + maps.multiplier.dim
        and maps.j2.contains_subspace(box)
        and eps_j2 == maps.multiplier
    )
    return _record(
        pair_id, "evaluation-kernel-splits-as-diagonal-plus-multiplier", "kernel-decomposition", ok, True,
        {"j2": maps.j2.dim, "diagonal": box.dim, "multiplier": maps.multiplier.dim},
        witness=(
            f"j2 {maps.j2.dim}, diagonal {box.dim}, multiplier {maps.multiplier.dim},"
            f" eps(j2) dim {eps_j2.dim}"
        ),
    )


def verify_abelian_basis(pair: Pair, pair_id: str = "pair") -> CheckRecord:
    """Reporter: do diagonal plus outside-corner symbols exhaust the tensor?

    The count is taken on the quotient of the pair by [N, L], which for an
    abelian algebra is the pair itself.  The count is known to overshoot in
    general, so this record is never asserted; the deficit is reported.
    """
    d = _derive(pair)
    qp, tt, _ = d.induced
    box = d.quotient_diagonal
    n, m = qp.pair.left_dim, qp.pair.right_dim
    claimed = box.dim + (n - m) * m
    return _record(
        pair_id, "diagonal-and-cross-symbols-exhaust-tensor", "abelian-pair-basis", claimed == tt.dim, False,
        {
            "tensor": tt.dim,
            "diagonal": box.dim,
            "claimed": claimed,
            "deficit": tt.dim - claimed,
            "algebra": n,
            "ideal": m,
        },
        flags={"algebra-abelian": d.pair.algebra.is_abelian()},
        witness=f"claimed {claimed} vs tensor {tt.dim}",
    )


def _abelianization_dim(algebra: LieAlgebra) -> int:
    """dim L/[L, L], read without building the quotient algebra."""
    return algebra.dim - algebra.derived_algebra.dim


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
    pair_s = direct_sum_pair(pair_a, pair_b)
    alg_s = pair_s.algebra
    h, k, hk = (_abelianization_dim(alg) for alg in (pair_a.algebra, pair_b.algebra, alg_s))
    # Each distinct pair is derived once: a full summand is its algebra's
    # square, and the sum of two full pairs is the square of the sum.
    held: list[_Derivation] = []
    squares = [_shared_derivation(held, pair_full(alg)).maps for alg in (pair_a.algebra, pair_b.algebra, alg_s)]
    sums = [_shared_derivation(held, p).maps for p in (pair_a, pair_b, pair_s)]
    (d_a, clean_a, comp_a), (d_b, clean_b, comp_b) = (
        (relative_abelianization_dim(p), pair_is_clean(p), complement_condition(p)) for p in (pair_a, pair_b)
    )
    # h - d_a is how far the pair's abelianization falls short of the algebra's
    cross_clean = (h - d_a) * d_b + (k - d_b) * d_a == 0
    flags = {
        "left-clean": clean_a,
        "right-clean": clean_b,
        "left-complement": comp_a,
        "right-complement": comp_b,
        "cross-excess-zero": cross_clean,
    }
    j2p_a, j2p_b, j2p_s = (m.j2.dim for m in sums)
    mul_a, mul_b, mul_s = (m.multiplier.dim for m in sums)
    lhs = (j2p_a + j2p_b + 2 * d_a * d_b) - (mul_a + mul_b + d_a * d_b)
    rhs = (j2p_a - mul_a) + (j2p_b - mul_b) + d_a * d_b
    return [
        _record(
            pair_id, "abelianization-square-additivity", "gamma-additivity",
            gamma_dim(hk) == gamma_dim(h) + gamma_dim(k) + h * k, True,
            {"left-abelianization": h, "right-abelianization": k, "sum-abelianization": hk},
            witness=f"gamma({hk}) vs gamma({h}) + gamma({k}) + {h * k}",
        ),
        _sum_record(
            pair_id, "multiplier-of-direct-sum", "multiplier-additivity", True,
            tuple(m.multiplier.dim for m in squares), h * k,
        ),
        _sum_record(
            pair_id, "evaluation-kernel-of-direct-sum", "kernel-additivity", True,
            tuple(m.j2.dim for m in squares), 2 * h * k,
        ),
        _record(
            pair_id, "free-presentation-square-additivity", "presentation-square-additivity",
            gamma_dim(h + k) == gamma_dim(h) + gamma_dim(k) + h * k, True,
            {"left-abelianization": h, "right-abelianization": k},
            witness=f"gamma({h + k}) vs gamma({h}) + gamma({k}) + {h * k}",
        ),
        # identities for the direct sum of the pairs themselves
        _sum_record(
            pair_id, "direct-sum-evaluation-kernel", "direct-sum-kernel-identity",
            clean_a and clean_b and cross_clean, (j2p_a, j2p_b, j2p_s), 2 * d_a * d_b, flags,
        ),
        _sum_record(
            pair_id, "direct-sum-diagonal", "direct-sum-diagonal-identity",
            clean_a and clean_b, tuple(m.square.dim for m in sums), d_a * d_b, flags,
        ),
        _sum_record(
            pair_id, "direct-sum-multiplier", "direct-sum-multiplier-identity",
            clean_a and clean_b and cross_clean, (mul_a, mul_b, mul_s), d_a * d_b, flags,
        ),
        _record(
            pair_id, "kernel-multiplier-difference", "kernel-quotient-consistency", lhs == rhs, True,
            {"difference": d_a * d_b}, witness=f"{lhs} vs {rhs}",
        ),
    ]


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


def _selected_checks(checks: Sequence[str] | None) -> tuple[Callable, ...]:
    """The named check functions in the given order, or all of them.

    ValueError names an unknown or a repeated check, or says that none is named."""
    table = dict(_PAIR_CHECKS)
    names = check_names() if checks is None else tuple(checks)
    if not names:
        raise ValueError(f"no check named; choose from {', '.join(check_names())}")
    for k, name in enumerate(names):
        if name not in table:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(check_names())}")
        if name in names[:k]:
            raise ValueError(f"check {name!r} is named twice")
    return tuple(table[name] for name in names)


def verify_pair(pair: Pair, pair_id: str = "pair", checks: Sequence[str] | None = None) -> VerificationReport:
    """Run the per-pair checks, or the named subset, on one shared derivation
    of the pair, and bundle the records.  Every name is checked before any
    work starts."""
    selected = _selected_checks(checks)
    derivation = _Derivation(pair)
    records = []
    for check in selected:
        result = check(derivation, pair_id)
        records.extend([result] if isinstance(result, CheckRecord) else result)
    return VerificationReport(tuple(records))
