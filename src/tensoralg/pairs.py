"""Pairs (L, N) with N an ideal of L and a choice of mutual actions.

The ideal keeps its canonical RREF basis, which doubles as its coordinate
system everywhere downstream.  ``make_pair`` installs the inner actions
(actions by the bracket of L); arbitrary action tables can be supplied for
pairs built from explicit data, and are validated against the two action
axioms and the two compatibility equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .liealg import (
    AlgebraHom,
    AlgebraSubspace,
    LieAlgebra,
    NotAnIdealError,
    bracket_subspaces,
    coordinates_in,
    derived_algebra,
    direct_sum,
    quotient_algebra,
    restrict_to_subalgebra,
)
from .linalg import (
    LinalgError,
    LinearMap,
    Subspace,
    Vector,
    as_vector,
    combine,
    from_support,
    span_intersect,
    support,
    vadd,
    vscale,
    zero_vector,
)


class PairValidationError(ValueError):
    """An action axiom or compatibility equation failed; carries the witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ActionViolation:
    """axiom is 1 (action of a bracket) or 2 (action on a bracket)."""

    axiom: int
    indices: tuple[int, ...]
    residual: Vector


@dataclass(frozen=True)
class CompatibilityViolation:
    """equation is 1 (into the ideal) or 2 (into the algebra)."""

    equation: int
    indices: tuple[int, ...]
    residual: Vector


@dataclass(frozen=True)
class ActionData:
    """Bilinear action table: table[i][j] = action of actor basis i on acted basis j."""

    actor_dim: int
    acted_dim: int
    table: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        if len(self.table) != self.actor_dim:
            raise LinalgError("action table row count mismatch")
        for row in self.table:
            if len(row) != self.acted_dim:
                raise LinalgError("action table column count mismatch")
            for v in row:
                if len(v) != self.acted_dim:
                    raise LinalgError("action value of wrong length")

    @classmethod
    def from_rows(cls, actor_dim: int, acted_dim: int, rows: Sequence[Sequence[Iterable]]) -> "ActionData":
        return cls(actor_dim, acted_dim, tuple(tuple(as_vector(v) for v in row) for row in rows))

    def act_basis(self, i: int, j: int) -> Vector:
        return self.table[i][j]

    def apply(self, x: Sequence, n: Sequence) -> Vector:
        x = as_vector(x)
        n = as_vector(n)
        if len(x) != self.actor_dim or len(n) != self.acted_dim:
            raise LinalgError("action argument of wrong length")
        # support(n) is taken once per nonzero coordinate of x, so a zero x never scans n
        terms = [(xi * nj, self.table[i][j]) for i, xi in support(x) for j, nj in support(n)]
        return combine([c for c, _ in terms], [v for _, v in terms], self.acted_dim)


@dataclass(frozen=True)
class Pair:
    """A Lie algebra L, an ideal N in RREF coordinates, and the two actions."""

    algebra: LieAlgebra
    ideal: AlgebraSubspace
    act_on_ideal: ActionData    # L acting on N, values in N coordinates
    act_on_algebra: ActionData  # N acting on L, values in L coordinates

    def __post_init__(self):
        if self.ideal.parent != self.algebra:
            raise LinalgError("ideal does not belong to the pair's algebra")
        p, q = self.algebra.dim, self.ideal.dim
        if (self.act_on_ideal.actor_dim, self.act_on_ideal.acted_dim) != (p, q):
            raise LinalgError("action of L on N has wrong shape")
        if (self.act_on_algebra.actor_dim, self.act_on_algebra.acted_dim) != (q, p):
            raise LinalgError("action of N on L has wrong shape")

    @property
    def left_dim(self) -> int:
        return self.algebra.dim

    @property
    def right_dim(self) -> int:
        return self.ideal.dim

    @cached_property
    def ideal_algebra(self) -> LieAlgebra:
        """N with its inherited bracket, in ideal coordinates."""
        return restrict_to_subalgebra(self.algebra, self.ideal)

    def ideal_basis_vector(self, a: int) -> Vector:
        return self.ideal.space.basis[a]

    def ideal_vector_to_ambient(self, n: Sequence) -> Vector:
        n = as_vector(n)
        if len(n) != self.right_dim:
            raise LinalgError("ideal coordinate vector of wrong length")
        return combine(n, self.ideal.space.basis, self.left_dim)

    def ambient_to_ideal(self, v: Sequence) -> Vector:
        coords = coordinates_in(self.ideal.space, v)
        if coords is None:
            raise LinalgError("vector is not in the ideal")
        return coords


def _leaves_span(i: int, v: Vector) -> NotAnIdealError:
    return NotAnIdealError(f"bracket of basis element {i} leaves the span", witness=(i, v))


def _ideal_span(algebra: LieAlgebra, ideal_vectors: Sequence[Iterable]) -> AlgebraSubspace:
    ideal = AlgebraSubspace.from_vectors(algebra, ideal_vectors)
    witness = ideal.is_ideal()
    if witness is not None:
        raise _leaves_span(*witness)
    return ideal


def make_pair(algebra: LieAlgebra, ideal_vectors: Sequence[Iterable]) -> Pair:
    """Pair with the inner actions; raises when the span is not an ideal.

    Each [l_i, n_a] is computed once, in the order is_ideal tests it: l_i acts
    on n_a by it, in ideal coordinates, and n_a acts on l_i by its negative.
    """
    ideal = AlgebraSubspace.from_vectors(algebra, ideal_vectors)
    p, q = algebra.dim, ideal.dim
    on_ideal = [[None] * q for _ in range(p)]
    on_algebra = [[None] * p for _ in range(q)]
    for i in range(p):
        for a, n in enumerate(ideal.space.basis):
            w = algebra.bracket_sparse(((i, 1),), support(n))
            coords = coordinates_in(ideal.space, from_support(w.items(), p))
            if coords is None:
                raise _leaves_span(i, n)
            on_ideal[i][a] = coords
            on_algebra[a][i] = from_support(((k, -x) for k, x in w.items()), p)
    return Pair(algebra, ideal, ActionData.from_rows(p, q, on_ideal), ActionData.from_rows(q, p, on_algebra))


def pair_full(algebra: LieAlgebra) -> Pair:
    """The pair (L, L) with the inner actions."""
    return make_pair(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])


def make_pair_with_actions(
    algebra: LieAlgebra,
    ideal_vectors: Sequence[Iterable],
    act_on_ideal: ActionData,
    act_on_algebra: ActionData,
) -> Pair:
    """Pair with supplied actions; both axioms and compatibility are enforced."""
    pair = Pair(algebra, _ideal_span(algebra, ideal_vectors), act_on_ideal, act_on_algebra)
    bad = validate_action(act_on_ideal, algebra, pair.ideal_algebra)
    if bad is not None:
        raise PairValidationError("action of the algebra on the ideal breaks an axiom", bad)
    bad = validate_action(act_on_algebra, pair.ideal_algebra, algebra)
    if bad is not None:
        raise PairValidationError("action of the ideal on the algebra breaks an axiom", bad)
    bad = validate_compatible(pair)
    if bad is not None:
        raise PairValidationError("the two actions are not compatible", bad)
    return pair


def validate_action(act: ActionData, actor: LieAlgebra, acted: LieAlgebra) -> ActionViolation | None:
    """Check both action axioms on basis elements; violations are values."""
    if act.actor_dim != actor.dim or act.acted_dim != acted.dim:
        raise LinalgError("action table does not match the algebras")
    for i in range(actor.dim):
        for j in range(i + 1, actor.dim):
            for k in range(acted.dim):
                lhs = act.apply(actor.bracket_basis(i, j), acted.basis_vector(k))
                rhs = vadd(
                    act.apply(actor.basis_vector(i), act.act_basis(j, k)),
                    vscale(Fraction(-1), act.apply(actor.basis_vector(j), act.act_basis(i, k))),
                )
                if lhs != rhs:
                    return ActionViolation(1, (i, j, k), tuple(a - b for a, b in zip(lhs, rhs)))
    for i in range(actor.dim):
        for k in range(acted.dim):
            for l in range(k + 1, acted.dim):
                lhs = act.apply(actor.basis_vector(i), acted.bracket_basis(k, l))
                rhs = vadd(
                    acted.bracket_vectors(act.act_basis(i, k), acted.basis_vector(l)),
                    acted.bracket_vectors(acted.basis_vector(k), act.act_basis(i, l)),
                )
                if lhs != rhs:
                    return ActionViolation(2, (i, k, l), tuple(a - b for a, b in zip(lhs, rhs)))
    return None


def validate_compatible(pair: Pair) -> CompatibilityViolation | None:
    """Check the two compatibility equations between the pair's actions.

    Equation 1, landing in the ideal: acting with (n acting on l) on n'
    equals the ideal bracket [n', l acting on n].
    Equation 2, landing in the algebra: acting with (l acting on n) on l'
    equals the algebra bracket [l', n acting on l].
    """
    n_alg = pair.ideal_algebra
    p, q = pair.left_dim, pair.right_dim
    for a in range(q):
        for i in range(p):
            moved = pair.act_on_algebra.act_basis(a, i)  # n_a acting on l_i, in L
            for b in range(q):
                lhs = pair.act_on_ideal.apply(moved, n_alg.basis_vector(b))
                rhs = n_alg.bracket_vectors(n_alg.basis_vector(b), pair.act_on_ideal.act_basis(i, a))
                if lhs != rhs:
                    return CompatibilityViolation(1, (a, i, b), tuple(x - y for x, y in zip(lhs, rhs)))
    for i in range(p):
        for a in range(q):
            moved = pair.act_on_ideal.act_basis(i, a)  # l_i acting on n_a, in N coords
            for j in range(p):
                lhs = pair.act_on_algebra.apply(moved, pair.algebra.basis_vector(j))
                rhs = pair.algebra.bracket_vectors(
                    pair.algebra.basis_vector(j), pair.act_on_algebra.act_basis(a, i)
                )
                if lhs != rhs:
                    return CompatibilityViolation(2, (i, a, j), tuple(x - y for x, y in zip(lhs, rhs)))
    return None


@dataclass(frozen=True)
class QuotientPair:
    """The pair (L/[N,L], N/[N,L]) together with the projections."""

    pair: Pair
    proj_algebra: AlgebraHom
    proj_ideal: AlgebraHom
    commutator: AlgebraSubspace  # [N, L] inside L


def relative_commutator(pair: Pair) -> AlgebraSubspace:
    """[N, L] as a subspace of L."""
    return bracket_subspaces(pair.algebra, pair.ideal, AlgebraSubspace.full(pair.algebra))


def quotient_pair(pair: Pair) -> QuotientPair:
    """Quotient both members by [N, L] and install the inner actions."""
    k = relative_commutator(pair)
    quotient, proj = quotient_algebra(pair.algebra, k)
    image_vectors = [proj.apply(v) for v in pair.ideal.space.basis]
    new_pair = make_pair(quotient, image_vectors)
    columns = [new_pair.ambient_to_ideal(proj.apply(pair.ideal_basis_vector(a))) for a in range(pair.right_dim)]
    proj_ideal = AlgebraHom(
        pair.ideal_algebra,
        new_pair.ideal_algebra,
        LinearMap.from_columns(new_pair.right_dim, columns),
    )
    return QuotientPair(new_pair, proj, proj_ideal, k)


def relative_commutator_in_ideal(pair: Pair) -> Subspace:
    """[N, L] expressed in the ideal's own coordinates."""
    comm = relative_commutator(pair)
    return Subspace.from_vectors(pair.right_dim, [pair.ambient_to_ideal(v) for v in comm.basis()])


def relative_abelianization_dim(pair: Pair) -> int:
    """dim N/[N,L]."""
    return pair.right_dim - relative_commutator(pair).dim


def pair_is_clean(pair: Pair) -> bool:
    """True when the intersection of N with [L,L] is exactly [N,L]."""
    meet = span_intersect(pair.ideal.space, derived_algebra(pair.algebra).space)
    return meet == relative_commutator(pair).space


def complement_condition(pair: Pair) -> bool:
    """True when [N,L] = [L,L]; a vector-space complement of N always exists."""
    return relative_commutator(pair).space == derived_algebra(pair.algebra).space


def direct_sum_pair(a: Pair, b: Pair) -> Pair:
    """(L1 + L2, N1 + N2) with inner actions, via block embedding."""
    algebra = direct_sum(a.algebra, b.algebra)
    left = [tuple(v) + zero_vector(b.left_dim) for v in a.ideal.space.basis]
    right = [zero_vector(a.left_dim) + tuple(v) for v in b.ideal.space.basis]
    return make_pair(algebra, left + right)
