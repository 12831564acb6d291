"""Pairs (L, N) with N an ideal of L and a choice of mutual actions.

The ideal keeps its canonical RREF basis, which doubles as its coordinate
system everywhere downstream; ``Pair.ideal_maps`` reads it at the pivots, a
left inverse of the inclusion with no membership test (the public
``ambient_to_ideal`` checks).  ``Pair(...)`` is trusted by contract, and the
pair layer has two checked edges, for ideals and actions supplied from
outside: ``make_pair`` checks that the span is an ideal and installs the
inner actions (actions by the bracket of L), compatible by theorem;
``make_pair_with_actions`` checks the same of the span and the two action
axioms and the two compatibility equations of arbitrary action tables.

The pairs the library derives from a pair or algebra it already holds are
built by theorem, through the private ``_inner_pair`` or positionally, with
no ideal check:

- ``pair_full``: L is an ideal of itself, and both actions are ad;
- ``direct_sum_pair``: the blocks bracket to zero, so N1 + N2 is an ideal;
- ``quotient_pair``: [N, L] is an ideal of L, and the image of an ideal
  under an onto homomorphism is an ideal;
- ``catalog.pair_center``: [L, Z(L)] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .liealg import (
    AlgebraHom,
    AlgebraSubspace,
    LieAlgebra,
    _induced_algebra,
    _quotient,
    _require_ideal,
    bracket_subspaces,
    direct_sum,
)
from .linalg import (
    Entries,
    Exact,
    LinalgError,
    LinearMap,
    Subspace,
    Support,
    Vector,
    _exact,
    _meet_dim,
    _sorted_entries,
    as_vector,
    from_support,
    subspace_maps,
    support,
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
    """Bilinear action table, held by the supports of its values.

    ``_supports[i][j]`` lists the nonzero (k, c) entries of the action of
    actor basis i on acted basis j, in index order, values in their internal
    form.  ``table`` is the same table as Fraction vectors, built on first
    read.  Build one from dense rows with :meth:`from_rows`.
    """

    actor_dim: int
    acted_dim: int
    _supports: tuple[tuple[Entries, ...], ...]

    @classmethod
    def from_rows(cls, actor_dim: int, acted_dim: int, rows: Sequence[Sequence[Iterable]]) -> "ActionData":
        table = tuple(tuple(as_vector(v) for v in row) for row in rows)
        if len(table) != actor_dim:
            raise LinalgError("action table row count mismatch")
        for row in table:
            if len(row) != acted_dim:
                raise LinalgError("action table column count mismatch")
            for v in row:
                if len(v) != acted_dim:
                    raise LinalgError("action value of wrong length")
        act = cls(actor_dim, acted_dim, tuple(tuple(tuple(support(v)) for v in row) for row in table))
        vars(act)["table"] = table  # the cached_property, already known
        return act

    @cached_property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """table[i][j] = action of actor basis i on acted basis j, as a Fraction vector."""
        return tuple(tuple(from_support(e, self.acted_dim) for e in row) for row in self._supports)

    def act_entries(self, i: int, j: int) -> Entries:
        """The nonzero (k, c) entries of the action of actor basis i on acted basis j."""
        return self._supports[i][j]

    def act_sparse(self, xs: Support, ns: Support) -> dict[int, Exact]:
        """x . n as {k: coefficient} over its nonzero coefficients, for x and n given by supports."""
        ns = tuple(ns)
        acc: dict[int, Exact] = {}
        for i, xi in xs:
            row = self._supports[i]
            for j, nj in ns:
                c = xi * nj
                for k, v in row[j]:
                    acc[k] = acc.get(k, 0) + c * v
        return {k: v for k, v in acc.items() if v}


@dataclass(frozen=True)
class Pair:
    """A Lie algebra L, an ideal N in RREF coordinates, and the two actions.

    The constructor checks shapes only, not that N is an ideal or that the
    actions are compatible.  The pair is immutable, so what is derived from it
    alone is built once per object and shared: the ideal's coordinate map and
    inclusion, its own algebra, the collapse maps of its symbols, and [N, L]
    in both coordinate systems.
    """

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
    def ideal_maps(self) -> tuple[LinearMap, LinearMap]:
        """(coordinates, inclusion): L to N by the entries at the ideal's pivots, a left inverse of N into L."""
        return subspace_maps(self.ideal.space)

    @property
    def inclusion(self) -> LinearMap:
        """N into L: ideal coordinates to ambient coordinates."""
        return self.ideal_maps[1]

    @cached_property
    def ideal_algebra(self) -> LieAlgebra:
        """N with its inherited bracket, in ideal coordinates: each [n_a, n_b] read back through the coordinate map."""
        coordinates, inclusion = self.ideal_maps
        return _induced_algebra(self.algebra.bracket_sparse, coordinates, inclusion, "n")

    @cached_property
    def relative_commutator(self) -> AlgebraSubspace:
        """[N, L] as a subspace of L."""
        return bracket_subspaces(self.algebra, self.ideal, AlgebraSubspace.full(self.algebra))

    @cached_property
    def relative_commutator_in_ideal(self) -> Subspace:
        """[N, L] in the ideal's own coordinates."""
        return self.ideal_maps[0].image_of(self.relative_commutator.space)

    @cached_property
    def collapse_maps(self) -> tuple[LinearMap, LinearMap]:
        """The collapses of the symbols into L and into N: column i * q + a is n_a . l_i, and l_i . n_a."""
        p, q = self.left_dim, self.right_dim
        on_algebra, on_ideal = self.act_on_algebra, self.act_on_ideal
        left = LinearMap(p, tuple(on_algebra.act_entries(a, i) for i in range(p) for a in range(q)))
        right = LinearMap(q, tuple(on_ideal.act_entries(i, a) for i in range(p) for a in range(q)))
        return left, right

    def ambient_to_ideal(self, v: Sequence) -> Vector:
        """The ideal coordinates of an ambient vector, checked to lie in the ideal."""
        if not self.ideal.space.contains(v):
            raise LinalgError("vector is not in the ideal")
        return self.ideal_maps[0].apply(v)


def _inner_pair(algebra: LieAlgebra, ideal: AlgebraSubspace) -> Pair:
    """Pair with the inner actions on a subspace trusted to be an ideal.

    Each [l_i, n_a] is computed once: l_i acts on n_a by it, in ideal
    coordinates (read through the ideal's coordinate map, as it lies in the
    ideal), and n_a acts on l_i by its negative.  Both tables are kept as
    supports.  The inner actions satisfy both action axioms and both
    compatibility equations by the Jacobi identity of L.
    """
    maps = subspace_maps(ideal.space)
    p, q = algebra.dim, ideal.dim
    on_ideal = [[()] * q for _ in range(p)]
    on_algebra = [[()] * p for _ in range(q)]
    for i in range(p):
        for a, n in enumerate(ideal.space.entries):
            w = algebra.bracket_sparse(((i, 1),), n)
            on_ideal[i][a] = _sorted_entries(maps[0]._image(w.items()))
            on_algebra[a][i] = tuple((k, -_exact(w[k])) for k in sorted(w))
    act_on_ideal = ActionData(p, q, tuple(map(tuple, on_ideal)))
    act_on_algebra = ActionData(q, p, tuple(map(tuple, on_algebra)))
    pair = Pair(algebra, ideal, act_on_ideal, act_on_algebra)
    vars(pair)["ideal_maps"] = maps  # the cached_property, already known
    return pair


def make_pair(algebra: LieAlgebra, ideal_vectors: Sequence[Iterable]) -> Pair:
    """Pair with the inner actions; raises NotAnIdealError when the span is not an ideal.

    The first [l_i, n_a] outside the span, in the order i, then a, is the witness.
    """
    return _inner_pair(algebra, _require_ideal(AlgebraSubspace.from_vectors(algebra, ideal_vectors)))


def pair_full(algebra: LieAlgebra) -> Pair:
    """The pair (L, L) with the inner actions, built by theorem.

    L is an ideal of itself and its unit vectors are its RREF basis, so the
    ideal coordinates are the algebra's.  l_i acts on n_a by [l_i, l_a], and
    n_a on l_i by its negative [l_a, l_i], so both actions are the one table
    ad[i][a] = [l_i, l_a] read off the bracket table; the ideal's own algebra
    is L's table under the ideal's basis names.
    """
    p = algebra.dim
    ad = ActionData(p, p, tuple(tuple(algebra.bracket_entries(i, a) for a in range(p)) for i in range(p)))
    pair = Pair(algebra, AlgebraSubspace.full(algebra), ad, ad)
    # the cached_property, already known
    vars(pair)["ideal_algebra"] = LieAlgebra(p, tuple(f"n{k}" for k in range(p)), algebra._brackets)
    return pair


def make_pair_with_actions(
    algebra: LieAlgebra,
    ideal_vectors: Sequence[Iterable],
    act_on_ideal: ActionData,
    act_on_algebra: ActionData,
) -> Pair:
    """Pair with supplied actions; both axioms and compatibility are enforced.

    Not checked: (iota n) . n = 0 for every n in N, with iota the inclusion
    of N into L.  The inner actions satisfy it, as [n, n] = 0, but compatible
    actions need not, and without it the evaluation map does not kill the
    diagonal: tensor.kappa_maps then refuses the tensor.
    """
    ideal = _require_ideal(AlgebraSubspace.from_vectors(algebra, ideal_vectors))
    pair = Pair(algebra, ideal, act_on_ideal, act_on_algebra)
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


def _residual(width: int, lhs: dict[int, Exact], *rhs: dict[int, Exact]) -> Vector | None:
    """lhs minus the sum of rhs, all given by their entries, as a vector; None when it is zero."""
    acc = dict(lhs)
    for v in rhs:
        for k, x in v.items():
            acc[k] = acc.get(k, 0) - x
    return from_support(acc.items(), width) if any(acc.values()) else None


def validate_action(act: ActionData, actor: LieAlgebra, acted: LieAlgebra) -> ActionViolation | None:
    """Check both action axioms on basis elements; violations are values."""
    if act.actor_dim != actor.dim or act.acted_dim != acted.dim:
        raise LinalgError("action table does not match the algebras")
    for i in range(actor.dim):
        for j in range(i + 1, actor.dim):
            bracket = actor.bracket_entries(i, j)
            for k in range(acted.dim):
                # [x_i, x_j] . y_k against x_i . (x_j . y_k) - x_j . (x_i . y_k)
                residual = _residual(
                    acted.dim,
                    act.act_sparse(bracket, ((k, 1),)),
                    act.act_sparse(((i, 1),), act.act_entries(j, k)),
                    act.act_sparse(((j, -1),), act.act_entries(i, k)),
                )
                if residual is not None:
                    return ActionViolation(1, (i, j, k), residual)
    for i in range(actor.dim):
        for k in range(acted.dim):
            for l in range(k + 1, acted.dim):
                # x_i . [y_k, y_l] against [x_i . y_k, y_l] + [y_k, x_i . y_l]
                residual = _residual(
                    acted.dim,
                    act.act_sparse(((i, 1),), acted.bracket_entries(k, l)),
                    acted.bracket_sparse(act.act_entries(i, k), ((l, 1),)),
                    acted.bracket_sparse(((k, 1),), act.act_entries(i, l)),
                )
                if residual is not None:
                    return ActionViolation(2, (i, k, l), residual)
    return None


def validate_compatible(pair: Pair) -> CompatibilityViolation | None:
    """Check the two compatibility equations between the pair's actions.

    Equation 1, landing in the ideal: acting with (n acting on l) on n'
    equals the ideal bracket [n', l acting on n].
    Equation 2, landing in the algebra: acting with (l acting on n) on l'
    equals the algebra bracket [l', n acting on l].
    """
    n_alg = pair.ideal_algebra
    on_ideal, on_algebra = pair.act_on_ideal, pair.act_on_algebra
    p, q = pair.left_dim, pair.right_dim
    for a in range(q):
        for i in range(p):
            moved = on_algebra.act_entries(a, i)  # n_a acting on l_i, in L
            for b in range(q):
                residual = _residual(
                    q,
                    on_ideal.act_sparse(moved, ((b, 1),)),
                    n_alg.bracket_sparse(((b, 1),), on_ideal.act_entries(i, a)),
                )
                if residual is not None:
                    return CompatibilityViolation(1, (a, i, b), residual)
    for i in range(p):
        for a in range(q):
            moved = on_ideal.act_entries(i, a)  # l_i acting on n_a, in N coords
            for j in range(p):
                residual = _residual(
                    p,
                    on_algebra.act_sparse(moved, ((j, 1),)),
                    pair.algebra.bracket_sparse(((j, 1),), on_algebra.act_entries(a, i)),
                )
                if residual is not None:
                    return CompatibilityViolation(2, (i, a, j), residual)
    return None


@dataclass(frozen=True)
class QuotientPair:
    """The pair (L/[N,L], N/[N,L]) together with the projections."""

    pair: Pair
    proj_algebra: AlgebraHom
    proj_ideal: AlgebraHom
    commutator: AlgebraSubspace  # [N, L] inside L


def quotient_pair(pair: Pair) -> QuotientPair:
    """Quotient both members by [N, L] and install the inner actions.

    [N, L] is an ideal of L, as [[n, l], l'] = [[n, l'], l] + [n, [l, l']] by
    Jacobi, so the quotient is built unchecked.  The projection is onto, so
    the image of the ideal N is an ideal of the quotient: [proj l, proj n] =
    proj [l, n] lies in proj N.
    """
    k = pair.relative_commutator
    quotient, proj = _quotient(pair.algebra, k.space)
    images = [proj._image(v) for v in pair.ideal.space.entries]
    new_pair = _inner_pair(quotient, AlgebraSubspace.from_vectors(quotient, images))
    # the images lie in the new ideal, so the coordinate map reads them exactly
    coordinates = new_pair.ideal_maps[0]
    columns = [_sorted_entries(coordinates._image(w.items())) for w in images]
    proj_ideal = AlgebraHom(pair.ideal_algebra, new_pair.ideal_algebra, LinearMap(new_pair.right_dim, tuple(columns)))
    return QuotientPair(new_pair, AlgebraHom(pair.algebra, quotient, proj), proj_ideal, k)


def relative_abelianization_dim(pair: Pair) -> int:
    """dim N/[N,L]."""
    return pair.right_dim - pair.relative_commutator.dim


def pair_is_clean(pair: Pair) -> bool:
    """True when the intersection of N with [L,L] is exactly [N,L]: as [N,L] lies in N and
    in [L,L], that is dim N + dim [L,L] - dim(N + [L,L]) == dim [N,L]."""
    return _meet_dim(pair.ideal.space, pair.algebra.derived_algebra.space) == pair.relative_commutator.dim


def complement_condition(pair: Pair) -> bool:
    """True when [N,L] = [L,L]: as [N,L] lies in [L,L], that is dim [N,L] == dim [L,L].
    A vector-space complement of N always exists."""
    return pair.relative_commutator.dim == pair.algebra.derived_algebra.dim


def direct_sum_pair(a: Pair, b: Pair) -> Pair:
    """(L1 + L2, N1 + N2) with inner actions, via block embedding.

    The two blocks bracket to zero, so [l1 + l2, n1 + n2] = [l1, n1] + [l2, n2]
    lies in N1 + N2: the sum of the summands' ideals is an ideal.
    """
    algebra = direct_sum(a.algebra, b.algebra)
    left = [dict(v) for v in a.ideal.space.entries]
    right = [{a.left_dim + k: c for k, c in v} for v in b.ideal.space.entries]
    return _inner_pair(algebra, AlgebraSubspace.from_vectors(algebra, left + right))
