"""Pairs (L, N): an ideal N of a Lie algebra L, acting on each other by the bracket.

The actions are the inner ones by definition: l . n = [l, n] in N and
n . l = [n, l] in L.  The ideal keeps its canonical RREF basis, which doubles
as its coordinate system everywhere downstream; ``Pair.ideal_maps`` reads it
at the pivots, a left inverse of the inclusion with no membership test (the
public ``ambient_to_ideal`` checks).  Only ``Pair.collapse_maps`` forms the
brackets [l_i, n_a]: [N, L], in L and in N, is the image of either collapse.
``Pair(algebra, ideal)`` is trusted by contract, and ``make_pair`` is the
checked edge for an ideal supplied from outside: it checks that the span is
an ideal, on the left collapse columns.

The pairs the library derives from a pair or algebra it already holds are
built positionally, by theorem, with no ideal check:

- ``pair_full``: L is an ideal of itself;
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
    _ideal_witness,
    _induced_algebra,
    _quotient,
    _require_ideal,
    direct_sum,
)
from .linalg import (
    LinalgError,
    LinearMap,
    Subspace,
    Vector,
    _exact,
    _meet_dim,
    _sorted_entries,
    subspace_maps,
)


@dataclass(frozen=True)
class Pair:
    """A Lie algebra L and an ideal N of it, in RREF coordinates.

    The constructor checks only that the ideal is a subspace of the algebra,
    not that it is an ideal.  The pair is immutable, so what is derived from
    it alone is built once per object and shared: the ideal's coordinate map
    and inclusion, its own algebra, the collapse maps of its symbols, and
    [N, L] in both coordinate systems.
    """

    algebra: LieAlgebra
    ideal: AlgebraSubspace

    def __post_init__(self):
        if self.ideal.parent != self.algebra:
            raise LinalgError("ideal does not belong to the pair's algebra")

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
        """[N, L] as a subspace of L: the image of the left collapse, spanned by the -[l_i, n_a]."""
        return AlgebraSubspace(self.algebra, self.collapse_maps[0].image())

    @cached_property
    def relative_commutator_in_ideal(self) -> Subspace:
        """[N, L] in the ideal's own coordinates: the image of the right collapse, spanned by the [l_i, n_a]."""
        return self.collapse_maps[1].image()

    @cached_property
    def collapse_maps(self) -> tuple[LinearMap, LinearMap]:
        """The collapses of the symbols into L and into N: column i * q + a is n_a . l_i, and l_i . n_a.

        Each w = [l_i, n_a] is formed here once, and nowhere else: n_a . l_i is
        -w, and l_i . n_a is w read through the ideal's coordinate map.
        """
        coordinates = self.ideal_maps[0]
        left, right = [], []
        for i in range(self.left_dim):
            for n in self.ideal.space.entries:
                w = self.algebra.bracket_sparse(((i, 1),), n)
                left.append(tuple((k, -_exact(w[k])) for k in sorted(w)))
                right.append(_sorted_entries(coordinates._image(w.items())))
        return LinearMap(self.left_dim, tuple(left)), LinearMap(self.right_dim, tuple(right))

    def ambient_to_ideal(self, v: Sequence) -> Vector:
        """The ideal coordinates of an ambient vector, checked to lie in the ideal."""
        if not self.ideal.space.contains(v):
            raise LinalgError("vector is not in the ideal")
        return self.ideal_maps[0].apply(v)


def make_pair(algebra: LieAlgebra, ideal_vectors: Sequence[Iterable]) -> Pair:
    """The pair on the span of the vectors; raises NotAnIdealError when the span is not an ideal.

    The check reads the left collapse columns, -[l_i, n_a] in the order i,
    then a: the first outside the span is the witness.
    """
    pair = Pair(algebra, AlgebraSubspace.from_vectors(algebra, ideal_vectors))
    _require_ideal(_ideal_witness(pair.ideal.space, map(dict, pair.collapse_maps[0]._columns)))
    return pair


def pair_full(algebra: LieAlgebra) -> Pair:
    """The pair (L, L), built by theorem.

    L is an ideal of itself and its unit vectors are its RREF basis, so the
    ideal coordinates are the algebra's.  Both collapses and the ideal's own
    algebra are read off the bracket table: n_a . l_i is [l_a, l_i], l_i . n_a
    is [l_i, l_a], and the ideal's algebra is L's table under the ideal's
    basis names.
    """
    p = algebra.dim
    pair = Pair(algebra, AlgebraSubspace.full(algebra))
    # the cached_properties, already known
    vars(pair)["ideal_algebra"] = LieAlgebra(p, tuple(f"n{k}" for k in range(p)), algebra._brackets)
    left = LinearMap(p, tuple(algebra.bracket_entries(a, i) for i in range(p) for a in range(p)))
    right = LinearMap(p, tuple(algebra.bracket_entries(i, a) for i in range(p) for a in range(p)))
    vars(pair)["collapse_maps"] = (left, right)
    return pair


@dataclass(frozen=True)
class QuotientPair:
    """The pair (L/[N,L], N/[N,L]) together with the projections."""

    pair: Pair
    proj_algebra: AlgebraHom
    proj_ideal: AlgebraHom
    commutator: AlgebraSubspace  # [N, L] inside L


def quotient_pair(pair: Pair) -> QuotientPair:
    """Quotient both members by [N, L].

    [N, L] is an ideal of L, as [[n, l], l'] = [[n, l'], l] + [n, [l, l']] by
    Jacobi, so the quotient is built unchecked.  The projection is onto, so
    the image of the ideal N is an ideal of the quotient: [proj l, proj n] =
    proj [l, n] lies in proj N.
    """
    k = pair.relative_commutator
    quotient, proj = _quotient(pair.algebra, k.space)
    images = [proj._image(v) for v in pair.ideal.space.entries]
    new_pair = Pair(quotient, AlgebraSubspace.from_vectors(quotient, images))
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
    """(L1 + L2, N1 + N2), via block embedding.

    The two blocks bracket to zero, so [l1 + l2, n1 + n2] = [l1, n1] + [l2, n2]
    lies in N1 + N2: the sum of the summands' ideals is an ideal.
    """
    algebra = direct_sum(a.algebra, b.algebra)
    left = [dict(v) for v in a.ideal.space.entries]
    right = [{a.left_dim + k: c for k, c in v} for v in b.ideal.space.entries]
    return Pair(algebra, AlgebraSubspace.from_vectors(algebra, left + right))
