"""Quadratic functor of the relative abelianization and the squaring map.

For a pair (L, N) let d be the dimension of N/[N,L].  The quadratic functor
of that quotient is the symmetric square, of dimension d(d+1)/2, with basis
labelled by pairs (a, b) with a <= b.  The squaring map sends a square
generator to the class of n (x) n in the tensor product, choosing coset
representatives for the quotient basis; mixed generators go to the polarized
value n (x) n' + n' (x) n.

Well-definedness means the squares do not depend on the choice of coset
representative: shifting a representative n by a commutator m must move
n (x) n inside the image of the map.  The checker reports the first basis
pair where that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import Exact, LinearMap, Subspace, Support, Vector, _entries, from_support, quotient_maps
from .pairs import Pair
from .tensor import NonabelianTensor


def gamma_dim(d: int) -> int:
    """Dimension of the symmetric square of a d-dimensional space."""
    if d < 0:
        raise ValueError("negative dimension")
    return d * (d + 1) // 2


@dataclass(frozen=True)
class GammaSpace:
    """Symmetric square coordinates for the relative abelianization."""

    source_dim: int
    section: LinearMap  # column k represents quotient basis vector k, in ideal coordinates
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pair(cls, pair: Pair) -> "GammaSpace":
        comm = pair.relative_commutator_in_ideal
        _, section = quotient_maps(pair.right_dim, comm)
        d = section.domain_dim
        index_pairs = tuple((a, b) for a in range(d) for b in range(a, d))
        return cls(d, section, index_pairs)

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def index(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        return self.pairs.index((a, b))


def _ideal_class(tensor: NonabelianTensor, products: Sequence[tuple[Support, Support]]) -> dict[int, Exact]:
    """The entries of the class of the sum of x (x) y over pairs of ideal vectors, given as supports."""
    inclusion = tensor.pair.inclusion
    return tensor.class_entries((inclusion._image(x).items(), y) for x, y in products)


def sigma(tensor: NonabelianTensor, x: Sequence, y: Sequence) -> Vector:
    """Class of x (x) y + y (x) x for two ideal vectors, in tensor coordinates.

    Both arguments are given in ideal coordinates.
    """
    q = tensor.pair.right_dim
    xs, ys = _entries(x, q).items(), _entries(y, q).items()
    return from_support(_ideal_class(tensor, [(xs, ys), (ys, xs)]).items(), tensor.dim)


@dataclass(frozen=True)
class PsiDefect:
    """A representative-dependence witness for the squaring map.

    Shifting representative number rep_index by commutator_vector moves its
    square by residual, and residual is outside the image of the map.
    """

    rep_index: int
    commutator_vector: Vector  # in ideal coordinates
    residual: Vector           # in tensor coordinates


def psi_map(pair: Pair, tensor: NonabelianTensor, gamma: GammaSpace) -> LinearMap:
    """The squaring map from the symmetric square of the pair's gamma space into tensor coordinates."""
    if tensor.pair != pair:
        raise ValueError("tensor was built from a different pair")
    reps = [gamma.section.column_entries(k) for k in range(gamma.source_dim)]
    columns = [
        _ideal_class(tensor, [(reps[a], reps[b])] if a == b else [(reps[a], reps[b]), (reps[b], reps[a])])
        for a, b in gamma.pairs
    ]
    return LinearMap.from_columns(tensor.dim, columns)


def psi_welldefined(pair: Pair, tensor: NonabelianTensor, gamma: GammaSpace, image: Subspace) -> PsiDefect | None:
    """None when the squaring map on gamma, whose image is given, is independent of representative choice."""
    comm = pair.relative_commutator_in_ideal
    for k in range(gamma.source_dim):
        r = gamma.section.column_entries(k)
        for t, ms in enumerate(comm.entries):
            # (r + m) (x) (r + m) - r (x) r, expanded bilinearly
            residual = _ideal_class(tensor, [(r, ms), (ms, r), (ms, ms)])
            if not image.contains(residual):
                return PsiDefect(k, comm.basis[t], from_support(residual.items(), tensor.dim))
    return None
