"""Quadratic functor of the relative abelianization and the squaring map.

For a pair (L, N) let d be the dimension of N/[N,L].  The quadratic functor
of that quotient is the symmetric square, of dimension d(d+1)/2, with basis
labelled by pairs (a, b) with a <= b.  The squaring map sends a square
generator to the class of n (x) n in the tensor product, choosing coset
representatives for the quotient basis; mixed generators go to the polarized
value n (x) n' + n' (x) n.  So psi is tensor._squares over the quotient
representatives, GammaSpace.section, whose order of pairs it shares.

Well-definedness means the squares do not depend on the choice of coset
representative: shifting a representative n by a commutator m must move
n (x) n inside the image of the map.  The checker reports the first basis
pair where that fails.

For the inner actions it cannot fail.  Take x in N, l in L and n in N, and
let m = [l, n].  The relation (R1) of the tensor module on (x, l, n) gives
x (x) [l, n] = [x, l] (x) n + l (x) [x, n], and (R2) on (l, n, x) gives
[n, l] (x) x the same right side.  So x (x) m + m (x) x = 0, and by linearity
this holds for every m in [N, L].  Taking x = m gives m (x) m = 0 over the
rationals, so (n + m) (x) (n + m) - n (x) n = 0.  The squares therefore do not
depend on the representative, and the image of the map is the diagonal.
Supplied actions are not covered by this proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import LinearMap, Subspace, Vector, from_support, quotient_maps
from .pairs import Pair
from .tensor import NonabelianTensor, _ideal_class, _squares


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
    return LinearMap.from_columns(tensor.dim, _squares(tensor, gamma.section))


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
