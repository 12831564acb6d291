"""Example algebras and rational changes of basis shared by several test modules.

Unlike `oracles.py`, this builds its objects through the package under test.
"""

from fractions import Fraction

from tensoralg.liealg import LieAlgebra, center
from tensoralg.linalg import LinearMap, Matrix, Subspace, rref
from tensoralg.pairs import make_pair

def sl2():
    # [e, f] = h, [h, e] = 2e, [h, f] = -2f
    return LieAlgebra.make(
        3, ("e", "f", "h"), {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}
    )


# Algebras whose full, derived and centre ideals the tests cover
IDEAL_ALGEBRAS = {
    "n4": LieAlgebra.make(4, ("x1", "x2", "x3", "x4"), {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)}),
    "n5": LieAlgebra.make(
        5, ("x1", "x2", "x3", "x4", "x5"),
        {(0, 1): (0, 0, 1, 0, 0), (0, 2): (0, 0, 0, 1, 0), (0, 3): (0, 0, 0, 0, 1)},
    ),
    # basis e11, e12, e21, e22
    "gl2": LieAlgebra.make(
        4, ("a", "b", "c", "d"),
        {(0, 1): (0, 1, 0, 0), (0, 2): (0, 0, -1, 0), (1, 2): (1, 0, 0, -1), (1, 3): (0, 1, 0, 0),
         (2, 3): (0, 0, -1, 0)},
    ),
    "r3(1/2)": LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 1, 0), (0, 2): (0, 0, Fraction(1, 2))}),
    "so3": LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}),
    # sl2 acting on Q^2 = span(u, v): e.v = u, f.u = v, h.u = u, h.v = -v
    "sl2+Q2": LieAlgebra.make(
        5, ("e", "f", "h", "u", "v"),
        {(0, 1): (0, 0, 1, 0, 0), (0, 2): (-2, 0, 0, 0, 0), (1, 2): (0, 2, 0, 0, 0),
         (0, 4): (0, 0, 0, 1, 0), (1, 3): (0, 0, 0, 0, 1), (2, 3): (0, 0, 0, 1, 0), (2, 4): (0, 0, 0, 0, -1)},
    ),
}


def ideals(algebra):
    """The full, derived and centre ideals that are nonzero, each space once."""
    out = {}
    for kind, space in (
        ("full", Subspace.full(algebra.dim)),
        ("derived", algebra.derived_algebra.space),
        ("centre", center(algebra).space),
    ):
        if space.dim and space not in out.values():
            out[kind] = space
    return out


def _inverse(columns):
    """The inverse of the square matrix with the given columns, as a Matrix."""
    n = len(columns)
    rows = [tuple(columns[k][r] for k in range(n)) + tuple(int(r == c) for c in range(n)) for r in range(n)]
    reduced, pivots = rref(Matrix.from_rows(rows))
    assert pivots == tuple(range(n)), "change of basis is not invertible"
    return Matrix.from_rows([row[n:] for row in reduced.entries])


def rebased(pair, columns):
    """The same pair in the algebra basis whose k-th vector is columns[k] in the old basis."""
    a = pair.algebra
    to_new = LinearMap.from_matrix(_inverse(columns)).apply
    brackets = {
        (i, j): to_new(a.bracket_vectors(columns[i], columns[j]))
        for i in range(a.dim)
        for j in range(i + 1, a.dim)
    }
    algebra = LieAlgebra.make(a.dim, a.basis_names, brackets)
    return make_pair(algebra, [to_new(v) for v in pair.ideal.space.basis])
