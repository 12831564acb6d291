"""Lie algebra core: structure validation, quotients, sums, derived subspaces."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st
from oracles import dense_bracket, dense_is_ideal, dense_jacobi_violation

from tensoralg.liealg import (
    AlgebraHom,
    AlgebraSubspace,
    LieAlgebra,
    NotAnIdealError,
    StructureError,
    abelianization,
    bracket_subspaces,
    center,
    direct_sum,
    quotient_algebra,
    validate_structure,
)
from tensoralg.linalg import LinalgError, LinearMap, Matrix, Subspace, support


def nonabelian2() -> LieAlgebra:
    # [x, y] = y, the unique nonabelian two-dimensional algebra.
    return LieAlgebra.make(2, ("x", "y"), {(0, 1): [0, 1]})


def heisenberg1() -> LieAlgebra:
    # [x, y] = z, all other brackets zero.
    return LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): [0, 0, 1]})


def _full_table(entries, dim):
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in entries.items():
        for k, a in enumerate(v):
            table[i][j][k] = a
    return table


def test_validate_structure_accepts_heisenberg():
    table = _full_table({(0, 1): [0, 0, 1], (1, 0): [0, 0, -1]}, 3)
    assert validate_structure(3, table) is None


def test_validate_structure_flags_symmetric_table():
    table = _full_table({(0, 1): [1, 0], (1, 0): [1, 0]}, 2)
    violation = validate_structure(2, table)
    assert violation is not None
    assert violation.kind == "antisymmetry"
    assert violation.indices == (0, 1, 0)
    assert violation.residual == 2


def test_validate_structure_flags_jacobi_failure():
    # [x,y] = z and [x,z] = x leave [y,[z,x]] = z unbalanced.
    table = _full_table(
        {
            (0, 1): [0, 0, 1],
            (1, 0): [0, 0, -1],
            (0, 2): [1, 0, 0],
            (2, 0): [-1, 0, 0],
        },
        3,
    )
    violation = validate_structure(3, table)
    assert violation is not None
    assert violation.kind == "jacobi"
    assert violation.indices == (0, 1, 2, 2)
    assert violation.residual == 1


def test_make_rejects_jacobi_violation():
    with pytest.raises(StructureError):
        LieAlgebra.make(
            3,
            ("x", "y", "z"),
            {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]},
        )


# make is the one constructor that checks a bracket table; the positional
# constructor takes trusted supports and checks only the dimension and names.


@pytest.mark.parametrize("key", [(1, 0), (0, 3)])
def test_make_rejects_index_pairs_outside_the_upper_triangle(key):
    with pytest.raises(LinalgError, match=r"bracket index pair must satisfy 0 <= i < j < dim"):
        LieAlgebra.make(3, ("x", "y", "z"), {key: {2: 1}})


@pytest.mark.parametrize("vector", [(0, 1), (0, 0, 1, 0), {3: 1}, {-1: 1}], ids=["short", "long", "index 3", "index -1"])
def test_make_rejects_malformed_bracket_vectors(vector):
    with pytest.raises(LinalgError):
        LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): vector})


def test_make_drops_zero_brackets():
    a = LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 0), (0, 2): {1: 0}, (1, 2): ["0", "0/1", "0"]})
    assert a.is_abelian()
    assert a == LieAlgebra.abelian(3, ("x", "y", "z"))
    assert a.brackets == ()


def test_make_stores_a_canonical_table():
    # keys and entries come in any order, scalars in any exact form
    a = LieAlgebra.make(3, ("x", "y", "z"), {(1, 2): {2: Fraction(4, 2), 0: "1/2"}, (0, 1): (0, 0, 1)})
    b = LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): {2: 1}, (1, 2): (Fraction(1, 2), 0, 2)})
    assert a._brackets == b._brackets == (((0, 1), ((2, 1),)), ((1, 2), ((0, Fraction(1, 2)), (2, 2))))
    assert a == b and hash(a) == hash(b)
    assert [type(c) for _, entries in a._brackets for _, c in entries] == [int, Fraction, int]
    assert a.brackets == (((0, 1), (0, 0, 1)), ((1, 2), (Fraction(1, 2), 0, 2)))


@pytest.mark.parametrize(
    "dim,names,message",
    [(2, ("x", "x"), "duplicate basis names"), (3, ("x", "y"), "name count"), (-1, (), "negative dimension")],
)
def test_positional_constructor_checks_dimension_and_names(dim, names, message):
    with pytest.raises(LinalgError, match=message):
        LieAlgebra(dim, names, ())


def test_bracket_vectors_bilinear_expansion():
    a = nonabelian2()
    assert a.bracket_vectors([1, 0], [0, 1]) == (0, 1)
    assert a.bracket_vectors([0, 1], [1, 0]) == (0, -1)
    assert a.bracket_vectors([1, 1], [1, 1]) == (0, 0)
    assert a.bracket_vectors([2, 0], [0, Fraction(1, 2)]) == (0, 1)


def test_center_of_heisenberg_is_the_line_z():
    z = center(heisenberg1())
    assert z.space == Subspace.from_vectors(3, [[0, 0, 1]])


def test_center_of_nonabelian2_is_zero():
    assert center(nonabelian2()).dim == 0


def test_center_of_abelian_is_everything():
    assert center(LieAlgebra.abelian(3)).dim == 3


def test_bracket_subspaces_center_against_whole():
    h = heisenberg1()
    z = center(h)
    full = AlgebraSubspace.full(h)
    assert bracket_subspaces(h, z, full).dim == 0
    assert bracket_subspaces(h, full, full).space == Subspace.from_vectors(3, [[0, 0, 1]])


def test_quotient_of_heisenberg_by_center_is_abelian_plane():
    h = heisenberg1()
    q, proj = quotient_algebra(h, center(h))
    assert q.dim == 2
    assert q.is_abelian()
    assert proj.apply([0, 0, 1]) == (0, 0)


def test_quotient_rejects_non_ideal():
    h = heisenberg1()
    line_x = AlgebraSubspace.from_vectors(h, [[1, 0, 0]])
    with pytest.raises(NotAnIdealError) as caught:
        quotient_algebra(h, line_x)
    # the message and witness of the one ideal check, which make_pair shares
    assert str(caught.value) == "bracket of basis element 1 leaves the span"
    assert caught.value.witness == (1, (1, 0, 0))


def test_direct_sum_structure_and_center():
    s = direct_sum(heisenberg1(), heisenberg1())
    assert s.dim == 6
    assert s.bracket_vectors([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]) == (0, 0, 1, 0, 0, 0)
    assert s.bracket_vectors([1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]) == (0,) * 6
    zs = center(s)
    assert zs.space == Subspace.from_vectors(6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]])


def test_abelianization_dimensions():
    for algebra, expected in [
        (nonabelian2(), 1),
        (heisenberg1(), 2),
        (LieAlgebra.abelian(4), 4),
    ]:
        ab, _ = abelianization(algebra)
        assert ab.dim == expected
        assert ab.is_abelian()
        derived = bracket_subspaces(algebra, AlgebraSubspace.full(algebra), AlgebraSubspace.full(algebra))
        assert ab.dim == algebra.dim - derived.dim


def test_algebra_hom_rejects_non_homomorphism():
    h = heisenberg1()
    ab = LieAlgebra.abelian(3)
    identity = LinearMap.from_matrix(Matrix.identity(3))
    with pytest.raises(LinalgError) as caught:
        AlgebraHom.make(h, ab, identity)
    assert str(caught.value) == "map does not respect the bracket of basis pair (0, 1)"
    # the positional constructor is trusted by contract and checks the shape only
    assert AlgebraHom(h, ab, identity).map is identity
    with pytest.raises(LinalgError):
        AlgebraHom(h, LieAlgebra.abelian(2), identity)


def test_quotient_projection_is_a_hom():
    q, proj = quotient_algebra(nonabelian2(), AlgebraSubspace.from_vectors(nonabelian2(), [[0, 1]]))
    assert isinstance(proj, AlgebraHom)
    assert AlgebraHom.make(proj.source, proj.target, proj.map) == proj
    assert q.dim == 1 and q.is_abelian()


# ---------------------------------------------------------------- dense reference


@st.composite
def _cases(draw):
    """(dim, brackets, vectors) with small integer entries, brackets[(i, j)] for i < j.

    Unrestricted tables mostly break Jacobi.  Two-step tables put every
    bracket into the span of trailing basis vectors that bracket with
    nothing, which always satisfies it.  The vectors are read in pairs as
    bracket arguments and together as the span of a subspace.
    """
    dim = draw(st.integers(1, 5))
    two_step = draw(st.booleans())
    cut = draw(st.integers(1, dim)) if two_step else dim
    brackets = {}
    for i in range(cut):
        for j in range(i + 1, cut):
            if draw(st.booleans()):
                v = [draw(st.integers(-2, 2)) if k >= cut or not two_step else 0 for k in range(dim)]
                if any(v):
                    brackets[(i, j)] = tuple(Fraction(a) for a in v)
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=dim))
    return dim, brackets, vectors


def _both_orders(brackets):
    out = dict(brackets)
    out.update({(j, i): tuple(-c for c in v) for (i, j), v in brackets.items()})
    return out


@seed(1502)
@settings(max_examples=150, deadline=None)
@given(case=_cases())
# only [e_2, e_0] = -e_3 is nonzero at the first failing triple (0, 1, 2)
@example(case=(4, {(0, 2): (0, 0, 0, 1), (1, 3): (1, 0, 0, 0)}, [[0, 1, 0, 0]]))
def test_sparse_core_matches_dense_reference(case):
    dim, brackets, vectors = case
    # built positionally: the table is taken as trusted supports, unchecked
    supports = tuple((ij, tuple(support(v))) for ij, v in sorted(brackets.items()))
    a = LieAlgebra(dim, tuple(f"x{k}" for k in range(dim)), supports)
    expected = dense_jacobi_violation(dim, brackets)
    for found in (a.jacobi_violation(), validate_structure(dim, _full_table(_both_orders(brackets), dim))):
        if expected is None:
            assert found is None
        else:
            assert (found.kind, found.indices, found.residual) == ("jacobi", *expected)
    for x, y in zip(vectors, vectors[1:]):
        assert a.bracket_vectors(x, y) == dense_bracket(dim, brackets, x, y)
    full = AlgebraSubspace.full(a)
    for s in (AlgebraSubspace.from_vectors(a, vectors), full, bracket_subspaces(a, full, full)):
        assert s.is_ideal() == dense_is_ideal(dim, brackets, s.basis())
