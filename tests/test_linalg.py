"""Exact linear algebra: frozen examples plus structural properties."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tensoralg.linalg import (
    LinalgError,
    LinearMap,
    Matrix,
    Subspace,
    as_vector,
    format_scalar,
    kernel,
    parse_scalar,
    quotient_with_section,
    rref,
    span_intersect,
    span_sum,
    vadd,
    vscale,
    zero_vector,
)


def test_parse_scalar_literals():
    assert parse_scalar("-3/2") == Fraction(-3, 2)
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("0") == 0
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_scalar(Fraction(6, 4)) == "3/2"
    assert format_scalar(Fraction(5)) == "5"


@pytest.mark.parametrize("bad", ["1.5", "3/0", "a", "1/-2", "", "2/"])
def test_parse_scalar_rejects_non_rationals(bad):
    with pytest.raises(LinalgError):
        parse_scalar(bad)


def test_rref_zero_matrix():
    reduced, pivots = rref(Matrix.from_rows([[0, 0], [0, 0]]))
    assert reduced.entries == ((0, 0), (0, 0))
    assert pivots == ()


def test_rref_rank_one():
    reduced, pivots = rref(Matrix.from_rows([[2, 4], [1, 2]]))
    assert reduced.entries == ((1, 2), (0, 0))
    assert pivots == (0,)


def test_rref_full_rank():
    reduced, pivots = rref(Matrix.from_rows([[1, 1], [1, -1]]))
    assert reduced.entries == ((1, 0), (0, 1))
    assert pivots == (0, 1)


def test_rref_fractional_entries():
    reduced, pivots = rref(Matrix.from_rows([["1/2", "1/3"], ["1/4", "1/6"]]))
    assert reduced.entries == ((1, Fraction(2, 3)), (0, 0))
    assert pivots == (0,)


def test_kernel_of_rank_one_map():
    ker = kernel(LinearMap(Matrix.from_rows([[1, 2]])))
    assert ker == Subspace.from_vectors(2, [[-2, 1]])
    assert ker.dim == 1


def test_kernel_of_injective_map_is_zero():
    ker = kernel(LinearMap(Matrix.identity(3)))
    assert ker.dim == 0


def test_span_sum_and_intersect_planes():
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert span_sum(a, b) == Subspace.full(3)
    assert span_intersect(a, b) == Subspace.from_vectors(3, [[0, 1, 0]])


def test_span_intersect_trivial():
    a = Subspace.from_vectors(2, [[1, 0]])
    b = Subspace.from_vectors(2, [[0, 1]])
    assert span_intersect(a, b).dim == 0


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(2, [[2, 4]])
    b = Subspace.from_vectors(2, [[1, 2]])
    assert a == b
    assert a.contains([3, 6])
    assert not a.contains([1, 0])


def test_subspace_rejects_non_canonical_basis():
    with pytest.raises(LinalgError):
        Subspace(2, ((Fraction(2), Fraction(0)),))


def test_quotient_with_section_line_in_plane():
    r = Subspace.from_vectors(2, [[1, 1]])
    proj, section = quotient_with_section(2, r)
    assert proj.codomain_dim == 1
    assert proj.apply([1, 1]) == (0,)
    assert proj.apply(section[0]) == (1,)
    # The section lands at the free coordinate, here the second one.
    assert section == ((0, 1),)


def test_quotient_with_section_zero_subspace():
    proj, section = quotient_with_section(2, Subspace.zero(2))
    assert proj.apply([5, 7]) == (5, 7)
    assert len(section) == 2


def test_quotient_with_section_full_subspace():
    proj, section = quotient_with_section(2, Subspace.full(2))
    assert proj.codomain_dim == 0
    assert section == ()
    assert proj.apply([1, 2]) == ()


def test_linear_map_image_and_compose():
    f = LinearMap(Matrix.from_rows([[1, 0], [1, 0]]))
    assert f.image() == Subspace.from_vectors(2, [[1, 1]])
    g = LinearMap(Matrix.from_rows([[2, 0], [0, 2]]))
    assert g.compose(f).apply([1, 0]) == (2, 2)


def test_dimension_mismatches_rejected():
    with pytest.raises(LinalgError):
        span_sum(Subspace.zero(2), Subspace.zero(3))
    with pytest.raises(LinalgError):
        LinearMap(Matrix.identity(2)).apply([1, 2, 3])
    with pytest.raises(LinalgError):
        Subspace.from_vectors(2, [[1, 2, 3]])


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


def _matrices(max_dim: int = 4):
    return st.integers(1, max_dim).flatmap(
        lambda c: st.lists(
            st.lists(small_fractions, min_size=c, max_size=c), min_size=1, max_size=max_dim
        ).map(lambda rows: Matrix.from_rows(rows))
    )


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_rref_is_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_rank_nullity(m):
    f = LinearMap(m)
    assert f.image().dim + kernel(f).dim == f.domain_dim


@settings(max_examples=40, deadline=None)
@given(_matrices(), _matrices())
def test_sum_intersect_dimension_formula(m1, m2):
    ambient = m1.cols
    padded = [
        tuple(list(row[:ambient]) + [Fraction(0)] * max(0, ambient - len(row)))
        for row in m2.entries
    ]
    a = Subspace.from_vectors(ambient, m1.entries)
    b = Subspace.from_vectors(ambient, padded)
    assert span_sum(a, b).dim + span_intersect(a, b).dim == a.dim + b.dim


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_quotient_projection_properties(m):
    ambient = m.cols
    r = Subspace.from_vectors(ambient, m.entries)
    proj, section = quotient_with_section(ambient, r)
    assert proj.codomain_dim == ambient - r.dim
    for row in r.basis:
        assert proj.apply(row) == zero_vector(proj.codomain_dim)
    for t, s in enumerate(section):
        image = proj.apply(s)
        assert image == tuple(Fraction(1 if k == t else 0) for k in range(proj.codomain_dim))


@settings(max_examples=30, deadline=None)
@given(_matrices(), st.lists(small_fractions, min_size=1, max_size=4))
def test_matrix_apply_is_linear(m, coeffs):
    v = as_vector((coeffs * m.cols)[: m.cols])
    w = as_vector(([Fraction(1, 2)] * m.cols))
    f = LinearMap(m)
    assert f.apply(vadd(v, w)) == vadd(f.apply(v), f.apply(w))
    assert f.apply(vscale(Fraction(3, 2), v)) == vscale(Fraction(3, 2), f.apply(v))


def _sparse_vectors(n: int):
    # Mostly zeros, so the sparse path skips most coordinates.
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
    return st.lists(entry, min_size=n, max_size=n).map(as_vector)


@settings(max_examples=60, deadline=None)
@given(_matrices(max_dim=6).flatmap(lambda m: st.tuples(st.just(m), _sparse_vectors(m.cols))))
def test_matrix_apply_matches_dense_row_sum(case):
    m, v = case
    dense = tuple(sum((row[j] * v[j] for j in range(m.cols)), Fraction(0)) for row in m.entries)
    out = m.apply(v)
    assert out == dense
    assert all(isinstance(a, Fraction) for a in out)
