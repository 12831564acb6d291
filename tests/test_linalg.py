"""Exact linear algebra: frozen examples plus structural properties."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st
from oracles import (
    combine,
    dense_grid,
    dense_kernel,
    dense_matmul,
    dense_quotient_with_section,
    dense_rref,
    dense_solve,
    dense_span,
    dense_span_intersect,
)

from tensoralg.linalg import (
    LinalgError,
    LinearMap,
    Subspace,
    as_vector,
    from_support,
    kernel,
    parse_scalar,
    quotient_maps,
    span_intersect,
    subspace_maps,
    support,
)


def _map(rows, cols: int) -> LinearMap:
    """The map whose matrix has the given rows and cols columns."""
    return LinearMap.from_columns(len(rows), [[row[j] for row in rows] for j in range(cols)])


def _identity(n: int) -> LinearMap:
    return LinearMap.from_columns(n, [{j: 1} for j in range(n)])


def _grid(f: LinearMap):
    """The matrix of f as a grid of Fractions, read column by column through column_entries."""
    columns = [from_support(f.column_entries(k), f.codomain_dim) for k in range(f.domain_dim)]
    return dense_grid(f.codomain_dim, columns)


def test_parse_scalar_literals():
    assert parse_scalar("-3/2") == Fraction(-3, 2)
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("0") == 0


@pytest.mark.parametrize("bad", ["1.5", "3/0", "a", "1/-2", "", "2/"])
def test_parse_scalar_rejects_non_rationals(bad):
    with pytest.raises(LinalgError):
        parse_scalar(bad)


def test_rref_zero_matrix():
    space = Subspace.from_vectors(2, [[0, 0], [0, 0]])
    assert space.basis == ()
    assert space.pivots() == ()


def test_rref_rank_one():
    space = Subspace.from_vectors(2, [[2, 4], [1, 2]])
    assert space.basis == ((1, 2),)
    assert space.pivots() == (0,)


def test_rref_full_rank():
    space = Subspace.from_vectors(2, [[1, 1], [1, -1]])
    assert space.basis == ((1, 0), (0, 1))
    assert space.pivots() == (0, 1)


def test_rref_fractional_entries():
    space = Subspace.from_vectors(2, [["1/2", "1/3"], ["1/4", "1/6"]])
    assert space.basis == ((1, Fraction(2, 3)),)
    assert space.pivots() == (0,)


def test_kernel_of_rank_one_map():
    ker = kernel(_map([[1, 2]], 2))
    assert ker == Subspace.from_vectors(2, [[-2, 1]])
    assert ker.dim == 1


def test_kernel_of_injective_map_is_zero():
    ker = kernel(_identity(3))
    assert ker.dim == 0


def test_span_intersect_planes():
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
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
    # A hand-built basis goes through Subspace.from_basis, which checks it.
    for basis, message in [
        (((Fraction(2), Fraction(0)),), "reduced echelon form"),  # pivot entry not 1
        (((0, 1), (1, 0)), "reduced echelon form"),  # pivots out of order
        (((1, 1), (0, 1)), "reduced echelon form"),  # pivot column not cleared
        (((0, 0),), "zero vector"),
        (((1, 0, 0),), "wrong length"),
    ]:
        with pytest.raises(LinalgError, match=message):
            Subspace.from_basis(2, basis)


def test_subspace_from_a_canonical_basis_is_its_span():
    basis = ((1, 0, "1/2"), (0, 1, -3))
    space = Subspace.from_basis(3, basis)
    assert space == Subspace.from_vectors(3, [(2, 0, 1), (2, 2, -5)])
    assert space.basis == ((1, 0, Fraction(1, 2)), (0, 1, -3))
    assert all(type(a) is Fraction for v in space.basis for a in v)
    assert space.entries == (((0, 1), (2, Fraction(1, 2))), ((1, 1), (2, -3)))
    assert Subspace.from_basis(2, ()) == Subspace.zero(2)
    assert Subspace.from_basis(2, ((1, 0), (0, 1))) == Subspace.full(2)


def _representatives(section):
    """The section's columns, the coset representatives, as Fraction vectors."""
    return tuple(from_support(section.column_entries(k), section.codomain_dim) for k in range(section.domain_dim))


def test_quotient_maps_line_in_plane():
    r = Subspace.from_vectors(2, [[1, 1]])
    proj, section = quotient_maps(2, r)
    assert proj.codomain_dim == 1
    assert proj.apply([1, 1]) == (0,)
    assert proj.apply(_representatives(section)[0]) == (1,)
    # The section lands at the free coordinate, here the second one.
    assert _representatives(section) == ((0, 1),)
    assert section.column_entries(0) == ((1, 1),)


def test_quotient_maps_zero_subspace():
    proj, section = quotient_maps(2, Subspace.zero(2))
    assert proj.apply([5, 7]) == (5, 7)
    assert section.domain_dim == 2


def test_quotient_maps_full_subspace():
    proj, section = quotient_maps(2, Subspace.full(2))
    assert proj.codomain_dim == 0
    assert _representatives(section) == ()
    assert proj.apply([1, 2]) == ()


def test_linear_map_image_and_compose():
    f = _map([[1, 0], [1, 0]], 2)
    assert f.image() == Subspace.from_vectors(2, [[1, 1]])
    g = _map([[2, 0], [0, 2]], 2)
    assert g.compose(f).apply([1, 0]) == (2, 2)


def test_dimension_mismatches_rejected():
    with pytest.raises(LinalgError):
        span_intersect(Subspace.zero(2), Subspace.zero(3))
    with pytest.raises(LinalgError):
        _identity(2).apply([1, 2, 3])
    with pytest.raises(LinalgError):
        Subspace.from_vectors(2, [[1, 2, 3]])


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


def _matrices(max_dim: int = 4):
    """(cols, rows): at least one row of cols rationals."""
    return st.integers(1, max_dim).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(st.lists(small_fractions, min_size=c, max_size=c).map(tuple), min_size=1, max_size=max_dim),
        )
    )


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_rref_is_idempotent(m):
    cols, rows = m
    space = Subspace.from_vectors(cols, rows)
    again = Subspace.from_vectors(cols, space.basis)
    assert again.basis == space.basis
    assert again.pivots() == space.pivots()


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_rank_nullity(m):
    f = _map(m[1], m[0])
    assert f.image().dim + kernel(f).dim == f.domain_dim


@settings(max_examples=40, deadline=None)
@given(_matrices(), _matrices())
def test_sum_intersect_dimension_formula(m1, m2):
    ambient, rows = m1
    padded = [
        tuple(list(row[:ambient]) + [Fraction(0)] * max(0, ambient - len(row)))
        for row in m2[1]
    ]
    a = Subspace.from_vectors(ambient, rows)
    b = Subspace.from_vectors(ambient, padded)
    total = Subspace.from_vectors(ambient, a.basis + b.basis)
    assert total.dim + span_intersect(a, b).dim == a.dim + b.dim


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_quotient_projection_properties(m):
    ambient, rows = m
    r = Subspace.from_vectors(ambient, rows)
    proj, section = quotient_maps(ambient, r)
    assert proj.codomain_dim == ambient - r.dim
    for row in r.basis:
        assert proj.apply(row) == (Fraction(0),) * proj.codomain_dim
    for t, s in enumerate(_representatives(section)):
        image = proj.apply(s)
        assert image == tuple(Fraction(1 if k == t else 0) for k in range(proj.codomain_dim))


@settings(max_examples=30, deadline=None)
@given(_matrices(), st.lists(small_fractions, min_size=1, max_size=4))
def test_linear_map_apply_is_linear(m, coeffs):
    cols, rows = m
    v = as_vector((coeffs * cols)[:cols])
    w = as_vector(([Fraction(1, 2)] * cols))
    c = Fraction(3, 2)
    f = _map(rows, cols)
    assert f.apply(tuple(a + b for a, b in zip(v, w))) == tuple(a + b for a, b in zip(f.apply(v), f.apply(w)))
    assert f.apply(tuple(c * a for a in v)) == tuple(c * a for a in f.apply(v))


def _sparse_vectors(n: int):
    # Mostly zeros, so the sparse path skips most coordinates.
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
    return st.lists(entry, min_size=n, max_size=n).map(as_vector)


@settings(max_examples=60, deadline=None)
@given(_matrices(max_dim=6).flatmap(lambda m: st.tuples(st.just(m), _sparse_vectors(m[0]))))
def test_linear_map_apply_matches_dense_row_sum(case):
    (cols, rows), v = case
    dense = tuple(sum((row[j] * v[j] for j in range(cols)), Fraction(0)) for row in rows)
    f = _map(rows, cols)
    out = f.apply(v)
    assert out == dense
    assert all(isinstance(a, Fraction) for a in out)
    assert f.apply_entries({k: a for k, a in enumerate(v) if a}) == {k: a for k, a in enumerate(dense) if a}


@settings(max_examples=40, deadline=None)
@given(_matrices(max_dim=5))
def test_linear_map_column_is_image_of_unit_vector(m):
    f = _map(m[1], m[0])
    for k in range(f.domain_dim):
        unit = tuple(Fraction(1 if j == k else 0) for j in range(f.domain_dim))
        assert from_support(f.column_entries(k), f.codomain_dim) == f.apply(unit)
        assert f.column_entries(k) == tuple(support(f.apply(unit)))
    with pytest.raises(LinalgError):
        f.column_entries(f.domain_dim)


# Differential test against the dense elimination kept in tests/oracles.py.

_nonzero_fractions = small_fractions.filter(lambda a: a != 0)


@st.composite
def _row_lists(draw, cols: int):
    """Rows of width cols: rational, zero, mostly zero, and repeats of earlier rows up to a scalar."""
    mostly_zero = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["rational", "mostly-zero", "zero", "repeat"]))
        if kind == "repeat" and rows:
            c = draw(_nonzero_fractions)
            rows.append(tuple(c * a for a in draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append((Fraction(0),) * cols)
        else:
            entry = small_fractions if kind == "rational" else mostly_zero
            rows.append(tuple(draw(st.lists(entry, min_size=cols, max_size=cols))))
    return rows


_shapes = st.integers(0, 12).flatmap(lambda c: st.tuples(st.just(c), _row_lists(c), _row_lists(c)))


def _assert_integer_rows_match(space: Subspace):
    """The echelon rows are primitive, lead with a positive pivot, and scale to the RREF basis."""
    rows = space.echelon().rows
    assert tuple(sorted(rows)) == space.pivots()
    for (p, row), vector in zip(sorted(rows.items()), space.basis):
        assert min(row) == p and row[p] > 0
        assert all(isinstance(x, int) and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert {k: Fraction(x, row[p]) for k, x in row.items()} == {k: a for k, a in enumerate(vector) if a}


@seed(1968)
@settings(max_examples=100, deadline=None)
@given(_shapes)
def test_sparse_elimination_matches_dense_reference(case):
    cols, rows, other = case
    reduced, pivots = dense_rref(rows, cols)
    space = Subspace.from_vectors(cols, rows)
    assert space.basis == dense_span(cols, rows) == reduced[: len(pivots)]
    assert space.pivots() == pivots
    assert Subspace.from_vectors(cols, [{k: a for k, a in enumerate(r) if a} for r in rows]) == space
    _assert_integer_rows_match(space)
    f = _map(rows, cols)
    ker = kernel(f)
    assert ker.basis == dense_kernel(rows, cols)
    _assert_integer_rows_match(ker)
    assert f.compose(_identity(cols)) == f
    assert _grid(f.compose(LinearMap.from_columns(cols, ker.basis))) == ((Fraction(0),) * ker.dim,) * len(rows)
    proj, section = quotient_maps(cols, space)
    representatives = _representatives(section)
    assert (_grid(proj), representatives) == dense_quotient_with_section(cols, space.basis)
    b = Subspace.from_vectors(cols, other)
    meet = span_intersect(space, b)
    assert meet.basis == dense_span_intersect(cols, space.basis, b.basis)
    read, inclusion = subspace_maps(space)
    coordinates = []
    for v in other + rows:
        inside = space.contains(v)
        assert inside == (dense_span(cols, space.basis + (v,)) == space.basis)
        if inside:
            coords = read.apply(v)
            assert combine(coords, space.basis, cols) == v
            assert dense_solve(space.basis, v) == coords
            assert read.apply({k: a for k, a in enumerate(v) if a}) == coords
            coordinates.append(coords)
    assert _grid(inclusion) == dense_grid(cols, space.basis)
    assert read.compose(inclusion) == _identity(space.dim)
    public = space.basis + ker.basis + meet.basis + representatives + tuple(coordinates)
    assert all(isinstance(a, Fraction) for v in public for a in v)


# A Subspace keeps only its Gauss-Jordan rows; its sparse view, its Fraction
# basis and the quotient maps are read off them and must match the dense
# references, and a span rebuilt from its basis by hand must be the same set.


@seed(1989)
@settings(max_examples=50, deadline=None)
@given(_shapes)
def test_sparse_views_match_the_dense_basis(case):
    cols, rows, other = case
    space = Subspace.from_vectors(cols, rows)
    assert "basis" not in vars(space)
    dense = dense_span(cols, rows)
    assert space.entries == tuple(tuple(support(v)) for v in dense)
    assert all(type(a) is int or a.denominator != 1 for v in space.entries for _, a in v)
    assert space.basis == dense
    proj, section = quotient_maps(cols, space)
    dense_section = _representatives(section)
    assert tuple(tuple(support(v)) for v in dense_section) == section._columns
    assert (_grid(proj), dense_section) == dense_quotient_with_section(cols, dense)
    by_hand = Subspace.from_basis(cols, dense)
    assert by_hand == space and hash(by_hand) == hash(space)
    assert by_hand.entries == space.entries and by_hand.pivots() == space.pivots()
    b = Subspace.from_vectors(cols, other)
    assert (b == space) == (b.basis == space.basis)
    assert (b == space) == (Subspace.from_basis(cols, b.basis) == by_hand)
    if b == space:
        assert hash(b) == hash(by_hand)


# LinearMap keeps only its column supports; the grid read off them must be the
# grid of the dense references.


@st.composite
def _columns(draw, rows: int, cols: int):
    mostly_zero = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
    return [tuple(draw(st.lists(mostly_zero, min_size=rows, max_size=rows))) for _ in range(cols)]


_chain = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda d: st.tuples(st.just(d), _columns(d[0], d[1]), _columns(d[1], d[2]))
)


@seed(1870)
@settings(max_examples=80, deadline=None)
@given(_chain)
def test_map_matrices_match_the_dense_grids(case):
    (n, m, k), outer_columns, inner_columns = case
    f = LinearMap.from_columns(n, outer_columns)
    g = LinearMap.from_columns(m, [{r: a for r, a in enumerate(c) if a} for c in inner_columns])
    outer, inner = dense_grid(n, outer_columns), dense_grid(m, inner_columns)
    assert (f.codomain_dim, f.domain_dim, _grid(f)) == (n, m, outer)
    assert (g.codomain_dim, g.domain_dim, _grid(g)) == (m, k, inner)
    assert _grid(f.compose(g)) == dense_matmul(outer, inner, m, k)
    for h in (f, g, f.compose(g)):
        # a map read from the dense columns of its own grid is the same map
        grid = _grid(h)
        again = LinearMap.from_columns(h.codomain_dim, [[row[j] for row in grid] for j in range(h.domain_dim)])
        assert again == h and hash(again) == hash(h)
    space = Subspace.from_vectors(n, outer_columns)
    proj, section = quotient_maps(n, space)
    assert (_grid(proj), _representatives(section)) == dense_quotient_with_section(n, space.basis)


def test_map_from_a_matrix_equals_the_map_from_its_columns():
    f = _map([[1, "1/2", 0], [0, 0, -3]], 3)
    g = LinearMap.from_columns(2, [{0: 1}, ["1/2", 0], (0, -3)])
    assert f == g and hash(f) == hash(g)
    assert _grid(f) == ((1, Fraction(1, 2), 0), (0, 0, -3)) and (f.domain_dim, f.codomain_dim) == (3, 2)
    assert f != LinearMap.from_columns(2, [{0: 1}, ["1/2", 0], (0, 3)])
    # zero rows and columns survive the round trip through the column supports
    empty = _map([], 2)
    assert (empty.codomain_dim, empty.domain_dim, _grid(empty)) == (0, 2, ())


def test_compose_keeps_integral_entries_as_ints():
    # 3/2 * 2/3 is an integral Fraction; the composite stores it as the int 1
    f = LinearMap.from_columns(2, [[Fraction(3, 2), Fraction(1, 2)]])
    g = LinearMap.from_columns(1, [[Fraction(2, 3)]])
    h = f.compose(g)
    assert h._columns == (((0, 1), (1, Fraction(1, 3))),)
    assert type(h._columns[0][0][1]) is int
    assert h == _map([[1], ["1/3"]], 1)


# Composing after a section or a coordinate map picks the outer map's column
# for each inner unit column; other inner columns are summed as before.


def _assert_dense_product(outer: LinearMap, inner: LinearMap) -> None:
    h = outer.compose(inner)
    dense = dense_matmul(_grid(outer), _grid(inner), inner.codomain_dim, inner.domain_dim)
    assert _grid(h) == dense
    assert all(type(a) is int or a.denominator != 1 for c in h._columns for _, a in c)
    for k, c in enumerate(inner._columns):
        if len(c) == 1 and c[0][1] == 1:
            assert h._columns[k] is outer._columns[c[0][0]]


@seed(2015)
@settings(max_examples=40, deadline=None)
@given(_shapes, st.data())
def test_compose_after_sections_and_coordinate_maps_matches_the_dense_product(case, data):
    cols, rows, _ = case
    space = Subspace.from_vectors(cols, rows)
    proj, section = quotient_maps(cols, space)
    read, inclusion = subspace_maps(space)
    n = data.draw(st.integers(0, 4))
    outer = LinearMap.from_columns(n, data.draw(_columns(n, cols)))
    for inner in (section, inclusion):
        _assert_dense_product(outer, inner)
    _assert_dense_product(LinearMap.from_columns(n, data.draw(_columns(n, proj.codomain_dim))), proj)
    _assert_dense_product(LinearMap.from_columns(n, data.draw(_columns(n, space.dim))), read)
    _assert_dense_product(read, inclusion)
    if cols:
        # a unit column, a column 2 e_j that must be summed, an empty column and a Fraction column
        j = data.draw(st.integers(0, cols - 1))
        mixed = LinearMap.from_columns(cols, [{j: 1}, {j: 2}, {}, {j: Fraction(1, 2), cols - 1: 1}])
        _assert_dense_product(outer, mixed)


def test_compose_does_not_pick_a_scaled_unit_column():
    outer = LinearMap.from_columns(2, [[1, Fraction(1, 3)], [0, 5]])
    inner = LinearMap.from_columns(2, [{0: 2}, {1: 1}, {}, {0: Fraction(3, 2)}])
    assert outer.compose(inner)._columns == (
        ((0, 2), (1, Fraction(2, 3))), ((1, 5),), (), ((0, Fraction(3, 2)), (1, Fraction(1, 2))),
    )
