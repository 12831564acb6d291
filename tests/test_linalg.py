"""Exact linear algebra: frozen examples plus structural properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import MappingProxyType

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
    Echelon,
    LinalgError,
    LinearMap,
    Subspace,
    _entries,
    _meet_dim,
    as_vector,
    from_support,
    kernel,
    parse_scalar,
    quotient_maps,
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


def test_kernel_builds_its_basis_without_a_second_elimination(monkeypatch):
    calls = []
    real = Subspace.from_vectors.__func__
    monkeypatch.setattr(Subspace, "from_vectors", classmethod(lambda cls, *args: calls.append(1) or real(cls, *args)))
    ker = kernel(_map([[1, 2, 0, 3], [0, 0, 1, 1]], 4))
    assert calls == []
    assert ker.basis == dense_kernel([[1, 2, 0, 3], [0, 0, 1, 1]], 4)


@pytest.mark.parametrize(
    "rows, cols, expected",
    [
        # the zero map: the whole domain
        ([[0, 0, 0], [0, 0, 0]], 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        # an injective map: nothing
        ([[1, 1], [0, 1], [2, 5]], 2, ()),
        # Fraction entries; the kernel's pivots 0 and 1 are not the free columns 1 and 3
        # of the usual elimination, whose pivots are 0 and 2
        ([["1/2", 0, "1/3", "2/3"], [0, 0, "3/4", "-1/4"]], 4,
         ((1, 0, Fraction(-3, 14), Fraction(-9, 14)), (0, 1, 0, 0))),
        # the one free column, 0, lies below both pivots, so v_0 takes an entry from every row
        ([[1, 0, -1], [1, -1, 0]], 3, ((1, 1, 1),)),
    ],
    ids=["zero-map", "injective", "fractions", "one-free-column"],
)
def test_kernel_edge_cases(rows, cols, expected):
    f = _map([as_vector(r) for r in rows], cols)
    ker = kernel(f)
    assert ker.basis == tuple(as_vector(v) for v in expected)
    assert ker.basis == dense_kernel([as_vector(r) for r in rows], cols)
    assert f.kills(ker) and ker.dim + f.image().dim == cols


def test_kernel_of_an_empty_domain_or_codomain():
    assert kernel(LinearMap.from_columns(3, [])) == Subspace.zero(0)
    assert kernel(LinearMap.from_columns(0, [[], [], []])) == Subspace.full(3)
    assert kernel(LinearMap.from_columns(0, [])) == Subspace.zero(0)


def test_kills_and_image_of():
    first = _map([[1, 0, 0]], 3)  # F^3 -> F, the first coordinate
    plane = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert first.kills(plane) and first.kills(Subspace.zero(3))
    assert first.image_of(plane) == Subspace.zero(1)
    line = Subspace.from_vectors(3, [[1, 1, 0]])
    assert not first.kills(line)
    assert first.image_of(line) == Subspace.full(1)


def test_kills_stops_at_the_first_row_it_does_not_kill(monkeypatch):
    calls = []
    real = LinearMap._image
    monkeypatch.setattr(LinearMap, "_image", lambda self, entries: calls.append(1) or real(self, entries))
    assert not _identity(3).kills(Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]]))
    assert len(calls) == 1
    # a unit row {k: 1} is read as column k, with no image formed
    f = LinearMap(1, ((), ((0, 2),), ()))
    assert f.kills(Subspace.from_vectors(3, [{0: 1}, {2: 5}]))
    assert not f.kills(Subspace.from_vectors(3, [{0: 1}, {1: -1}]))
    assert not _identity(3).kills(Subspace.full(3))
    assert len(calls) == 1


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
        _identity(2).apply([1, 2, 3])
    with pytest.raises(LinalgError):
        _identity(2).kills(Subspace.zero(3))
    with pytest.raises(LinalgError):
        _identity(3).image_of(Subspace.full(2))
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
    meet = len(dense_span_intersect(ambient, a.basis, b.basis))
    assert total.dim + meet == a.dim + b.dim
    # _meet_dim grows a's rows by b's, in either order, and leaves both spaces as they were
    assert _meet_dim(a, b) == _meet_dim(b, a) == meet
    assert a == Subspace.from_vectors(ambient, rows) and b == Subspace.from_vectors(ambient, padded)


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
    """The Gauss-Jordan rows are primitive, lead with a positive pivot, and scale to the RREF basis."""
    rows = space._rows
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
    meet = dense_span_intersect(cols, space.basis, b.basis)
    assert Subspace.from_vectors(cols, space.basis + b.basis).dim == space.dim + b.dim - len(meet)
    images = [tuple(sum((r[j] * v[j] for j in range(cols)), Fraction(0)) for r in rows) for v in b.basis]
    assert f.image_of(b).basis == dense_span(len(rows), images)
    assert f.kills(b) == (not any(any(w) for w in images))
    assert f.kills(ker)
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
    public = space.basis + ker.basis + representatives + tuple(coordinates)
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


# Echelon presolves unit rows: a vector with one nonzero entry goes in as the
# unit row before the others are eliminated.  The Gauss-Jordan form is unique,
# so every family below must give the rows, basis and entries of the dense
# reference, and the rows that inserting the vectors one at a time gives.


def _unit(rng, cols, scales=(1,)):
    return {rng.randrange(cols): rng.choice(scales)}


def _dense_row(rng, cols, values=(-2, -1, 1, 3, Fraction(1, 2))):
    keys = rng.sample(range(cols), rng.randint(2, cols))
    return {k: rng.choice(values) for k in keys}


def _family(kind: str, rng, cols: int) -> list[dict]:
    if kind == "units-duplicated":
        units = [_unit(rng, cols) for _ in range(cols // 2 + 1)]
        return units + [dict(u) for u in rng.sample(units, 2)]
    if kind == "scaled-units":
        return [_unit(rng, cols, (-3, Fraction(1, 2), 5, Fraction(-2, 3))) for _ in range(cols)]
    if kind == "integral-fractions":
        return [_unit(rng, cols, (Fraction(4, 2), Fraction(-6, 3))) for _ in range(2)] + [
            _dense_row(rng, cols, (Fraction(4, 2), Fraction(3, 1), -1)) for _ in range(3)
        ]
    if kind == "no-units":
        return [_dense_row(rng, cols) for _ in range(rng.randint(1, cols + 1))]
    if kind == "all-units":
        return [_unit(rng, cols, (1, -1, 7)) for _ in range(rng.randint(1, 2 * cols))]
    # unit vectors mixed with dense rows, in a random order
    vectors = [_unit(rng, cols, (1, -3, Fraction(1, 2))) for _ in range(3)] + [
        _dense_row(rng, cols) for _ in range(3)
    ]
    rng.shuffle(vectors)
    return vectors


FAMILIES = ["units-duplicated", "scaled-units", "integral-fractions", "no-units", "all-units", "mixed"]


def _one_at_a_time(cols: int, vectors) -> dict:
    basis = Echelon(cols)
    for v in vectors:
        basis.insert(v)
    return basis.subspace()._rows


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("trial", range(8))
def test_unit_row_presolve_matches_the_dense_reference(kind, trial):
    rng = random.Random(f"presolve/{kind}/{trial}")
    cols = rng.randint(3, 7)
    vectors = _family(kind, rng, cols)
    dense = [from_support(v.items(), cols) for v in vectors]
    space = Subspace.from_vectors(cols, vectors)
    reduced, pivots = dense_rref(dense, cols)
    assert space.basis == reduced[: len(pivots)]
    assert space.entries == tuple(tuple(support(v)) for v in reduced[: len(pivots)])
    assert space.pivots() == pivots
    assert list(space._rows.items()) == list(_one_at_a_time(cols, vectors).items())
    _assert_integer_rows_match(space)
    # the family as the rows of a map: kernel presolves the unit rows among them
    ker = kernel(_map(dense, cols))
    assert ker.basis == dense_kernel(dense, cols)
    assert ker.entries == tuple(tuple(support(v)) for v in ker.basis)
    _assert_integer_rows_match(ker)


def test_unit_rows_are_stored_as_unit_rows():
    space = Subspace.from_vectors(4, [{2: -3}, {0: 1, 2: 5, 3: 2}, {2: Fraction(1, 2)}, {1: Fraction(4, 2)}])
    assert space._rows == {0: {0: 1, 3: 2}, 1: {1: 1}, 2: {2: 1}}
    assert all(type(x) is int for row in space._rows.values() for x in row.values())


def test_quotient_maps_on_a_space_with_unit_rows():
    space = Subspace.from_vectors(4, [{1: 3}, {0: 1, 2: -2}])
    proj, section = quotient_maps(4, space)
    assert proj._columns == (((0, 2),), (), ((0, 1),), ((1, 1),))
    assert (_grid(proj), _representatives(section)) == dense_quotient_with_section(4, space.basis)
    assert proj.kills(space)


# _entries is the one point where a vector is read; each refusal names what is
# wrong, and the fast paths for dicts and ints refuse and read the same.
@pytest.mark.parametrize(
    "vector, width, message",
    [
        ({1: 1, 7: 1, -2: 1}, 3, "index 7 out of range for a vector of length 3"),
        ({0: 1, -1: 2}, 3, "index -1 out of range for a vector of length 3"),
        ({3: 1}, 3, "index 3 out of range for a vector of length 3"),
        (MappingProxyType({0: 1, 4: 1}), 3, "index 4 out of range for a vector of length 3"),
        ({1: 1, float("nan"): 1}, 3, "index nan is not an int"),
        ({0.5: 1}, 3, "index 0.5 is not an int"),
        ({True: 1}, 3, "index True is not an int"),
        ({0: 1, Fraction(2): 1}, 3, "index Fraction(2, 1) is not an int"),
        ({"a": 1}, 3, "index 'a' is not an int"),
        ([1, 2], 3, "expected vector of length 3, got 2"),
        ((1, 2, 3, 4), 3, "expected vector of length 3, got 4"),
        ([1, None, 0], 3, "cannot coerce None to a rational scalar"),
        ({0: 1.5}, 3, "cannot coerce 1.5 to a rational scalar"),
        ([0, "x", 0], 3, "not a rational literal: 'x'"),
    ],
    ids=[
        "first-bad-key", "negative-key", "key-at-width", "mapping", "nan-key",
        "fraction-key", "bool-key", "integral-fraction-key", "text-key",
        "short", "long", "none", "float", "text",
    ],
)
def test_entries_refusals_name_the_fault(vector, width, message):
    with pytest.raises(LinalgError) as refused:
        _entries(vector, width)
    assert str(refused.value) == message
    with pytest.raises(LinalgError) as refused:
        Subspace.from_vectors(width, [{0: 1}, vector])
    assert str(refused.value) == message


def test_entries_read_values_in_their_internal_form():
    read = _entries([True, 0, False], 3)
    assert read == {0: 1} and type(read[0]) is int
    read = _entries({2: Fraction(4, 2), 0: Fraction(1, 2), 1: 0}, 3)
    assert read == {2: 2, 0: Fraction(1, 2)} and type(read[2]) is int
    assert _entries(MappingProxyType({1: "3/6"}), 2) == {1: Fraction(1, 2)}
    assert _entries(iter(["2/1", 0]), 2) == {0: 2}
    assert type(_entries(["2/1", 0], 2)[0]) is int
