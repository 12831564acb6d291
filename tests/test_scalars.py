"""Scalars stay exact: Fractions at the public edge, ints or Fractions inside.

Internally a scalar is an int when it is integral and a Fraction only when it
has a denominator, so the sparse loops run on ints.  Every value a caller can
read (brackets, bases, map matrices, images, action tables and violation
residuals) must still be a Fraction, and no float may appear anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from tensoralg.catalog import catalog_pairs, load_path
from tensoralg.liealg import LieAlgebra, StructureError, abelianization, direct_sum, quotient_algebra, validate_structure
from tensoralg.linalg import LinearMap, Subspace
from tensoralg.pairs import ActionData, Pair, make_pair, quotient_pair, validate_action, validate_compatible
from tensoralg.tensor import construct_tensor, kappa_maps

# r3(1/2): [x, y] = y, [x, z] = z/2, with its full and derived ideals
R3_HALF = {"name": "r3(1/2)", "dim": 3, "basis": ["x", "y", "z"],
           "brackets": {"x,y": {"y": "1"}, "x,z": {"z": "1/2"}}}


def _documents(tmp_path):
    out = []
    for label, ideal in (("full", "all"), ("derived", [["0", "1", "0"], ["0", "0", "1"]])):
        path = tmp_path / f"r3-{label}.json"
        path.write_text(json.dumps({"algebra": R3_HALF, "ideal": ideal}))
        out.append((f"r3(1/2) {label}", load_path(str(path))))
    return out


def _half_central():
    """[a, b] = u + v with u, v, c central, and the ideal spanned by u + c/2 and v + c/2.

    In L/N both u and v project to -c/2, so [a, b] projects to a sum of two
    Fractions that is integral."""
    algebra = LieAlgebra.make(5, ("a", "b", "u", "v", "c"), {(0, 1): {2: 1, 3: 1}})
    return "half-central", make_pair(algebra, [{2: 1, 4: "1/2"}, {3: 1, 4: "1/2"}])


def _algebras(pair: Pair, t, maps):
    """The algebras of a pair, its tensor and exterior products, its quotient pair, L/N, its abelianization and a sum.

    Only the pair's algebra and the tensor product pass through ``LieAlgebra.make``."""
    quotient = quotient_pair(pair).pair
    return (
        pair.algebra, pair.ideal_algebra, t.algebra, maps.exterior, quotient.algebra, quotient.ideal_algebra,
        quotient_algebra(pair.algebra, pair.ideal)[0], abelianization(pair.algebra)[0],
        direct_sum(pair.ideal_algebra, pair.algebra),
    )


def _public_vectors(pair: Pair):
    """Every public vector of a pair, its tensor product and the derived maps."""
    t = construct_tensor(pair)
    maps = kappa_maps(t)
    algebras = _algebras(pair, t, maps)
    linear = (t.projection, t.section, maps.kappa, maps.eps, maps.kappa_prime)
    for a in algebras:
        yield from (v for _, v in a.brackets)
        for i in range(a.dim):
            for j in range(a.dim):
                yield a.bracket_basis(i, j)
    for space in (pair.ideal.space, t.relations, maps.square, maps.j2, maps.multiplier):
        yield from space.basis
    for f in linear:
        yield from f.matrix.entries
        for k in range(f.domain_dim):
            yield f.column(k)
            yield f.apply({k: 1})
            yield f.apply([1 if j == k else 0 for j in range(f.domain_dim)])
        yield from f.image().basis
    for act in (pair.act_on_ideal, pair.act_on_algebra):
        for row in act.table:
            yield from row
    for i in range(pair.left_dim):
        for a in range(pair.right_dim):
            yield t.generator(i, a)
    yield from (pair.ambient_to_ideal(n) for n in pair.ideal.space.basis)


def _internal_values(pair: Pair):
    """Every value of the sparse tables the hot loops read."""
    t = construct_tensor(pair)
    maps = kappa_maps(t)
    for a in _algebras(pair, t, maps):
        for row in a._ad:
            for entries in row.values():
                yield from (c for _, c in entries)
    for act in (pair.act_on_ideal, pair.act_on_algebra):
        for row in act._supports:
            for entries in row:
                yield from (c for _, c in entries)
    for f in (t.projection, t.section, maps.kappa, maps.eps, maps.kappa_prime):
        for col in f._columns:
            yield from (c for _, c in col)
    for space in (t.relations, maps.square, maps.j2, maps.multiplier):
        for row in space._rows.values():
            yield from row.values()


def _pairs(tmp_path):
    return [*catalog_pairs(), *_documents(tmp_path), _half_central()]


def test_public_entries_are_fractions(tmp_path):
    for name, pair in _pairs(tmp_path):
        for v in _public_vectors(pair):
            bad = [a for a in v if type(a) is not Fraction]
            assert not bad, (name, v)


def test_internal_values_are_ints_unless_they_have_a_denominator(tmp_path):
    seen_fraction = False
    for name, pair in _pairs(tmp_path):
        for c in _internal_values(pair):
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (name, c)
            seen_fraction |= type(c) is Fraction
    assert seen_fraction  # r3(1/2) has real denominators


def test_maps_from_int_and_string_columns_keep_fraction_matrices():
    f = LinearMap.from_columns(2, [{0: 2}, ["1/2", "0"], (3, -4)])
    assert f.matrix.entries == ((Fraction(2), Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(0), Fraction(-4)))
    assert all(type(a) is Fraction for row in f.matrix.entries for a in row)
    assert f._columns == (((0, 2),), ((0, Fraction(1, 2)),), ((0, 3), (1, -4)))
    assert f.apply({0: 1, 1: 2}) == (Fraction(3), Fraction(0))
    assert all(type(a) is Fraction for a in f.apply({0: 1, 1: 2}) + f.column(2))
    assert all(type(a) is Fraction for v in Subspace.from_vectors(3, [{0: 2, 2: 4}]).basis for a in v)
    # a zero given as text is no entry: the pivot is the first nonzero
    assert Subspace.from_vectors(2, [["0", "-1/2"]]).basis == ((Fraction(0), Fraction(1)),)


def test_violation_residuals_are_fractions():
    antisymmetric = validate_structure(2, [[[0, 0], [0, 1]], [[0, 1], [0, 0]]])
    assert antisymmetric.kind == "antisymmetry" and type(antisymmetric.residual) is Fraction
    with pytest.raises(StructureError) as caught:
        LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert caught.value.violation.kind == "jacobi"
    assert type(caught.value.violation.residual) is Fraction

    h1 = LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})
    # z . x = x and x . z = z on the centre of h1 break compatibility
    centre = make_pair(h1, [(0, 0, 1)])
    bad = Pair(
        h1, centre.ideal,
        ActionData.from_rows(3, 1, [[(1,)], [(0,)], [(0,)]]),
        ActionData.from_rows(1, 3, [[(1, 0, 0), (0, 0, 0), (0, 0, 0)]]),
    )
    violations = [validate_compatible(bad), validate_action(bad.act_on_algebra, bad.ideal_algebra, h1)]
    assert violations[0] is not None
    for violation in violations:
        if violation is not None:
            assert all(type(a) is Fraction for a in violation.residual)
