"""Tensor product construction against hand-computed presentations.

Every dimension asserted here was worked out by hand from the defining
relations before the module existed: seed relations, bracket defects, and
the closure sweep were traced by hand for each pair.
"""

from fractions import Fraction

import pytest

import tensoralg.tensor
from tensoralg.catalog import abelian, heisenberg, pair_center, pair_full
from tensoralg.liealg import LieAlgebra, StructureError, direct_sum, validate_structure
from tensoralg.linalg import Subspace, kernel, quotient_with_section, vadd
from tensoralg.pairs import make_pair, relative_commutator
from tensoralg.tensor import (
    SymbolSpace,
    TensorConstructionError,
    beta_bracket,
    closure,
    construct_tensor,
    diagonal,
    exterior,
    kappa_maps,
    relation_seed,
    symbol_expand,
)


def nonabelian2():
    return LieAlgebra.make(2, ("x", "y"), {(0, 1): (0, 1)})


def heisenberg1():
    return LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})


def sl2():
    # [e, f] = h, [h, e] = 2e, [h, f] = -2f
    return LieAlgebra.make(
        3, ("e", "f", "h"), {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}
    )


def full_pair(algebra):
    return make_pair(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])


def test_symbol_space_indexing_and_expansion():
    sym = SymbolSpace(2, 3)
    assert sym.dim == 6
    assert sym.index(1, 2) == 5
    assert sym.split(4) == (1, 1)
    v = sym.expand((2, -1), (0, 3, 1))
    assert v == (0, 6, 2, 0, -3, -1)


def test_relation_seed_of_solvable_pair():
    pair = full_pair(nonabelian2())
    seeds = relation_seed(pair)
    # symbols ordered xx, xy, yx, yy
    assert seeds.contains((0, 1, 1, 0))
    assert seeds.contains((0, 0, 0, 1))
    assert seeds.dim == 2


def test_symbol_bracket_of_solvable_pair():
    pair = full_pair(nonabelian2())
    # [x (x) y, x (x) y] = -((y . x) (x) (x . y)) = -((-y) (x) y) = y (x) y
    assert beta_bracket(pair, (0, 1, 0, 0), (0, 1, 0, 0)) == (0, 0, 0, 1)
    # [y (x) x, x (x) y] = -((x . y) (x) (x . y)) = -(y (x) y)
    assert beta_bracket(pair, (0, 0, 1, 0), (0, 1, 0, 0)) == (0, 0, 0, -1)


def test_tensor_square_of_solvable_algebra():
    pair = full_pair(nonabelian2())
    t = construct_tensor(pair)
    assert t.dim == 2
    assert t.relations.dim == 2
    assert t.algebra.is_abelian()
    # x (x) y and y (x) x are opposite classes
    assert t.generator(0, 1) == tuple(-c for c in t.generator(1, 0))
    # y (x) y dies
    assert t.generator(1, 1) == (Fraction(0), Fraction(0))


def test_symbol_expand_is_bilinear_on_classes():
    pair = full_pair(nonabelian2())
    t = construct_tensor(pair)
    mixed = symbol_expand(t, (1, 1), (1, 0))
    split = tuple(a + b for a, b in zip(t.generator(0, 0), t.generator(1, 0)))
    assert mixed == split


def test_derived_objects_of_solvable_pair():
    pair = full_pair(nonabelian2())
    t = construct_tensor(pair)
    box = diagonal(t)
    assert box.dim == 1
    ext_algebra, eps = exterior(t)
    assert ext_algebra.dim == 1
    assert kernel(eps) == box
    maps = kappa_maps(t)
    assert maps.square == box
    assert maps.kappa.image().dim == 1
    assert maps.j2.dim == 1
    assert maps.multiplier.dim == 0
    # evaluation of y (x) x is [y, x] = -y
    assert maps.kappa.apply(t.generator(1, 0)) == (Fraction(0), Fraction(-1))
    assert maps.j2 == box


def test_central_ideal_pair_of_heisenberg():
    a = heisenberg1()
    pair = make_pair(a, [(0, 0, 1)])
    t = construct_tensor(pair)
    assert t.relations.dim == 1
    assert t.relations.contains((0, 0, 1))  # z (x) z collapses
    assert t.dim == 2
    assert diagonal(t).dim == 0
    maps = kappa_maps(t)
    assert maps.exterior.dim == 2
    assert maps.kappa.image().dim == 0
    assert maps.j2.dim == 2
    assert maps.multiplier.dim == 2


def test_tensor_square_of_heisenberg():
    pair = full_pair(heisenberg1())
    t = construct_tensor(pair)
    assert t.dim == 6
    assert t.algebra.is_abelian()
    box = diagonal(t)
    assert box.dim == 3
    maps = kappa_maps(t)
    assert maps.square == box
    assert maps.exterior.dim == 3
    assert maps.kappa.image().dim == 1
    assert maps.j2.dim == 5
    assert maps.multiplier.dim == 2
    assert maps.j2.contains_subspace(box)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_abelian_square_dimensions(n):
    pair = full_pair(LieAlgebra.abelian(n))
    t = construct_tensor(pair)
    assert t.relations.dim == 0
    assert t.dim == n * n
    assert diagonal(t).dim == n * (n + 1) // 2
    maps = kappa_maps(t)
    assert maps.exterior.dim == n * (n - 1) // 2
    assert maps.kappa.image().dim == 0
    assert maps.j2.dim == n * n
    assert maps.multiplier.dim == n * (n - 1) // 2


def test_abelian_pair_with_proper_ideal():
    pair = make_pair(LieAlgebra.abelian(3), [(1, 0, 0), (0, 1, 0)])
    t = construct_tensor(pair)
    assert t.dim == 6
    assert diagonal(t).dim == 3
    maps = kappa_maps(t)
    assert maps.exterior.dim == 3
    assert maps.multiplier.dim == 3


def test_tensor_square_of_perfect_algebra_is_the_algebra():
    pair = full_pair(sl2())
    t = construct_tensor(pair)
    assert t.dim == 3
    assert not t.algebra.is_abelian()
    assert diagonal(t).dim == 0
    maps = kappa_maps(t)
    assert maps.j2.dim == 0
    assert maps.kappa.image().dim == 3
    assert maps.multiplier.dim == 0
    # evaluation is now an isomorphism of Lie algebras: brackets match through kappa
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = maps.kappa.apply(t.algebra.bracket_basis(i, j))
            cols = [maps.kappa.apply(t.algebra.basis_vector(k)) for k in range(3)]
            rhs = sl2().bracket_vectors(cols[i], cols[j])
            assert lhs == rhs


def test_evaluation_image_matches_relative_commutator():
    a = heisenberg1()
    pair = full_pair(a)
    maps = kappa_maps(construct_tensor(pair))
    assert maps.kappa.image() == relative_commutator(pair).space


def test_evaluation_image_agrees_between_tensor_and_exterior():
    for pair in [full_pair(heisenberg1()), full_pair(nonabelian2()), full_pair(sl2())]:
        t = construct_tensor(pair)
        maps = kappa_maps(t)
        assert maps.kappa_prime.image() == maps.kappa.image()
        assert maps.j2.dim + maps.kappa.image().dim == t.dim
        assert maps.multiplier.dim + maps.kappa_prime.image().dim == maps.exterior.dim
        assert kernel(maps.eps) == maps.square


def _dense_bracket_table(pair):
    """The induced bracket as the full T x T table of projected symbol brackets."""
    sym = SymbolSpace(pair.left_dim, pair.right_dim)
    relations = closure(pair, relation_seed(pair))
    proj, reps = quotient_with_section(sym.dim, relations)
    return [[proj.apply(beta_bracket(pair, u, v)) for v in reps] for u in reps]


@pytest.mark.parametrize(
    "pair",
    [
        pair_full(abelian(3)),
        pair_full(abelian(4)),
        pair_full(heisenberg(2)),
        pair_full(direct_sum(heisenberg(1), abelian(1))),
        pair_full(direct_sum(sl2(), heisenberg(1))),
        pair_center(heisenberg(1)),
    ],
    ids=["abelian3", "abelian4", "heisenberg2", "heisenberg1+abelian1", "sl2+heisenberg1", "center-heisenberg1"],
)
def test_induced_bracket_matches_dense_reference(pair):
    t = construct_tensor(pair)
    table = _dense_bracket_table(pair)
    assert len(table) == t.dim
    for i in range(t.dim):
        for j in range(t.dim):
            assert t.algebra.bracket_basis(i, j) == table[i][j]
    assert validate_structure(t.dim, table) is None


def _symbol_vector(dim, k):
    return tuple(Fraction(1 if m == k else 0) for m in range(dim))


def _antisymmetry_defects(pair, seed):
    """Span of [e_u, e_v] + [e_v, e_u] over unit symbols; ignores the seed."""
    n = seed.ambient_dim
    units = [_symbol_vector(n, k) for k in range(n)]
    return Subspace.from_vectors(
        n,
        [vadd(beta_bracket(pair, units[u], units[v]), beta_bracket(pair, units[v], units[u]))
         for u in range(n) for v in range(u, n)],
    )


def test_induced_bracket_antisymmetry_failure_is_reported(monkeypatch):
    monkeypatch.setattr(tensoralg.tensor, "closure", lambda pair, seed: Subspace.zero(seed.ambient_dim))
    with pytest.raises(TensorConstructionError) as caught:
        construct_tensor(full_pair(heisenberg1()))
    assert str(caught.value) == (
        "induced bracket is not a Lie bracket: antisymmetry violation at (1, 1, 8), residual 2"
    )


def test_induced_bracket_jacobi_failure_is_reported(monkeypatch):
    # The filiform nilpotent algebra n4 extended by its grading derivation d.
    # Its derived algebra n4 has x1 ^ [x2, x3] + x2 ^ [x3, x1] + x3 ^ [x1, x2]
    # = -x2 ^ x4 != 0, so killing only the antisymmetry defects leaves a
    # quotient bracket that is antisymmetric but breaks Jacobi.
    algebra = LieAlgebra.make(
        5,
        ("d", "x1", "x2", "x3", "x4"),
        {
            (0, 1): (0, 1, 0, 0, 0),
            (0, 2): (0, 0, 1, 0, 0),
            (0, 3): (0, 0, 0, 2, 0),
            (0, 4): (0, 0, 0, 0, 3),
            (1, 2): (0, 0, 0, 1, 0),
            (1, 3): (0, 0, 0, 0, 1),
        },
    )
    pair = full_pair(algebra)
    assert construct_tensor(pair).dim == 5
    monkeypatch.setattr(tensoralg.tensor, "closure", _antisymmetry_defects)
    with pytest.raises(TensorConstructionError) as caught:
        construct_tensor(pair)
    assert str(caught.value).startswith("induced bracket is not a Lie bracket: jacobi violation at ")
    assert isinstance(caught.value.__cause__, StructureError)
