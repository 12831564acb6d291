"""Squaring map tests: dimensions, images, and representative independence."""

from fractions import Fraction

import pytest

from tensoralg.liealg import LieAlgebra
from tensoralg.pairs import make_pair
from tensoralg.tensor import construct_tensor, diagonal
from tensoralg.gamma import GammaSpace, gamma_dim, psi_map, psi_welldefined, sigma


def nonabelian2():
    return LieAlgebra.make(2, ("x", "y"), {(0, 1): (0, 1)})


def heisenberg1():
    return LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})


def full_pair(algebra):
    return make_pair(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])


def squaring(pair, t):
    """The pair's gamma space and its squaring map into t."""
    gamma = GammaSpace.from_pair(pair)
    return gamma, psi_map(pair, t, gamma)


@pytest.mark.parametrize("d,expected", [(0, 0), (1, 1), (2, 3), (3, 6), (5, 15)])
def test_gamma_dim(d, expected):
    assert gamma_dim(d) == expected


def test_gamma_space_of_solvable_pair():
    pair = full_pair(nonabelian2())
    gamma = GammaSpace.from_pair(pair)
    # N/[N,L] is one dimensional, represented by x
    assert gamma.source_dim == 1
    assert gamma.section.column_entries(0) == ((0, 1),)
    assert gamma.section.column(0) == (Fraction(1), Fraction(0))
    assert gamma.dim == 1


def test_gamma_space_indexing():
    pair = full_pair(heisenberg1())
    gamma = GammaSpace.from_pair(pair)
    assert gamma.source_dim == 2
    assert gamma.pairs == ((0, 0), (0, 1), (1, 1))
    assert gamma.index(1, 0) == gamma.index(0, 1) == 1


def test_squaring_map_iso_onto_diagonal_for_heisenberg_square():
    pair = full_pair(heisenberg1())
    t = construct_tensor(pair)
    gamma, psi = squaring(pair, t)
    assert psi.domain_dim == 3
    assert psi.image() == diagonal(t)
    assert psi.image().dim == 3  # injective here
    assert psi_welldefined(pair, t, gamma, psi.image()) is None


def test_squaring_map_not_injective_for_central_pair():
    pair = make_pair(heisenberg1(), [(0, 0, 1)])
    t = construct_tensor(pair)
    gamma, psi = squaring(pair, t)
    assert psi.domain_dim == 1
    assert psi.image().dim == 0
    assert psi.image() == diagonal(t)  # both trivial
    assert psi_welldefined(pair, t, gamma, psi.image()) is None


def test_squaring_map_rejects_foreign_tensor():
    pair = full_pair(nonabelian2())
    other = make_pair(heisenberg1(), [(0, 0, 1)])
    t = construct_tensor(other)
    with pytest.raises(ValueError):
        psi_map(pair, t, GammaSpace.from_pair(pair))


def test_squaring_map_matches_diagonal_on_solvable_pair():
    pair = full_pair(nonabelian2())
    t = construct_tensor(pair)
    _, psi = squaring(pair, t)
    assert psi.image() == diagonal(t)
    assert psi.image().dim == gamma_dim(1)


def test_sigma_values_in_heisenberg_square():
    pair = full_pair(heisenberg1())
    t = construct_tensor(pair)
    # sigma of anything with the centre class dies, sigma(x, y) does not
    z = (0, 0, 1)
    for i in range(3):
        assert sigma(t, pair.ideal_algebra.basis_vector(i), z) == (Fraction(0),) * 6
    assert sigma(t, (1, 0, 0), (0, 1, 0)) != (Fraction(0),) * 6


def test_sigma_is_symmetric():
    pair = full_pair(heisenberg1())
    t = construct_tensor(pair)
    u, v = (1, 2, 0), (0, 1, -3)
    assert sigma(t, u, v) == sigma(t, v, u)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_abelian_square_diagonal_law(n):
    pair = full_pair(LieAlgebra.abelian(n))
    t = construct_tensor(pair)
    gamma, psi = squaring(pair, t)
    assert psi.image().dim == gamma_dim(n)
    assert psi.image() == diagonal(t)
    assert psi_welldefined(pair, t, gamma, psi.image()) is None
