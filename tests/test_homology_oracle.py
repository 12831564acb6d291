"""The reference cohomology agrees with textbook values and with the engine."""

import pytest

from oracles import abelian_tensor_dims, rank, second_cohomology_dim

from tensoralg.catalog import heisenberg, nonabelian2
from tensoralg.liealg import LieAlgebra, direct_sum
from tensoralg.pairs import make_pair
from tensoralg.tensor import construct_tensor, diagonal, kappa_maps


def full_pair(algebra):
    return make_pair(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])


def sl2():
    return LieAlgebra.make(
        3, ("e", "f", "h"), {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}
    )


def test_rank_basics():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank([["1/2", 1], [0, "3"]]) == 2


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_second_cohomology_of_abelian(n):
    assert second_cohomology_dim(n, {}) == n * (n - 1) // 2


def test_second_cohomology_of_small_algebras():
    assert second_cohomology_dim(2, {(0, 1): (0, 1)}) == 0  # solvable plane
    assert second_cohomology_dim(3, {(0, 1): (0, 0, 1)}) == 2  # heisenberg
    assert (
        second_cohomology_dim(
            3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}
        )
        == 0
    )  # sl2 is rigid


@pytest.mark.parametrize("m", [1, 2, 3])
def test_second_cohomology_of_heisenberg_matches_closed_form(m):
    # dim M(H(m)) = 2m^2 - m - 1 for m >= 2 and 2 for m = 1
    # (Batten, Moneyhun and Stitzinger, Comm. Algebra 1996)
    h = heisenberg(m)
    assert second_cohomology_dim(h.dim, dict(h.brackets)) == (2 if m == 1 else 2 * m * m - m - 1)


def test_second_cohomology_of_a_direct_sum():
    # solvable plane + line: one cross class survives
    alg = direct_sum(nonabelian2(), LieAlgebra.abelian(1))
    assert second_cohomology_dim(alg.dim, dict(alg.brackets)) == 1


@pytest.mark.parametrize(
    "algebra",
    [
        LieAlgebra.abelian(1),
        LieAlgebra.abelian(2),
        LieAlgebra.abelian(3),
        nonabelian2(),
        heisenberg(1),
        heisenberg(2),
        heisenberg(3),
        sl2(),
        direct_sum(nonabelian2(), LieAlgebra.abelian(1)),
    ],
    ids=["a1", "a2", "a3", "r2", "h1", "h2", "h3", "sl2", "r2+a1"],
)
def test_engine_multiplier_matches_reference_cohomology(algebra):
    maps = kappa_maps(construct_tensor(full_pair(algebra)))
    assert maps.multiplier.dim == second_cohomology_dim(algebra.dim, dict(algebra.brackets))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_engine_matches_abelian_formulas(n):
    t = construct_tensor(full_pair(LieAlgebra.abelian(n)))
    maps = kappa_maps(t)
    assert (
        t.dim,
        diagonal(t).dim,
        maps.exterior.dim,
        maps.j2.dim,
        maps.multiplier.dim,
    ) == abelian_tensor_dims(n)
