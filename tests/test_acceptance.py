"""End-to-end acceptance gate.

One test per guaranteed behaviour, in order: closed-form abelian dimension
grids, the solvable-plane presentation, internal consistency of the
Heisenberg square, degeneracy reporting on a central ideal, the structural
diagram checks, the projection-kernel identity, diagonal-complement
splitting, the diagonal dimension law, direct-sum interchange, and basis
independence.  Every comparison is exact; nothing is tolerance-based.
"""

import random
from fractions import Fraction

import pytest

from oracles import abelian_tensor_dims, second_cohomology_dim, vadd, vscale

from tensoralg import (
    LieAlgebra,
    abelian,
    catalog_pairs,
    construct_tensor,
    gamma_dim,
    heisenberg,
    kappa_maps,
    make_pair,
    nonabelian2,
    pair_center,
    pair_full,
    validate_structure,
    verify_diagonal_descent,
    verify_diagram,
    verify_ker_pi,
    verify_kunneth,
    verify_splitting,
)
from tensoralg.cli import main


def derived_dims(pair):
    """(tensor, diagonal, exterior, evaluation kernel, multiplier) dimensions."""
    t = construct_tensor(pair)
    maps = kappa_maps(t)
    return (t.dim, maps.square.dim, maps.exterior.dim, maps.j2.dim, maps.multiplier.dim)


_KUNNETH_CACHE = {}


def kunneth_records(id_a, pair_a, id_b, pair_b):
    key = (id_a, id_b)
    if key not in _KUNNETH_CACHE:
        _KUNNETH_CACHE[key] = {
            r.check: r for r in verify_kunneth(pair_a, pair_b, id_a, id_b)
        }
    return _KUNNETH_CACHE[key]


def permuted_pair(pair, perm):
    """The same pair written in a permuted algebra basis."""
    a = pair.algebra
    dim = a.dim
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = a.bracket_basis(perm[i], perm[j])
            w = tuple(v[perm[k]] for k in range(dim))
            if any(c != 0 for c in w):
                brackets[(i, j)] = w
    algebra = LieAlgebra.make(dim, tuple(a.name_of(perm[i]) for i in range(dim)), brackets)
    vectors = [tuple(vec[perm[k]] for k in range(dim)) for vec in pair.ideal.space.basis]
    return make_pair(algebra, vectors)


def full_structure_table(algebra):
    return [
        [
            algebra.bracket_vectors(algebra.basis_vector(i), algebra.basis_vector(j))
            for j in range(algebra.dim)
        ]
        for i in range(algebra.dim)
    ]


def random_rational_vector(rng, dim):
    return tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(dim))


def test_abelian_pair_dimension_grid_matches_closed_forms():
    for n in range(1, 5):
        assert derived_dims(pair_full(abelian(n))) == abelian_tensor_dims(n)
    print("acceptance: abelian dimension grid n=1..4: pass")


def test_solvable_plane_square_has_expected_presentation():
    pair = pair_full(nonabelian2())
    assert derived_dims(pair) == (2, 1, 1, 1, 0)
    t = construct_tensor(pair)
    x = (Fraction(1), Fraction(0))
    y = (Fraction(0), Fraction(1))
    # y (x) x collapses onto -(x (x) y), and y (x) y dies
    assert t.tensor_of(y, x) == vscale(-1, t.tensor_of(x, y))
    assert all(c == 0 for c in t.tensor_of(y, y))
    print("acceptance: solvable plane presentation: pass")


def test_heisenberg_square_dimensions_are_internally_consistent():
    pair = pair_full(heisenberg(1))
    t = construct_tensor(pair)
    maps = kappa_maps(t)
    dims = (t.dim, maps.square.dim, maps.exterior.dim, maps.j2.dim, maps.multiplier.dim)
    assert dims == (6, 3, 3, 5, 2)
    # the evaluation kernel is forced: corank of the evaluation map
    assert maps.kappa.image() == pair.relative_commutator.space
    assert maps.j2.dim == t.dim - maps.kappa.image().dim
    # and it splits as diagonal plus multiplier
    assert maps.j2.dim == maps.square.dim + maps.multiplier.dim
    # multiplier cross-checked against degree-two cohomology
    assert maps.multiplier.dim == second_cohomology_dim(
        3, {(0, 1): (0, 0, 1)}
    )
    print("acceptance: heisenberg square internal consistency: pass")


def test_central_ideal_pair_reports_noninjective_degeneracy(capsys):
    pair = pair_center(heisenberg(1))
    assert derived_dims(pair) == (2, 0, 2, 2, 2)
    record = verify_diagonal_descent(pair, "h1-centre")
    assert record.status == "pass"
    assert record.flags["psi-injective"] is False
    assert record.flags["clean-intersection"] is False
    assert main(["verify", "builtin:pair_center(heisenberg(1))"]) == 0
    out = capsys.readouterr().out
    assert "psi-injective=no" in out
    assert "asserted-failures=0" in out
    print("acceptance: central ideal degeneracy reporting: pass")


def test_structural_diagram_checks_pass_on_all_catalog_pairs():
    for selector, pair in catalog_pairs():
        records = verify_diagram(pair, selector)
        assert len(records) == 7
        for record in records:
            assert record.asserted
            assert record.status == "pass", (selector, record.check, record.witness)
    print("acceptance: structural diagram checks on catalog: pass")


def test_projection_kernel_identity_holds_on_all_catalog_pairs():
    for selector, pair in catalog_pairs():
        record = verify_ker_pi(pair, selector)
        assert record.asserted
        assert record.status == "pass", (selector, record.witness)
    print("acceptance: projection kernel identity on catalog: pass")


def test_diagonal_complement_splitting_holds_on_all_catalog_pairs():
    for selector, pair in catalog_pairs():
        record = verify_splitting(pair, selector)
        assert record.asserted
        assert record.status == "pass", (selector, record.witness)
    print("acceptance: diagonal complement splitting on catalog: pass")


def test_diagonal_dimension_law_on_clean_pairs():
    seen_clean = 0
    for selector, pair in catalog_pairs():
        record = verify_diagonal_descent(pair, selector)
        law = record.dims["diagonal"] == gamma_dim(record.dims["relative-abelianization"])
        assert record.flags["diagonal-law"] == law
        if record.flags["clean-intersection"]:
            seen_clean += 1
            assert record.flags["diagonal-law"] is True, selector
        else:
            # degenerate central ideals miss the law and say so
            assert record.flags["diagonal-law"] is False, selector
    assert seen_clean >= 7
    print("acceptance: diagonal dimension law on clean pairs: pass")


ALGEBRA_FACTORS = (
    ("a1", lambda: pair_full(abelian(1))),
    ("a2", lambda: pair_full(abelian(2))),
    ("r2", lambda: pair_full(nonabelian2())),
    ("h1", lambda: pair_full(heisenberg(1))),
)

PAIR_FACTORS = (
    ("r2-full", lambda: pair_full(nonabelian2())),
    ("a1-full", lambda: pair_full(abelian(1))),
    ("h1-centre", lambda: pair_center(heisenberg(1))),
    ("h1-full", lambda: pair_full(heisenberg(1))),
)

ADDITIVITY_CHECKS = (
    "abelianization-square-additivity",
    "multiplier-of-direct-sum",
    "evaluation-kernel-of-direct-sum",
    "free-presentation-square-additivity",
)


def test_direct_sum_interchange_records():
    # additivity of the square data holds for every ordered algebra combination
    for id_a, make_a in ALGEBRA_FACTORS:
        for id_b, make_b in ALGEBRA_FACTORS:
            by_check = kunneth_records(id_a, make_a(), id_b, make_b())
            for name in ADDITIVITY_CHECKS:
                record = by_check[name]
                assert record.asserted, (id_a, id_b, name)
                assert record.status == "pass", (id_a, id_b, name, record.witness)
    # pair-level identities: everything asserted must pass
    for id_a, make_a in PAIR_FACTORS:
        for id_b, make_b in PAIR_FACTORS:
            by_check = kunneth_records(id_a, make_a(), id_b, make_b())
            for record in by_check.values():
                if record.asserted:
                    assert record.status == "pass", (id_a, id_b, record.check)
    # worked example: the kernel of the sum is 1 + 1 + 2
    by_check = kunneth_records("r2-full", pair_full(nonabelian2()), "a1-full", pair_full(abelian(1)))
    record = by_check["direct-sum-evaluation-kernel"]
    assert record.asserted and record.status == "pass"
    assert record.dims == {"left": 1, "right": 1, "sum": 4, "cross": 2}
    # degenerate central factor: identities are reported, not asserted
    by_check = kunneth_records("h1-centre", pair_center(heisenberg(1)), "a1-full", pair_full(abelian(1)))
    d1 = by_check["direct-sum-evaluation-kernel"]
    assert not d1.asserted and d1.status == "fail"
    assert d1.dims == {"left": 2, "right": 1, "sum": 6, "cross": 2}
    d3 = by_check["direct-sum-multiplier"]
    assert not d3.asserted and d3.status == "fail"
    assert d3.dims == {"left": 2, "right": 0, "sum": 4, "cross": 1}
    print("acceptance: direct sum interchange: pass")


def test_derived_dimensions_invariant_under_basis_permutation():
    rng = random.Random(20260815)
    for selector, pair in catalog_pairs():
        base = derived_dims(pair)
        dim = pair.algebra.dim
        for _ in range(20):
            perm = list(range(dim))
            rng.shuffle(perm)
            shuffled = permuted_pair(pair, perm)
            assert validate_structure(dim, full_structure_table(shuffled.algebra)) is None
            assert derived_dims(shuffled) == base, (selector, perm)
        t = construct_tensor(shuffled)
        x1 = random_rational_vector(rng, shuffled.left_dim)
        x2 = random_rational_vector(rng, shuffled.left_dim)
        n = random_rational_vector(rng, shuffled.right_dim)
        c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        assert t.tensor_of(vadd(x1, x2), n) == vadd(
            t.tensor_of(x1, n), t.tensor_of(x2, n)
        )
        assert t.tensor_of(vscale(c, x1), n) == vscale(c, t.tensor_of(x1, n))
    print("acceptance: basis permutation invariance: pass")
