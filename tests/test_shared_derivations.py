"""A pair forms each bracket [l_i, n_a] once, in its collapse maps, and reads
[N, L], [L, L] and its ideal check from there and from the bracket table.

The cached subspaces must equal dense spans of brackets formed by the dense
reference, the two ideal checks must refuse exactly what the dense ideal test
refuses, and the brackets the engine forms are counted.
"""

import random
from fractions import Fraction

import pytest

from algebra_examples import IDEAL_ALGEBRAS, ideals, rebased, sl2
from oracles import dense_bracket_span, dense_is_ideal, dense_solve, dense_span

from tensoralg.catalog import catalog_selectors, heisenberg, resolve_selector
from tensoralg.liealg import AlgebraSubspace, LieAlgebra, NotAnIdealError, direct_sum, quotient_algebra
from tensoralg.linalg import Subspace
from tensoralg.pairs import make_pair, pair_full
from tensoralg.verify import verify_kunneth, verify_pair

REBASED_ALGEBRAS = {
    "n4": lambda: IDEAL_ALGEBRAS["n4"],
    "gl2": lambda: IDEAL_ALGEBRAS["gl2"],
    "r3(1/2)": lambda: IDEAL_ALGEBRAS["r3(1/2)"],
    "sl2+heisenberg(1)": lambda: direct_sum(sl2(), heisenberg(1)),
}


def _change_of_basis(rng, n):
    """Columns of a seeded invertible matrix with small rational entries."""
    while True:
        columns = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)) for _ in range(n)]
        if Subspace.from_vectors(n, columns).dim == n:
            return columns


def _rebased_pair(name, kind):
    algebra = REBASED_ALGEBRAS[name]()
    pair = make_pair(algebra, ideals(algebra)[kind].basis)
    return rebased(pair, _change_of_basis(random.Random(f"shared/{name}/{kind}"), algebra.dim))


PAIRS = {selector: (lambda selector=selector: resolve_selector(selector)) for selector in catalog_selectors()}
PAIRS.update(
    (f"{kind}({name})", lambda name=name, kind=kind: _rebased_pair(name, kind))
    for name, make in REBASED_ALGEBRAS.items()
    for kind in ideals(make())
)
# the plane <y, z> of heisenberg(1): 3 * 2 = 6 symbols
PAIRS["plane(heisenberg(1))"] = lambda: make_pair(heisenberg(1), [[0, 1, 0], [0, 0, 1]])


def _units(algebra):
    return [algebra.basis_vector(i) for i in range(algebra.dim)]


def _fresh(pair):
    """[N, L] in L and in the ideal's coordinates, and [L, L], as dense RREF bases of dense brackets."""
    a = pair.algebra
    table, units, n = dict(a.brackets), _units(a), pair.ideal.space.basis
    commutator = dense_bracket_span(a.dim, table, n, units)
    in_ideal = dense_span(pair.right_dim, [dense_solve(n, w) for w in commutator])
    return commutator, in_ideal, dense_bracket_span(a.dim, table, units, units)


def _assert_cache_matches(pair, fresh_commutator, fresh_in_ideal, fresh_derived):
    comm = pair.relative_commutator
    assert comm.space.basis == fresh_commutator
    in_ideal = pair.relative_commutator_in_ideal
    assert in_ideal.ambient_dim == pair.right_dim
    assert in_ideal.basis == fresh_in_ideal
    assert pair.algebra.derived_algebra.space.basis == fresh_derived
    # each read returns the one cached object
    assert pair.relative_commutator is comm
    assert pair.relative_commutator_in_ideal is in_ideal
    assert pair.algebra.derived_algebra is pair.algebra.derived_algebra


@pytest.mark.parametrize("name", list(PAIRS))
def test_cached_commutators_equal_a_fresh_computation(name):
    pair = PAIRS[name]()
    _assert_cache_matches(pair, *_fresh(pair))


# The ideal checks of make_pair and quotient_algebra against the dense ideal
# test, on each algebra in a seeded permuted basis: the full, derived and
# centre ideals, the zero span, random spans (mostly not ideals) and random
# spans grown by [L, L] (ideals, as every space holding [L, L] is one).

DIFFERENTIAL_ALGEBRAS = {**IDEAL_ALGEBRAS, "sl2+heisenberg(1)": direct_sum(sl2(), heisenberg(1))}


def _permuted_algebra(name, rng):
    algebra = DIFFERENTIAL_ALGEBRAS[name]
    perm = list(range(algebra.dim))
    rng.shuffle(perm)
    return rebased(pair_full(algebra), [algebra.basis_vector(k) for k in perm]).algebra


def _spans(algebra, rng):
    n = algebra.dim
    derived = list(algebra.derived_algebra.space.basis)
    spans = [list(space.basis) for space in ideals(algebra).values()] + [[]]
    for k in range(8):
        vectors = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(1 + k % 3)]
        spans.append(vectors)
        spans.append(vectors[:1] + derived)
    return spans


@pytest.mark.parametrize("name", list(DIFFERENTIAL_ALGEBRAS))
def test_ideal_checks_refuse_what_the_dense_test_refuses(name):
    rng = random.Random(f"ideal-check/{name}")
    algebra = _permuted_algebra(name, rng)
    table = dict(algebra.brackets)
    refused = accepted = 0
    for vectors in _spans(algebra, rng):
        basis = dense_span(algebra.dim, vectors)
        expected = dense_is_ideal(algebra.dim, table, basis)
        space = AlgebraSubspace.from_vectors(algebra, vectors)
        assert space.space.basis == basis
        if expected is None:
            accepted += 1
            pair = make_pair(algebra, vectors)
            assert pair.ideal == space
            quotient, _ = quotient_algebra(algebra, space)
            assert quotient.dim == algebra.dim - len(basis)
            _assert_cache_matches(pair, *_fresh(pair))
            continue
        refused += 1
        for check in (lambda: make_pair(algebra, vectors), lambda: quotient_algebra(algebra, space)):
            with pytest.raises(NotAnIdealError) as caught:
                check()
            assert caught.value.witness == expected
            assert str(caught.value) == f"bracket of basis element {expected[0]} leaves the span"
    # the seeded spans reach both branches
    assert accepted and refused


def _counted_brackets(monkeypatch):
    """A one-item list holding the number of LieAlgebra.bracket_sparse calls from here on."""
    calls = [0]
    real = LieAlgebra.bracket_sparse

    def counting(self, xs, ys):
        calls[0] += 1
        return real(self, xs, ys)

    monkeypatch.setattr(LieAlgebra, "bracket_sparse", counting)
    return calls


MADE_PAIRS = [name for name in PAIRS if name not in catalog_selectors()]


@pytest.mark.parametrize("name", MADE_PAIRS)
def test_make_pair_forms_each_bracket_once(name, monkeypatch):
    pair = PAIRS[name]()
    algebra, basis = pair.algebra, pair.ideal.space.basis
    calls = _counted_brackets(monkeypatch)
    made = make_pair(algebra, basis)
    # the check, both collapses, [N, L] in both coordinate systems and [L, L]
    # form [l_i, n_a] once each, for the p * q symbols
    made.collapse_maps, made.relative_commutator, made.relative_commutator_in_ideal
    made.algebra.derived_algebra
    assert calls[0] == pair.left_dim * pair.right_dim


def test_catalog_verification_forms_at_most_108_brackets(monkeypatch):
    calls = _counted_brackets(monkeypatch)
    for selector in catalog_selectors():
        verify_pair(resolve_selector(selector), selector)
    assert calls[0] <= 108


KUNNETH_SELECTORS = ["builtin:pair_full(nonabelian2)", "builtin:pair_full(abelian(1))", "builtin:pair_center(heisenberg(1))"]


def test_kunneth_on_nine_ordered_pairs_forms_at_most_70_brackets(monkeypatch):
    pairs = [resolve_selector(selector) for selector in KUNNETH_SELECTORS]
    calls = _counted_brackets(monkeypatch)
    for a in pairs:
        for b in pairs:
            verify_kunneth(a, b)
    assert calls[0] <= 70
