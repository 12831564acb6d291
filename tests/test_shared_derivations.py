"""[N, L] and [L, L] are built once per pair and per algebra, and read from there.

The cached subspaces must equal a fresh bracket computation, and a whole
verify_pair run must not compute any of them again.
"""

import random
from fractions import Fraction

import pytest

from algebra_examples import IDEAL_ALGEBRAS, ideals, rebased, sl2

import tensoralg.liealg
import tensoralg.pairs
from tensoralg.catalog import catalog_selectors, heisenberg, resolve_selector
from tensoralg.liealg import AlgebraSubspace, bracket_subspaces, direct_sum
from tensoralg.linalg import Subspace
from tensoralg.pairs import make_pair
from tensoralg.verify import verify_pair

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


def _fresh(pair):
    """[N, L] and [L, L], each computed again by bracket_subspaces."""
    full = AlgebraSubspace.full(pair.algebra)
    return bracket_subspaces(pair.algebra, pair.ideal, full), bracket_subspaces(pair.algebra, full, full)


def _assert_cache_matches(pair, fresh_commutator, fresh_derived):
    comm = pair.relative_commutator
    assert comm == fresh_commutator
    in_ideal = pair.relative_commutator_in_ideal
    assert in_ideal.ambient_dim == pair.right_dim
    ambient = [pair.inclusion.apply(m) for m in in_ideal.basis]
    assert Subspace.from_vectors(pair.left_dim, ambient) == fresh_commutator.space
    assert pair.algebra.derived_algebra == fresh_derived
    # each read returns the one cached object
    assert pair.relative_commutator is comm
    assert pair.relative_commutator_in_ideal is in_ideal
    assert pair.algebra.derived_algebra is pair.algebra.derived_algebra


@pytest.mark.parametrize("name", list(PAIRS))
def test_cached_commutators_equal_a_fresh_computation(name):
    pair = PAIRS[name]()
    _assert_cache_matches(pair, *_fresh(pair))


@pytest.mark.parametrize("name", list(PAIRS))
def test_verify_pair_brackets_subspaces_twice(name, monkeypatch):
    pair = PAIRS[name]()
    fresh = _fresh(pair)
    calls = []
    real = tensoralg.liealg.bracket_subspaces

    def counting(algebra, s, t):
        calls.append("[L, L]" if s is t else "[N, L]")
        return real(algebra, s, t)

    for module in (tensoralg.liealg, tensoralg.pairs):
        monkeypatch.setattr(module, "bracket_subspaces", counting)
    verify_pair(pair, name)
    # [N, L] of the pair and [L, L] of its algebra, each once; every check
    # and the quotient by [N, L] read them from the pair and the algebra
    assert sorted(calls) == ["[L, L]", "[N, L]"]
    # the shared objects are what a fresh computation gives, after every check read them
    _assert_cache_matches(pair, *fresh)
