"""Tests for ideal pairs, action axioms, and compatibility."""

import random
from fractions import Fraction

import pytest

from algebra_examples import IDEAL_ALGEBRAS, ideals, rebased
from oracles import (
    dense_action_violation,
    dense_bracket,
    dense_compatibility_violation,
    dense_span,
    dense_span_intersect,
    dense_subalgebra_brackets,
)

import tensoralg.liealg
import tensoralg.linalg
import tensoralg.pairs
from tensoralg.catalog import catalog_selectors, pair_center, resolve_selector
from tensoralg.liealg import (
    AlgebraHom,
    LieAlgebra,
    NotAnIdealError,
    abelianization,
    center,
    direct_sum,
    quotient_algebra,
)
from tensoralg.linalg import LinearMap, from_support, support
from tensoralg.pairs import (
    ActionData,
    CompatibilityViolation,
    Pair,
    PairValidationError,
    complement_condition,
    direct_sum_pair,
    make_pair,
    make_pair_with_actions,
    pair_full,
    pair_is_clean,
    quotient_pair,
    relative_abelianization_dim,
    validate_action,
    validate_compatible,
)


def nonabelian2():
    return LieAlgebra.make(2, ("x", "y"), {(0, 1): (0, 1)})


def heisenberg1():
    return LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})


def test_make_pair_full_ideal_uses_bracket_actions():
    a = nonabelian2()
    pair = make_pair(a, [(1, 0), (0, 1)])
    assert pair.left_dim == 2 and pair.right_dim == 2
    # [x, y] = y, read in ideal coordinates
    assert pair.act_on_ideal.act_entries(0, 1) == ((1, 1),)
    assert pair.act_on_ideal.act_entries(1, 0) == ((1, -1),)
    assert pair.act_on_algebra.act_entries(1, 0) == ((1, -1),)


def test_make_pair_center_of_heisenberg_acts_trivially():
    a = heisenberg1()
    pair = make_pair(a, [(0, 0, 1)])
    assert pair.right_dim == 1
    assert all(pair.act_on_ideal.act_entries(i, 0) == () for i in range(3))
    assert all(pair.act_on_algebra.act_entries(0, i) == () for i in range(3))
    assert pair.ideal_algebra.is_abelian()


def test_make_pair_rejects_non_ideal():
    a = heisenberg1()
    with pytest.raises(NotAnIdealError) as exc:
        make_pair(a, [(1, 0, 0)])
    # [y, x] = -z is the first bracket outside the line
    assert str(exc.value) == "bracket of basis element 1 leaves the span"
    assert exc.value.witness == (1, (Fraction(1), Fraction(0), Fraction(0)))


def test_inner_actions_satisfy_axioms_and_compatibility():
    a = heisenberg1()
    pair = make_pair(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert validate_action(pair.act_on_ideal, a, pair.ideal_algebra) is None
    assert validate_action(pair.act_on_algebra, pair.ideal_algebra, a) is None
    assert validate_compatible(pair) is None


def test_validate_action_flags_broken_leibniz_rule():
    # One-dimensional algebra sending the Heisenberg generator x to itself:
    # acting on [x, y] gives 0 but [a.x, y] + [x, a.y] = [x, y] = z.
    actor = LieAlgebra.abelian(1)
    acted = heisenberg1()
    act = ActionData.from_rows(1, 3, [[(1, 0, 0), (0, 0, 0), (0, 0, 0)]])
    bad = validate_action(act, actor, acted)
    assert bad is not None
    assert bad.axiom == 2
    assert bad.indices == (0, 0, 1)
    assert bad.residual == (Fraction(0), Fraction(0), Fraction(-1))


def test_validate_action_flags_broken_actor_bracket_rule():
    # The nonabelian 2-dim algebra acting on a line: both generators act as
    # the identity, so the bracket [x, y] = y should act as xy - yx = 0,
    # but the table says y acts as the identity.
    actor = nonabelian2()
    acted = LieAlgebra.abelian(1)
    act = ActionData.from_rows(2, 1, [[(1,)], [(1,)]])
    bad = validate_action(act, actor, acted)
    assert bad is not None
    assert bad.axiom == 1
    assert bad.indices == (0, 1, 0)


def test_incompatible_actions_are_detected():
    # L is Heisenberg, N its center. Each action satisfies its own axioms,
    # but acting with (z . x) = x on z gives z, while [z, x . z] = 0.
    a = heisenberg1()
    act_on_ideal = ActionData.from_rows(3, 1, [[(1,)], [(0,)], [(0,)]])
    act_on_algebra = ActionData.from_rows(1, 3, [[(1, 0, 0), (0, 0, 0), (0, 0, 1)]])
    pair = make_pair(a, [(0, 0, 1)])
    candidate = pair.__class__(a, pair.ideal, act_on_ideal, act_on_algebra)
    assert validate_action(act_on_ideal, a, pair.ideal_algebra) is None
    assert validate_action(act_on_algebra, pair.ideal_algebra, a) is None
    bad = validate_compatible(candidate)
    assert bad == CompatibilityViolation(1, (0, 0, 0), (Fraction(1),))
    with pytest.raises(PairValidationError) as exc:
        make_pair_with_actions(a, [(0, 0, 1)], act_on_ideal, act_on_algebra)
    assert exc.value.witness == bad


def test_make_pair_with_actions_accepts_inner_tables():
    a = nonabelian2()
    inner = make_pair(a, [(0, 1)])
    rebuilt = make_pair_with_actions(a, [(0, 1)], inner.act_on_ideal, inner.act_on_algebra)
    assert rebuilt.act_on_ideal == inner.act_on_ideal


def test_relative_commutator_and_abelianization():
    a = heisenberg1()
    full = make_pair(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert full.relative_commutator.space.basis == ((Fraction(0), Fraction(0), Fraction(1)),)
    assert relative_abelianization_dim(full) == 2

    center = make_pair(a, [(0, 0, 1)])
    assert center.relative_commutator.dim == 0
    assert relative_abelianization_dim(center) == 1


def test_quotient_pair_of_nonabelian2_is_a_line():
    a = nonabelian2()
    pair = make_pair(a, [(1, 0), (0, 1)])
    q = quotient_pair(pair)
    assert q.pair.algebra.dim == 1
    assert q.pair.algebra.is_abelian()
    assert q.pair.right_dim == 1
    assert q.commutator.space.basis == ((Fraction(0), Fraction(1)),)
    # the ideal projection agrees with the algebra projection on ideal vectors
    for ambient in pair.ideal.space.basis:
        coords = pair.ambient_to_ideal(ambient)
        lhs = q.pair.inclusion.apply(q.proj_ideal.map.apply(coords))
        assert lhs == q.proj_algebra.map.apply(ambient)
    assert q.proj_ideal.map.apply((1, 0)) == (Fraction(1),)
    assert q.proj_ideal.map.apply((0, 1)) == (Fraction(0),)


def test_quotient_pair_with_trivial_commutator_keeps_dimensions():
    a = heisenberg1()
    pair = make_pair(a, [(0, 0, 1)])
    q = quotient_pair(pair)
    assert q.pair.algebra.dim == 3
    assert q.pair.right_dim == 1
    assert q.commutator.dim == 0


def test_cleanliness_and_complement_condition():
    h = heisenberg1()
    # N = center: N meets [L, L] = span z in span z, but [N, L] = 0.
    center = make_pair(h, [(0, 0, 1)])
    assert not pair_is_clean(center)
    assert not complement_condition(center)

    full_h = make_pair(h, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert pair_is_clean(full_h)
    assert complement_condition(full_h)

    ab = LieAlgebra.abelian(2)
    assert pair_is_clean(make_pair(ab, [(1, 0)]))


def test_direct_sum_pair_blocks():
    left = make_pair(nonabelian2(), [(1, 0), (0, 1)])
    right = make_pair(LieAlgebra.abelian(1), [(1,)])
    total = direct_sum_pair(left, right)
    assert total.left_dim == 3
    assert total.right_dim == 3
    assert relative_abelianization_dim(total) == 2
    assert total.relative_commutator.space.basis == ((Fraction(0), Fraction(1), Fraction(0)),)


def test_act_sparse_is_bilinear():
    a = heisenberg1()
    pair = make_pair(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    act = pair.act_on_ideal
    x = (Fraction(2), Fraction(-1), Fraction(3))
    n = (Fraction(1), Fraction(1, 2), Fraction(0))
    expected = a.bracket_sparse(support(x), pair.inclusion.apply_entries(n).items())
    assert expected == {2: Fraction(2)}
    assert pair.inclusion.apply_entries(act.act_sparse(support(x), support(n))) == expected


# Differential tests: the sparse action checks against the dense loops kept
# in tests/oracles.py, on the broken tables above and on seeded perturbations
# of inner actions.  Both must report the same first violation.


def _dense_action(act, actor, acted):
    return dense_action_violation(actor.dim, dict(actor.brackets), acted.dim, dict(acted.brackets), act.table)


def _dense_compatibility(pair):
    return dense_compatibility_violation(
        pair.left_dim, dict(pair.algebra.brackets), pair.right_dim, dict(pair.ideal_algebra.brackets),
        pair.act_on_ideal.table, pair.act_on_algebra.table,
    )


def _as_tuple(violation, number):
    if violation is None:
        return None
    assert all(type(a) is Fraction for a in violation.residual)
    return getattr(violation, number), violation.indices, violation.residual


def _assert_checks_match_dense(pair):
    """validate_action on both tables and validate_compatible against the dense loops."""
    n_alg = pair.ideal_algebra
    for act, actor, acted in ((pair.act_on_ideal, pair.algebra, n_alg), (pair.act_on_algebra, n_alg, pair.algebra)):
        assert _as_tuple(validate_action(act, actor, acted), "axiom") == _dense_action(act, actor, acted)
    assert _as_tuple(validate_compatible(pair), "equation") == _dense_compatibility(pair)


def test_broken_tables_give_the_dense_first_violation():
    cases = [
        (ActionData.from_rows(1, 3, [[(1, 0, 0), (0, 0, 0), (0, 0, 0)]]), LieAlgebra.abelian(1), heisenberg1()),
        (ActionData.from_rows(2, 1, [[(1,)], [(1,)]]), nonabelian2(), LieAlgebra.abelian(1)),
    ]
    for act, actor, acted in cases:
        dense = _dense_action(act, actor, acted)
        assert dense is not None
        assert _as_tuple(validate_action(act, actor, acted), "axiom") == dense
    a = heisenberg1()
    centre = make_pair(a, [(0, 0, 1)])
    incompatible = Pair(
        a, centre.ideal,
        ActionData.from_rows(3, 1, [[(1,)], [(0,)], [(0,)]]),
        ActionData.from_rows(1, 3, [[(1, 0, 0), (0, 0, 0), (0, 0, 1)]]),
    )
    assert _dense_compatibility(incompatible) == (1, (0, 0, 0), (Fraction(1),))
    _assert_checks_match_dense(incompatible)


def _perturbed(pair, rng):
    """The pair with one to three random entries of its action tables moved by a small rational."""
    tables = [[list(row) for row in pair.act_on_ideal.table], [list(row) for row in pair.act_on_algebra.table]]
    for _ in range(rng.randint(1, 3)):
        table = rng.choice(tables)
        i, j = rng.randrange(len(table)), rng.randrange(len(table[0]))
        v = list(table[i][j])
        v[rng.randrange(len(v))] += Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        table[i][j] = tuple(v)
    p, q = pair.left_dim, pair.right_dim
    return Pair(pair.algebra, pair.ideal, ActionData.from_rows(p, q, tables[0]), ActionData.from_rows(q, p, tables[1]))


DIFFERENTIAL_PAIRS = {
    f"{kind}({name})": (name, kind)
    for name, algebra in IDEAL_ALGEBRAS.items()
    for kind in ideals(algebra)
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL_PAIRS))
def test_perturbed_tables_give_the_dense_first_violation(name):
    algebra_name, kind = DIFFERENTIAL_PAIRS[name]
    algebra = IDEAL_ALGEBRAS[algebra_name]
    pair = make_pair(algebra, ideals(algebra)[kind].basis)
    _assert_checks_match_dense(pair)  # the inner actions pass both
    rng = random.Random(f"actions/{name}")
    for _ in range(6):
        _assert_checks_match_dense(_perturbed(pair, rng))


@pytest.mark.parametrize("name", list(DIFFERENTIAL_PAIRS))
def test_make_pair_keeps_the_action_tables_as_supports(name, monkeypatch):
    algebra_name, kind = DIFFERENTIAL_PAIRS[name]
    algebra = IDEAL_ALGEBRAS[algebra_name]
    vectors = ideals(algebra)[kind].basis

    def no_dense_round_trip(*args):
        raise AssertionError("make_pair read a dense vector back into a support")

    with monkeypatch.context() as patch:
        for module in (tensoralg.pairs, tensoralg.liealg, tensoralg.linalg):
            for helper in ("support", "from_support"):
                if hasattr(module, helper):
                    patch.setattr(module, helper, no_dense_round_trip)
        pair = make_pair(algebra, vectors)
    p, q = pair.left_dim, pair.right_dim
    for act in (pair.act_on_ideal, pair.act_on_algebra):
        assert "table" not in vars(act)
        # read afterwards, the dense table is the one the supports stand for
        assert act._supports == tuple(tuple(tuple(support(v)) for v in row) for row in act.table)
        again = ActionData.from_rows(act.actor_dim, act.acted_dim, act.table)
        assert again == act and hash(again) == hash(act)
    for i in range(p):
        for a in range(q):
            w = algebra.bracket_sparse(((i, 1),), pair.ideal.space.entries[a])
            assert pair.inclusion.apply_entries(dict(pair.act_on_ideal.act_entries(i, a))) == w
            assert dict(pair.act_on_algebra.act_entries(a, i)) == {k: -x for k, x in w.items()}


# Differential test of the pairs built by theorem: each must equal the pair
# the checked make_pair builds on the same ideal vectors, in seeded permuted
# bases, so that no fixed basis order hides a wrong sign or coordinate.


def _permuted(name, rng):
    """The pair DIFFERENTIAL_PAIRS names, written in a randomly permuted algebra basis."""
    algebra_name, kind = DIFFERENTIAL_PAIRS[name]
    algebra = IDEAL_ALGEBRAS[algebra_name]
    perm = list(range(algebra.dim))
    rng.shuffle(perm)
    return rebased(make_pair(algebra, ideals(algebra)[kind].basis), [algebra.basis_vector(k) for k in perm])


@pytest.mark.parametrize("name", list(DIFFERENTIAL_PAIRS))
def test_pairs_by_theorem_equal_the_checked_pairs(name):
    rng = random.Random(f"theorem-pairs/{name}")
    pair = _permuted(name, rng)
    algebra = pair.algebra

    full = pair_full(algebra)
    assert full == make_pair(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])
    assert "ideal_algebra" in vars(full)  # seeded, not rebuilt

    assert pair_center(algebra) == make_pair(algebra, center(algebra).space.basis)

    q = quotient_pair(pair)
    images = [q.proj_algebra.map.apply(v) for v in pair.ideal.space.basis]
    assert q.pair == make_pair(q.pair.algebra, images)

    other = _permuted(rng.choice(list(DIFFERENTIAL_PAIRS)), rng)
    for a, b in ((pair, other), (other, pair)):
        vectors = [v + (0,) * b.left_dim for v in a.ideal.space.basis]
        vectors += [(0,) * a.left_dim + v for v in b.ideal.space.basis]
        assert direct_sum_pair(a, b) == make_pair(direct_sum(a.algebra, b.algebra), vectors)


# Differential test of the ideal's algebra.  It is read through the coordinate
# map, which tests no membership, so its table must equal the dense oracle's,
# which solves for each bracket's coordinates by its own elimination.


def _ideal_table_mismatches(pair):
    """The (a, b), a < b, at which the ideal algebra's bracket differs from the dense subalgebra table."""
    algebra, n_alg = pair.algebra, pair.ideal_algebra
    p, q = algebra.dim, n_alg.dim
    dense = {(i, j): from_support(algebra.bracket_entries(i, j), p) for i in range(p) for j in range(i + 1, p)}
    expected = dense_subalgebra_brackets(p, dense, pair.ideal.space.basis)
    got = {
        (a, b): from_support(n_alg.bracket_entries(a, b), q)
        for a in range(q) for b in range(a + 1, q) if n_alg.bracket_entries(a, b)
    }
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def _internal(tables):
    """True when every value in the given supports is an int where it is integral."""
    return all(type(c) is int or c.denominator != 1 for entries in tables for _, c in entries)


def _ideal_case(name):
    if name in DIFFERENTIAL_PAIRS:
        return _permuted(name, random.Random(f"ideal-algebra/{name}"))
    return resolve_selector(name)


@pytest.mark.parametrize("name", [*DIFFERENTIAL_PAIRS, *catalog_selectors()])
def test_ideal_algebra_matches_the_dense_subalgebra(name):
    pair = _ideal_case(name)
    algebra = pair.algebra
    q = quotient_pair(pair)
    for p in (pair, pair_full(algebra), q.pair):
        assert _ideal_table_mismatches(p) == []
        assert p.ideal_algebra.basis_names == tuple(f"n{k}" for k in range(p.right_dim))
        assert _internal([e for _, e in p.ideal_algebra._brackets])
        assert _internal(e for row in p.act_on_ideal._supports for e in row)
    assert _internal(q.proj_ideal.map._columns)
    assert AlgebraHom.make(q.proj_ideal.source, q.proj_ideal.target, q.proj_ideal.map) == q.proj_ideal
    # the quotients built by theorem equal what the checked quotient_algebra builds
    assert (q.pair.algebra, q.proj_algebra) == quotient_algebra(algebra, pair.relative_commutator)
    assert abelianization(algebra) == quotient_algebra(algebra, algebra.derived_algebra)


def test_a_wrong_coordinate_map_is_caught(monkeypatch):
    # planted: the coordinate map reads the last pivot with the wrong sign
    real = tensoralg.pairs.subspace_maps

    def flipped(space):
        coordinates, inclusion = real(space)
        last = space.dim - 1
        columns = tuple(tuple((t, -c if t == last else c) for t, c in col) for col in coordinates._columns)
        return LinearMap(coordinates.codomain_dim, columns), inclusion

    monkeypatch.setattr(tensoralg.pairs, "subspace_maps", flipped)
    caught = [name for name in DIFFERENTIAL_PAIRS if _ideal_table_mismatches(_ideal_case(name))]
    assert caught


# pair_is_clean and complement_condition compare dimensions; the dense
# reference compares the spaces N meet [L, L], [N, L] and [L, L] themselves,
# each built from the dense bracket table.  The pairs include item 4's
# (n4, [n4, n4]) as "derived(n4)".
HYPOTHESIS_PAIRS = [*DIFFERENTIAL_PAIRS, *catalog_selectors()]


def _hypothesis_case(name):
    if name in DIFFERENTIAL_PAIRS:
        return _permuted(name, random.Random(f"hypotheses/{name}"))
    return resolve_selector(name)


def _dense_hypotheses(pair):
    """(N meet [L, L] == [N, L], [N, L] == [L, L]) by dense spans."""
    dim, table = pair.left_dim, dict(pair.algebra.brackets)
    units = [pair.algebra.basis_vector(i) for i in range(dim)]
    ideal = pair.ideal.space.basis
    derived = dense_span(dim, [dense_bracket(dim, table, x, y) for x in units for y in units])
    comm = dense_span(dim, [dense_bracket(dim, table, n, x) for n in ideal for x in units])
    return dense_span_intersect(dim, ideal, derived) == comm, comm == derived


@pytest.mark.parametrize("name", HYPOTHESIS_PAIRS)
def test_pair_hypotheses_match_the_dense_intersection(name):
    pair = _hypothesis_case(name)
    assert (pair_is_clean(pair), complement_condition(pair)) == _dense_hypotheses(pair)


def test_the_hypothesis_sweep_meets_every_outcome():
    outcomes = {_dense_hypotheses(_hypothesis_case(name)) for name in HYPOTHESIS_PAIRS}
    # [N, L] = [L, L] contains N meet [L, L], so the complement condition implies cleanliness
    assert outcomes == {(True, True), (True, False), (False, False)}
