"""Tests for ideal pairs, action axioms, and compatibility."""

from fractions import Fraction

import pytest

from tensoralg.liealg import LieAlgebra, NotAnIdealError
from tensoralg.pairs import (
    ActionData,
    CompatibilityViolation,
    PairValidationError,
    complement_condition,
    direct_sum_pair,
    make_pair,
    make_pair_with_actions,
    pair_is_clean,
    quotient_pair,
    relative_abelianization_dim,
    relative_commutator,
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
    assert pair.act_on_ideal.act_basis(0, 1) == (Fraction(0), Fraction(1))
    assert pair.act_on_ideal.act_basis(1, 0) == (Fraction(0), Fraction(-1))
    assert pair.act_on_algebra.act_basis(1, 0) == (Fraction(0), Fraction(-1))


def test_make_pair_center_of_heisenberg_acts_trivially():
    a = heisenberg1()
    pair = make_pair(a, [(0, 0, 1)])
    assert pair.right_dim == 1
    assert all(
        pair.act_on_ideal.act_basis(i, 0) == (Fraction(0),) for i in range(3)
    )
    assert all(
        pair.act_on_algebra.act_basis(0, i) == (Fraction(0),) * 3 for i in range(3)
    )
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
    assert relative_commutator(full).basis() == ((Fraction(0), Fraction(0), Fraction(1)),)
    assert relative_abelianization_dim(full) == 2

    center = make_pair(a, [(0, 0, 1)])
    assert relative_commutator(center).dim == 0
    assert relative_abelianization_dim(center) == 1


def test_quotient_pair_of_nonabelian2_is_a_line():
    a = nonabelian2()
    pair = make_pair(a, [(1, 0), (0, 1)])
    q = quotient_pair(pair)
    assert q.pair.algebra.dim == 1
    assert q.pair.algebra.is_abelian()
    assert q.pair.right_dim == 1
    assert q.commutator.basis() == ((Fraction(0), Fraction(1)),)
    # the ideal projection agrees with the algebra projection on ideal vectors
    for a_idx in range(pair.right_dim):
        ambient = pair.ideal_basis_vector(a_idx)
        coords = pair.ambient_to_ideal(ambient)
        lhs = q.pair.ideal_vector_to_ambient(q.proj_ideal.apply(coords))
        assert lhs == q.proj_algebra.apply(ambient)
    assert q.proj_ideal.apply((1, 0)) == (Fraction(1),)
    assert q.proj_ideal.apply((0, 1)) == (Fraction(0),)


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
    assert relative_commutator(total).basis() == ((Fraction(0), Fraction(1), Fraction(0)),)


def test_action_apply_is_bilinear():
    a = heisenberg1()
    pair = make_pair(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    act = pair.act_on_ideal
    x = (Fraction(2), Fraction(-1), Fraction(3))
    n = (Fraction(1), Fraction(1, 2), Fraction(0))
    expected = a.bracket_vectors(x, pair.ideal_vector_to_ambient(n))
    assert pair.ideal_vector_to_ambient(act.apply(x, n)) == expected
