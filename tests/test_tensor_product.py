"""Tensor product construction against hand-computed presentations.

Every dimension asserted here was worked out by hand from the defining
relations before the module existed.  The relations need no closing (the
proof is in the tensor module docstring); the dense reference closure below
checks that on every pair it is given.
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from algebra_examples import IDEAL_ALGEBRAS, ideals, rebased, sl2
from oracles import combine, dense_act, dense_jacobi_violation, vadd, vscale

import tensoralg.tensor
from tensoralg.catalog import abelian, catalog_selectors, heisenberg, pair_center, pair_full, resolve_selector
from tensoralg.liealg import AlgebraHom, LieAlgebra, abelianization, direct_sum, validate_structure
from tensoralg.linalg import LinalgError, Subspace, from_support, kernel, quotient_maps, support
from tensoralg.pairs import ActionData, Pair, make_pair, make_pair_with_actions, quotient_pair
from tensoralg.tensor import (
    SymbolSpace,
    TensorConstructionError,
    closure,
    construct_tensor,
    diagonal,
    exterior,
    kappa_maps,
    relation_seed,
)


def nonabelian2():
    return LieAlgebra.make(2, ("x", "y"), {(0, 1): (0, 1)})


def heisenberg1():
    return LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})


def full_pair(algebra):
    return make_pair(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])


def test_symbol_space_indexing_and_expansion():
    sym = SymbolSpace(2, 3)
    assert sym.dim == 6
    assert sym.split(5) == (1, 2)
    assert sym.split(4) == (1, 1)
    assert sym.expand_entries((2, -1), (0, 3, 1)) == {1: 6, 2: 2, 4: -3, 5: -1}
    assert sym.expand_entries({0: 2, 1: -1}, {1: 3, 2: 1}) == {1: 6, 2: 2, 4: -3, 5: -1}


def test_relation_seed_of_solvable_pair():
    pair = full_pair(nonabelian2())
    seeds = relation_seed(pair)
    # symbols ordered xx, xy, yx, yy
    assert seeds.contains((0, 1, 1, 0))
    assert seeds.contains((0, 0, 0, 1))
    assert seeds.dim == 2


def test_symbol_bracket_of_solvable_pair():
    # the dense reference bracket of the differential tests, on hand-computed values
    pair = full_pair(nonabelian2())
    tables = _dense_collapse_tables(pair)
    # [x (x) y, x (x) y] = -((y . x) (x) (x . y)) = -((-y) (x) y) = y (x) y
    assert _dense_beta(pair, tables, (0, 1, 0, 0), (0, 1, 0, 0)) == (0, 0, 0, 1)
    # [y (x) x, x (x) y] = -((x . y) (x) (x . y)) = -(y (x) y)
    assert _dense_beta(pair, tables, (0, 0, 1, 0), (0, 1, 0, 0)) == (0, 0, 0, -1)


def test_tensor_square_of_solvable_algebra():
    pair = full_pair(nonabelian2())
    t = construct_tensor(pair)
    assert t.dim == 2
    assert t.relations.dim == 2
    assert t.algebra.is_abelian()
    # x (x) y and y (x) x are opposite classes
    assert t.tensor_of({0: 1}, {1: 1}) == tuple(-c for c in t.tensor_of({1: 1}, {0: 1}))
    # y (x) y dies
    assert t.tensor_of({1: 1}, {1: 1}) == (Fraction(0), Fraction(0))
    assert t.class_entries([(((1, 1),), ((1, 1),))]) == {}


def test_tensor_of_is_bilinear_on_classes():
    pair = full_pair(nonabelian2())
    t = construct_tensor(pair)
    mixed = t.tensor_of((1, 1), (1, 0))
    split = tuple(a + b for a, b in zip(t.tensor_of({0: 1}, {0: 1}), t.tensor_of({1: 1}, {0: 1})))
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
    assert maps.kappa.apply(t.tensor_of({1: 1}, {0: 1})) == (Fraction(0), Fraction(-1))
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
    cols = [maps.kappa.column_entries(k) for k in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = maps.kappa.apply_entries(dict(t.algebra.bracket_entries(i, j)))
            assert lhs == sl2().bracket_sparse(cols[i], cols[j])


def test_evaluation_image_matches_relative_commutator():
    a = heisenberg1()
    pair = full_pair(a)
    maps = kappa_maps(construct_tensor(pair))
    assert maps.kappa.image() == pair.relative_commutator.space


def test_evaluation_image_agrees_between_tensor_and_exterior():
    for pair in [full_pair(heisenberg1()), full_pair(nonabelian2()), full_pair(sl2())]:
        t = construct_tensor(pair)
        maps = kappa_maps(t)
        assert maps.kappa_prime.image() == maps.kappa.image()
        assert maps.j2.dim + maps.kappa.image().dim == t.dim
        assert maps.multiplier.dim + maps.kappa_prime.image().dim == maps.exterior.dim
        assert kernel(maps.eps) == maps.square


def _dense_beta(pair, tables, u, v):
    """The bracket of two symbol vectors, -lam(u) (x) rho(v), through the pair's dense collapse tables."""
    left, right = tables
    return vscale(-1, _outer(combine(u, left, pair.left_dim), combine(v, right, pair.right_dim)))


def _dense_bracket_table(pair):
    """The induced bracket as the full T x T table of projected symbol brackets."""
    sym = SymbolSpace(pair.left_dim, pair.right_dim)
    relations = closure(pair, relation_seed(pair))
    proj, section = quotient_maps(sym.dim, relations)
    reps = [from_support(section.column_entries(k), sym.dim) for k in range(section.domain_dim)]
    tables = _dense_collapse_tables(pair)
    return [[proj.apply(_dense_beta(pair, tables, u, v)) for v in reps] for u in reps]


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
            assert from_support(t.algebra.bracket_entries(i, j), t.dim) == table[i][j]
    assert validate_structure(t.dim, table) is None


def _unchecked_pair(algebra, ideal_vectors, on_ideal_rows, on_algebra_rows):
    """A pair whose action tables go in without the axiom and compatibility checks."""
    ideal = make_pair(algebra, ideal_vectors).ideal
    p, q = algebra.dim, ideal.space.dim
    return Pair(algebra, ideal, ActionData.from_rows(p, q, on_ideal_rows), ActionData.from_rows(q, p, on_algebra_rows))


@pytest.mark.parametrize(
    "pair, message",
    [
        # the incompatible tables of test_incompatible_actions_are_detected:
        # (z . x) = x and x . z = z
        (
            _unchecked_pair(heisenberg1(), [(0, 0, 1)], [[(1,)], [(0,)], [(0,)]], [[(1, 0, 0), (0, 0, 0), (0, 0, 1)]]),
            "left collapse n . l does not kill the relations",
        ),
        # L acts on N as the identity, N on L by zero
        (
            _unchecked_pair(nonabelian2(), [(1, 0), (0, 1)], [[(1, 0), (0, 1)]] * 2, [[(0, 0), (0, 0)]] * 2),
            "right collapse l . n does not kill the relations",
        ),
    ],
    ids=["heisenberg-centre", "nonabelian2-identity"],
)
def test_relations_the_bracket_does_not_kill_are_refused(pair, message):
    with pytest.raises(TensorConstructionError) as caught:
        construct_tensor(pair)
    assert str(caught.value) == message


def test_evaluation_that_breaks_the_bracket_is_refused():
    # sl2 (x) sl2 is sl2 again, and an abelian bracket in its place is not
    # respected by kappa.  On heisenberg(1) the image of kappa is central, so
    # the check could not fail there.  kappa_maps takes kappa for a
    # homomorphism by theorem; AlgebraHom.make is the check.  The table is
    # built on first read, so the abelian one is seeded in its cache.
    t = construct_tensor(pair_full(sl2()))
    vars(t)["algebra"] = LieAlgebra.abelian(3)
    kappa = kappa_maps(t).kappa
    with pytest.raises(LinalgError) as caught:
        AlgebraHom.make(t.algebra, t.pair.algebra, kappa)
    assert str(caught.value) == "map does not respect the bracket of basis pair (0, 1)"


def test_evaluation_that_keeps_the_diagonal_is_refused(monkeypatch):
    # taken for the diagonal, the whole of sl2 (x) sl2 = sl2 is not killed by kappa
    monkeypatch.setattr(tensoralg.tensor, "diagonal", lambda t: Subspace.full(t.dim))
    with pytest.raises(TensorConstructionError) as caught:
        kappa_maps(construct_tensor(pair_full(sl2())))
    assert str(caught.value) == "evaluation map does not kill the diagonal"


@pytest.mark.parametrize("derive", [exterior, kappa_maps], ids=["exterior", "kappa_maps"])
def test_compatible_actions_whose_evaluation_keeps_the_diagonal_are_refused(derive):
    # L = N = abelian(2), with e2 . e1 = e2 . e2 = -e2 (L on N) and e1 . e2 = -e1
    # (N on L): both axioms and both compatibility equations hold, but
    # (iota e2) . e2 = -e2 is not 0, so kappa does not kill the diagonal and
    # the exterior product is not defined by it
    on_ideal = ActionData.from_rows(2, 2, [[(0, 0), (0, 0)], [(0, -1), (0, -1)]])
    on_algebra = ActionData.from_rows(2, 2, [[(0, 0), (-1, 0)], [(0, 0), (0, 0)]])
    pair = make_pair_with_actions(LieAlgebra.abelian(2), [(1, 0), (0, 1)], on_ideal, on_algebra)
    with pytest.raises(TensorConstructionError) as caught:
        derive(construct_tensor(pair))
    assert str(caught.value) == "evaluation map does not kill the diagonal"


# ---------------------------------------------------------------- dense reference
#
# The relation seed and the closure as they were first written: every
# generator is a dense symbol vector built from full expansions, and the
# collapse tables are dense.  The construction reads sparse supports instead
# and does not close the relations; both must give the same subspaces.


def _outer(x, n):
    """x (x) n in symbol coordinates, l_i (x) n_a at i * dim N + a, as a dense tuple."""
    q = len(n)
    out = [Fraction(0)] * (len(x) * q)
    right = [(a, b) for a, b in enumerate(n) if b]
    for i, c in enumerate(x):
        if c:
            for a, b in right:
                out[i * q + a] = c * b
    return tuple(out)


def _dense_collapse_tables(pair):
    left, right = [], []
    for i in range(pair.left_dim):
        for a in range(pair.right_dim):
            left.append(pair.act_on_algebra.table[a][i])
            right.append(pair.act_on_ideal.table[i][a])
    return left, right


def _dense_relation_seed(pair):
    sym = SymbolSpace(pair.left_dim, pair.right_dim)
    algebra = pair.algebra
    n_alg = pair.ideal_algebra
    on_ideal, on_algebra = pair.act_on_ideal.table, pair.act_on_algebra.table
    p, q = sym.left_dim, sym.right_dim
    unit_l = [algebra.basis_vector(i) for i in range(p)]
    unit_n = [n_alg.basis_vector(a) for a in range(q)]
    out = []
    for i in range(p):
        for j in range(i + 1, p):
            for a in range(q):
                v = _outer(from_support(algebra.bracket_entries(i, j), p), unit_n[a])
                v = vadd(v, vscale(-1, _outer(unit_l[i], on_ideal[j][a])))
                v = vadd(v, _outer(unit_l[j], on_ideal[i][a]))
                if any(v):
                    out.append(v)
    for i in range(p):
        for a in range(q):
            for b in range(a + 1, q):
                v = _outer(unit_l[i], from_support(n_alg.bracket_entries(a, b), q))
                v = vadd(v, vscale(-1, _outer(on_algebra[b][i], unit_n[a])))
                v = vadd(v, _outer(on_algebra[a][i], unit_n[b]))
                if any(v):
                    out.append(v)
    return Subspace.from_vectors(sym.dim, out)


def _dense_closure(pair, seed):
    sym = SymbolSpace(pair.left_dim, pair.right_dim)
    left, right = _dense_collapse_tables(pair)
    p, q = sym.left_dim, sym.right_dim

    act = partial(dense_act, pair.act_on_ideal.table, p, q)

    gens = list(seed.basis)
    for u in range(sym.dim):
        for v in range(u, sym.dim):
            w = vadd(_outer(left[u], right[v]), _outer(left[v], right[u]))
            if any(w):
                gens.append(w)
    for u in range(sym.dim):
        for v in range(u + 1, sym.dim):
            for w in range(v + 1, sym.dim):
                d = _outer(left[u], act(left[v], right[w]))
                d = vadd(d, _outer(left[v], act(left[w], right[u])))
                d = vadd(d, _outer(left[w], act(left[u], right[v])))
                if any(d):
                    gens.append(d)
    relations = Subspace.from_vectors(sym.dim, gens)
    left_span = Subspace.from_vectors(p, [v for v in left if any(v)])
    right_span = Subspace.from_vectors(q, [v for v in right if any(v)])
    while True:
        fresh = []
        for r in relations.basis:
            rc = combine(r, right, q)
            if any(rc):
                for a in left_span.basis:
                    w = _outer(a, rc)
                    if not relations.contains(w):
                        fresh.append(w)
            lc = combine(r, left, p)
            if any(lc):
                for b in right_span.basis:
                    w = _outer(lc, b)
                    if not relations.contains(w):
                        fresh.append(w)
        if not fresh:
            return relations
        relations = Subspace.from_vectors(sym.dim, list(relations.basis) + fresh)


def _permuted(pair, rng):
    perm = list(range(pair.left_dim))
    rng.shuffle(perm)
    return rebased(pair, [pair.algebra.basis_vector(k) for k in perm])


DIFFERENTIAL_PAIRS = {
    # tensor-wide
    "abelian(3)": lambda: pair_full(abelian(3)),
    "abelian(4)": lambda: pair_full(abelian(4)),
    "heisenberg(2)": lambda: pair_full(heisenberg(2)),
    "heisenberg(1)+abelian(1)": lambda: pair_full(direct_sum(heisenberg(1), abelian(1))),
    # closure-deep
    "sl2": lambda: pair_full(sl2()),
    "sl2+abelian(1)": lambda: pair_full(direct_sum(sl2(), abelian(1))),
    "sl2+nonabelian2": lambda: pair_full(direct_sum(sl2(), nonabelian2())),
    "sl2+heisenberg(1)": lambda: pair_full(direct_sum(sl2(), heisenberg(1))),
    "sl2+sl2": lambda: pair_full(direct_sum(sl2(), sl2())),
    # verify-catalog
    "abelian(1)": lambda: pair_full(abelian(1)),
    "abelian(2)": lambda: pair_full(abelian(2)),
    "nonabelian2": lambda: pair_full(nonabelian2()),
    "heisenberg(1)": lambda: pair_full(heisenberg(1)),
    "center(heisenberg(1))": lambda: pair_center(heisenberg(1)),
    "nonabelian2 (+) abelian(1)": lambda: resolve_selector(
        "builtin:pair_direct_sum(pair_full(nonabelian2),pair_full(abelian(1)))"
    ),
    "center(heisenberg(1)) (+) abelian(1)": lambda: resolve_selector(
        "builtin:pair_direct_sum(pair_center(heisenberg(1)),pair_full(abelian(1)))"
    ),
}


DIFFERENTIAL_PAIRS.update(
    (f"{kind}({name})", partial(make_pair, algebra, space.basis))
    for name, algebra in IDEAL_ALGEBRAS.items()
    for kind, space in ideals(algebra).items()
)

# Zero actions pass both action axioms and both compatibility equations on any
# pair, and they are not the inner actions.
ZERO_ACTION_ALGEBRAS = {
    "heisenberg(1), zero actions": heisenberg(1),
    "sl2, zero actions": sl2(),
    "n4, zero actions": IDEAL_ALGEBRAS["n4"],
}


def _zero_actions(pair):
    p, q = pair.left_dim, pair.right_dim
    on_ideal = ActionData.from_rows(p, q, [[(0,) * q] * q] * p)
    on_algebra = ActionData.from_rows(q, p, [[(0,) * p] * p] * q)
    return make_pair_with_actions(pair.algebra, pair.ideal.space.basis, on_ideal, on_algebra)


@pytest.mark.parametrize("name", list(DIFFERENTIAL_PAIRS) + list(ZERO_ACTION_ALGEBRAS))
def test_sparse_relations_match_dense_reference(name):
    rng = random.Random(f"differential/{name}")
    if name in DIFFERENTIAL_PAIRS:
        pair = _permuted(DIFFERENTIAL_PAIRS[name](), rng)
    else:
        pair = _zero_actions(_permuted(pair_full(ZERO_ACTION_ALGEBRAS[name]), rng))
    seed = relation_seed(pair)
    assert seed == _dense_relation_seed(pair)
    # The defining relations are already closed (the proof is in the tensor
    # module docstring): the dense closure adds nothing, and closure checks
    # the seed and returns it.
    assert _dense_closure(pair, seed) == seed == closure(pair, seed)


# A quotient by an ideal and a subalgebra of a Lie algebra are Lie algebras, so
# the library builds them from a checked algebra without a Jacobi sweep.  Here
# both the sparse sweep and the dense reference sweep must find nothing on them.


@pytest.mark.parametrize("name", [*DIFFERENTIAL_PAIRS, *catalog_selectors()])
def test_unchecked_algebras_satisfy_jacobi(name):
    if name in DIFFERENTIAL_PAIRS:
        pair = _permuted(DIFFERENTIAL_PAIRS[name](), random.Random(f"jacobi/{name}"))
    else:
        pair = resolve_selector(name)
    quotient = quotient_pair(pair).pair
    # each with the prefix of its basis names
    algebras = {
        "ideal": ("n", pair.ideal_algebra),
        "exterior": ("e", exterior(construct_tensor(pair))[0]),
        "quotient": ("q", quotient.algebra),
        "quotient ideal": ("n", quotient.ideal_algebra),
        "abelianization": ("q", abelianization(pair.algebra)[0]),
    }
    for label, (prefix, algebra) in algebras.items():
        assert algebra.basis_names == tuple(f"{prefix}{k}" for k in range(algebra.dim)), label
        assert algebra.jacobi_violation() is None, label
        assert dense_jacobi_violation(algebra.dim, dict(algebra.brackets)) is None, label


# The construction checks neither the induced bracket nor the evaluation map
# nor the quotient projections: each is what it should be by theorem (the
# tensor module docstring).  Here the checks it skips run on every tensor
# product the verifier builds for a pair, the pair's and its quotient's by
# [N, L], from the dense bracket table that beta gives on both orders of
# each pair of section representatives.


def _theorem_defects(pair):
    """The skipped checks that fail, by label; empty when the theorem holds."""
    defects = []
    qp = quotient_pair(pair)
    for label, hom in (("L -> L/[N, L]", qp.proj_algebra), ("N -> N/[N, L]", qp.proj_ideal)):
        try:
            AlgebraHom.make(hom.source, hom.target, hom.map)
        except LinalgError:
            defects.append(f"{label} breaks the bracket")
    for label, p in (("pair", pair), ("quotient", qp.pair)):
        t = construct_tensor(p)
        table = _dense_bracket_table(p)
        pairs = [(i, j) for i in range(t.dim) for j in range(t.dim)]
        if any(table[i][j] != vscale(-1, table[j][i]) for i, j in pairs):
            defects.append(f"{label}: dense bracket is not antisymmetric")
        if any(table[i][j] != from_support(t.algebra.bracket_entries(i, j), t.dim) for i, j in pairs):
            defects.append(f"{label}: stored bracket is not the dense one")
        if dense_jacobi_violation(t.dim, dict(t.algebra.brackets)) is not None:
            defects.append(f"{label}: stored bracket breaks Jacobi")
        try:
            AlgebraHom.make(t.algebra, p.algebra, kappa_maps(t).kappa)
        except LinalgError:
            defects.append(f"{label}: kappa breaks the bracket")
    return defects


@pytest.mark.parametrize("name", [*DIFFERENTIAL_PAIRS, *catalog_selectors()])
def test_construction_by_theorem_matches_the_skipped_checks(name):
    if name in DIFFERENTIAL_PAIRS:
        pair = _permuted(DIFFERENTIAL_PAIRS[name](), random.Random(f"theorem/{name}"))
    else:
        pair = resolve_selector(name)
    assert _theorem_defects(pair) == []


def _flip_first_entry(dim, names, brackets):
    """LieAlgebra with the sign of the first entry of its first bracket, if any, flipped."""
    if brackets:
        (ij, ((k, c), *rest)), *others = brackets
        brackets = ((ij, ((k, -c), *rest)), *others)
    return LieAlgebra(dim, names, brackets)


def test_skipped_checks_catch_a_flipped_bracket_sign(monkeypatch):
    monkeypatch.setattr(tensoralg.tensor, "LieAlgebra", _flip_first_entry)
    # sl2 (x) sl2 is sl2, so the flipped table also breaks Jacobi and kappa;
    # sl2 is perfect, so the quotient pair is zero and has no bracket to flip
    assert _theorem_defects(pair_full(sl2())) == [
        "pair: stored bracket is not the dense one",
        "pair: stored bracket breaks Jacobi",
        "pair: kappa breaks the bracket",
    ]


def _derived_dims(pair):
    t = construct_tensor(pair)
    maps = kappa_maps(t)
    return (t.dim, maps.square.dim, maps.exterior.dim, maps.j2.dim, maps.multiplier.dim)


# (T, diagonal, exterior, j2, multiplier) of pair_full(L); the identity example
# checks them in the original basis
INVARIANCE_ALGEBRAS = {
    "heisenberg(1)": (heisenberg(1), (6, 3, 3, 5, 2)),
    "nonabelian2+abelian(1)": (direct_sum(nonabelian2(), abelian(1)), (5, 3, 2, 4, 1)),
    "sl2": (sl2(), (3, 0, 3, 0, 0)),
}
_small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@pytest.mark.parametrize("name", list(INVARIANCE_ALGEBRAS))
@settings(max_examples=20, deadline=None)
@given(entries=st.lists(_small_fractions, min_size=9, max_size=9))
@example(entries=[Fraction(int(i == j)) for i in range(3) for j in range(3)])
def test_derived_dimensions_invariant_under_rational_change_of_basis(name, entries):
    algebra, dims = INVARIANCE_ALGEBRAS[name]
    columns = [tuple(entries[3 * k : 3 * k + 3]) for k in range(3)]
    assume(Subspace.from_vectors(3, columns).dim == 3)
    assert _derived_dims(rebased(pair_full(algebra), columns)) == dims


# The construction reads subspaces and action tables sparsely: no dense basis
# or dense action table is built unless a caller reads it, and the collapse
# maps of a pair are built once, however many stages read them.

SPARSE_PAIRS = ["sl2+heisenberg(1)", "center(heisenberg(1))", "derived(gl2)", "full(r3(1/2))", "full(sl2+Q2)"]


@pytest.mark.parametrize("name", SPARSE_PAIRS)
def test_construction_builds_no_dense_view_and_one_set_of_collapse_tables(name, monkeypatch):
    pair = _permuted(DIFFERENTIAL_PAIRS[name](), random.Random(f"sparse/{name}"))
    read = []
    real = ActionData.act_entries
    monkeypatch.setattr(ActionData, "act_entries", lambda self, i, j: read.append((i, j)) or real(self, i, j))
    t = construct_tensor(pair)
    maps = kappa_maps(t)
    assert closure(pair, relation_seed(pair)) == t.relations
    assert t.algebra.dim == t.dim  # the bracket table reads the collapse maps again
    p, q = pair.left_dim, pair.right_dim
    assert len(read) == 2 * p * q
    for space in (pair.ideal.space, t.relations, maps.square, maps.j2, maps.multiplier):
        assert "basis" not in vars(space)
    for act in (pair.act_on_ideal, pair.act_on_algebra):
        assert "table" not in vars(act)
    # the dense views, once read, are the ones the sparse data stand for
    dense = _dense_collapse_tables(pair)
    assert [f.codomain_dim for f in pair.collapse_maps] == [p, q]
    for f, table in zip(pair.collapse_maps, dense):
        assert f._columns == tuple(tuple(support(v)) for v in table)
    for space in (t.relations, maps.square, maps.j2, maps.multiplier):
        assert space.entries == tuple(tuple(support(v)) for v in space.basis)
        assert space == Subspace.from_basis(space.ambient_dim, space.basis)
