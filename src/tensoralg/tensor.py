"""Nonabelian tensor product of a pair, with its derived subspaces and maps.

The construction is presentation by generators and relations.  Generators are
the basis symbols l_i (x) n_a, spanning a space V of dimension p * q.  The
defining relations expand brackets in either slot through the actions, the
inner ones l . n = [l, n] in N and n . l = [n, l] in L:

    (R1)  [l, l'] (x) n   =  l (x) (l'. n)  -  l' (x) (l . n)
    (R2)  l (x) [n, n']   =  (n'. l) (x) n  -  (n . l) (x) n'

Let R0 be their span, and lam(l (x) n) = n . l in L, rho(l (x) n) = l . n in N
the two collapses (Pair.collapse_maps).  The bracket on symbols is beta(u, v) = -lam(u) (x) rho(v),
that is [l (x) n, l' (x) n'] = -(n . l) (x) (l'. n').  The quotient V / R0 is
the tensor product, and R0 needs no closing.  The proof rests on the Jacobi
identity of L, in the form of the two action axioms, [l, l'] . n =
l . (l'. n) - l'. (l . n) and l . [n, n'] = [l . n, n'] + [n, l . n'] (and
their mirrors for N acting on L), and of the compatibility equations
(n . l) . n' = [n', l . n] and (l . n) . l' = [l', n . l], which for the
inner actions are Jacobi and antisymmetry; "=" in (b) and (c) is taken
modulo R0.

(a) lam and rho vanish on R0.  rho(R1) and lam(R2) vanish by the first
    action axiom.  lam(R1) = n.[l, l'] - (l'.n).l + (l.n).l', which the
    second axiom and compatibility turn into
    [n.l, l'] + [l, n.l'] - [l, n.l'] + [l', n.l] = 0; rho(R2) is its
    mirror.  So beta(R0, V) = beta(V, R0) = 0.
(b) R1 on (n.l, l', n') and then R2 on (l', n', l.n) give
    (n.l) (x) (l'.n') = [n.l, l'] (x) n' + l' (x) [n', l.n]
                      = ([n.l, l'] + [l', n.l]) (x) n' - (n'.l') (x) (l.n)
                      = -(n'.l') (x) (l.n),
    so every antisymmetry defect beta(u, v) + beta(v, u) lies in R0.
(c) With x_i = lam(u_i) and y_i = rho(u_i), compatibility gives x_2 . y_3 =
    [y_3, y_2] and y_2 . x_1 = [x_1, x_2], so the Jacobi defect is
    J = sum_cyc x_1 (x) [y_3, y_2].  R2 gives J = 2S for
    S = sum_cyc [x_1, x_2] (x) y_3, and R1 gives S = 2J.  So 3J, and over the
    rationals J, lies in R0.

So the quotient is a Lie algebra, and none of (a) to (c) is checked again
but (a) on the relation basis, in closure().  Every pair passes it, so that
check guards against a fault of the engine (a wrong collapse column, a wrong
relation), not against an input.

Derived data: the diagonal ideal generated by n (x) n, the exterior product
(quotient by the diagonal), the evaluation map sending l (x) n to l . n, and
the kernels and images that go with them.  The exterior product and the
evaluation maps also need (iota n) . n = [n, n] = 0 for n in N; kappa_maps
checks it, again as a guard against a fault of the engine, and the diagonal
is then central.

Every product of ideal vectors is formed here, by three private functions
that the diagonal, the squaring map of the gamma module and the verifier
share: _ideal_class (the class of a sum of x (x) y, x lifted into L),
_squares (the polarized squares of a family of representatives) and
_induced_map (the map of tensor products induced by a morphism of pairs).
The first two are the only readers of the inclusion of N into L.  The
evaluation map kappa needs no lift: kappa(l (x) n) = [l, n] = -(n . l) =
-lam(l (x) n), so kappa is -lam after the section, and its column k is the
negated column of lam at the section's symbol k.

construct_tensor builds the relations, the projection and the section, and
kappa_maps the diagonal, the evaluation maps and their kernels.  The bracket
tables, NonabelianTensor.algebra and DerivedMaps.exterior, are built on first
read, so a caller that reads only dimensions and subspaces, as verify_pair
and verify_kunneth do, builds neither.  Both come, unchecked, from liealg._induced_algebra:
the tensor's projects beta of the section's representatives, a Lie bracket by
(a) to (c); the exterior's projects the tensor's bracket of eps_section's
representatives through eps, a quotient by the diagonal, a central ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .liealg import LieAlgebra, _induced_algebra
from .linalg import (
    Entries,
    Exact,
    LinearMap,
    Subspace,
    Support,
    Vector,
    _entries,
    from_support,
    kernel,
    quotient_maps,
)
from .pairs import Pair


class TensorConstructionError(RuntimeError):
    """The relations or the evaluation map do not descend to the quotient."""


def _add_expansion(acc: dict[int, Exact], x: Support, n: Support, q: int) -> None:
    """acc += x (x) n in symbol coordinates, for sparse x over L and n over N."""
    for i, xi in x:
        for a, na in n:
            k = i * q + a
            acc[k] = acc.get(k, 0) + xi * na


def _relations(
    units: set[int], sums: dict, algebra: LieAlgebra, cols: Sequence[Entries], inner: int, so: int, si: int
) -> None:
    """Record the relations [e_u, e_v] (x) f_a - e_u (x) c(v, a) + e_v (x) c(u, a), for u < v.

    The e_u are the basis of algebra, the f_a the inner ones of the other
    side, and c(u, a), the collapse of the symbol of e_u and f_a, is column
    u * so + a * si of cols.  Entry k of the bracket sits at symbol
    k * so + a * si, and entry k of c(v, a) beside e_u at u * so + k * si.
    (R1) is L with the right collapse, so = q and si = 1; (R2) is N with the
    left collapse, so = 1 and si = q.  A relation's entries are counted before
    anything is built: none, and it is skipped; one, and its symbol goes into
    units; more, and it is summed in place as one dict, kept in sums once
    unless it is zero."""
    dim = algebra.dim
    for u in range(dim):
        for v in range(u + 1, dim):
            bracket = algebra.bracket_entries(u, v)
            nb = len(bracket)
            for a in range(inner):
                base = a * si
                cu, cv = cols[u * so + base], cols[v * so + base]
                size = nb + len(cu) + len(cv)
                if size == 1:
                    if nb:
                        units.add(bracket[0][0] * so + base)
                    elif cv:
                        units.add(u * so + cv[0][0] * si)
                    else:
                        units.add(v * so + cu[0][0] * si)
                elif size:
                    acc = {k * so + base: c for k, c in bracket}
                    at = u * so
                    for k, c in cv:
                        s = at + k * si
                        acc[s] = acc.get(s, 0) - c
                    at = v * so
                    for k, c in cu:
                        s = at + k * si
                        acc[s] = acc.get(s, 0) + c
                    acc = {s: c for s, c in acc.items() if c}
                    if acc:
                        sums[frozenset(acc.items())] = acc


def relation_seed(pair: Pair) -> Subspace:
    """Span of the defining relations of the presentation, in symbol coordinates.

    One walk per kind, (R1) over the index triples (i < j, a) and (R2) over
    (a < b, i), counts each relation's entries in its bracket term and its two
    action terms before it builds anything.  A relation with no entry (every
    relation of an abelian pair) is skipped.  One with a single entry, a
    monomial as most relations are, is kept as its symbol, and
    Subspace.from_vectors puts it in as its unit row.  Any other is built
    once, in place, as one dict, filtered for zeros and deduplicated."""
    p, q = pair.left_dim, pair.right_dim
    left, right = (f._columns for f in pair.collapse_maps)
    units: set[int] = set()
    sums: dict = {}
    # (R1) [l_i, l_j] (x) n_a - l_i (x) (l_j . n_a) + l_j (x) (l_i . n_a)
    _relations(units, sums, pair.algebra, right, q, q, 1)
    # (R2) l_i (x) [n_a, n_b] - (n_b . l_i) (x) n_a + (n_a . l_i) (x) n_b
    _relations(units, sums, pair.ideal_algebra, left, p, 1, q)
    return Subspace.from_vectors(p * q, [{k: 1} for k in units] + list(sums.values()))


def closure(pair: Pair, seed: Subspace) -> Subspace:
    """The seed span, checked to be one the symbol bracket descends to.

    Both collapses must kill every basis vector of the seed, so that the seed
    brackets to zero with anything; otherwise TensorConstructionError.  The
    defining relations always pass and need no closing (see the module
    docstring), so the check guards against a fault of the engine, and the
    seed is returned as it is.
    """
    for name, f in zip(("left collapse n . l", "right collapse l . n"), pair.collapse_maps):
        if not f.kills(seed):
            raise TensorConstructionError(f"{name} does not kill the relations")
    return seed


@dataclass(frozen=True)
class NonabelianTensor:
    """The tensor product: quotient coordinates, projection, and section.

    Its bracket table, ``algebra``, is built on first read."""

    pair: Pair
    relations: Subspace
    projection: LinearMap  # symbol coordinates -> tensor coordinates
    section: LinearMap     # tensor coordinates -> symbol coordinates

    @property
    def dim(self) -> int:
        return self.projection.codomain_dim

    @cached_property
    def algebra(self) -> LieAlgebra:
        """The tensor product as a Lie algebra on t0, t1, ..., built on first read.

        [t_i, t_j] for i < j is the projection of beta(s_i, s_j) =
        -lam(s_i) (x) rho(s_j), s_k the section's representatives, through
        the one builder of derived tables, liealg._induced_algebra; by (a) to
        (c) of the module docstring it is a Lie bracket.
        """
        lam, rho = self.pair.collapse_maps
        q = self.pair.right_dim

        def beta(u: Support, v: Support) -> dict[int, Exact]:
            acc: dict[int, Exact] = {}
            _add_expansion(acc, [(i, -x) for i, x in lam._image(u).items()], rho._image(v).items(), q)
            return acc

        return _induced_algebra(beta, self.projection, self.section, "t")

    def tensor_of(self, x: Sequence, n: Sequence) -> Vector:
        """Class of x (x) n; x in algebra coordinates, n in ideal coordinates."""
        xs, ns = _entries(x, self.pair.left_dim), _entries(n, self.pair.right_dim)
        return from_support(self.class_entries([(xs.items(), ns.items())]).items(), self.dim)

    def class_entries(self, products: Iterable[tuple[Support, Support]]) -> dict[int, Exact]:
        """The nonzero entries of the class of the sum of x (x) n over the given supports of x in L and n in N."""
        acc: dict[int, Exact] = {}
        q = self.pair.right_dim
        for x, n in products:
            _add_expansion(acc, x, n, q)
        return self.projection._image(acc.items())


def construct_tensor(pair: Pair) -> NonabelianTensor:
    """Build the tensor product of a pair: its relations, projection and
    section.  Its bracket table is built when ``algebra`` is first read."""
    relations = closure(pair, relation_seed(pair))
    proj, section = quotient_maps(pair.left_dim * pair.right_dim, relations)
    return NonabelianTensor(pair, relations, proj, section)


def _ideal_class(tensor: NonabelianTensor, products: Iterable[tuple[Support, Support]]) -> dict[int, Exact]:
    """The entries of the class of the sum of x (x) y over pairs of ideal vectors,
    given as supports in ideal coordinates; each x is lifted into L through the inclusion."""
    inclusion = tensor.pair.inclusion
    return tensor.class_entries((inclusion._image(x).items(), y) for x, y in products)


def _squares(tensor: NonabelianTensor, reps: LinearMap) -> list[dict[int, Exact]]:
    """The entries of the classes of r_a (x) r_a and of r_a (x) r_b + r_b (x) r_a
    for a < b, r_k column k of reps in ideal coordinates.

    They come in the order (0, 0), (0, 1), ..., (1, 1), ..., which is the
    order of gamma.GammaSpace.pairs.  Each representative is lifted into L
    once; a unit column of reps lifts to the inclusion's column as stored.
    The class of x (x) n is summed straight in tensor coordinates, as the sum
    of x_i * n_c times the projection's column i * q + c."""
    lifted, cols = tensor.pair.inclusion.compose(reps)._columns, reps._columns
    proj, q = tensor.projection._columns, tensor.pair.right_dim
    d = len(cols)
    out = []
    for a in range(d):
        for b in range(a, d):
            acc: dict[int, Exact] = {}
            for x, n in ((lifted[a], cols[a]),) if a == b else ((lifted[a], cols[b]), (lifted[b], cols[a])):
                for i, xi in x:
                    at = i * q
                    for c, nc in n:
                        f = xi * nc
                        for r, m in proj[at + c]:
                            acc[r] = acc.get(r, 0) + f * m
            out.append({r: y for r, y in acc.items() if y})
    return out


def _induced_map(source: NonabelianTensor, target: NonabelianTensor, f: LinearMap, g: LinearMap) -> LinearMap:
    """The map of tensor products induced by a morphism of pairs, f on the algebras and g on the ideals.

    Built symbol by symbol, as a map from the source's symbols: column
    i * q + a is the class in target of f(l_i) (x) g(n_a).  The relations of
    the source must die in the target for the map to make sense, and that is
    checked on a basis, otherwise TensorConstructionError.  The induced map is
    the symbol map after the source's section.
    """
    symbol_map = LinearMap.from_columns(
        target.dim,
        [
            target.class_entries([(f.column_entries(i), g.column_entries(a))])
            for i in range(source.pair.left_dim)
            for a in range(source.pair.right_dim)
        ],
    )
    if not symbol_map.kills(source.relations):
        raise TensorConstructionError("projection does not kill the relations")
    return symbol_map.compose(source.section)


def diagonal(tensor: NonabelianTensor) -> Subspace:
    """The diagonal subspace, spanned by classes of n (x) n over the ideal.

    Polarization turns the quadratic family into a linear spanning set:
    _squares over the ideal's basis, the squares n_a (x) n_a together with
    n_a (x) n_b + n_b (x) n_a.
    """
    q = tensor.pair.right_dim
    return Subspace.from_vectors(tensor.dim, _squares(tensor, LinearMap(q, tuple(((a, 1),) for a in range(q)))))


@dataclass(frozen=True)
class DerivedMaps:
    """Evaluation maps out of the tensor and exterior products.

    Evaluation sends the class of l (x) n to the bracket [l, n] in the
    ambient algebra; its image is the commutator [L, N] and its kernel is
    central.  The same map factors through the exterior product, where the
    kernel is the multiplier.  The exterior product's bracket table,
    ``exterior``, is built on first read, from the tensor's.
    """

    tensor: NonabelianTensor
    kappa: LinearMap        # tensor coordinates -> ambient algebra coordinates
    j2: Subspace            # kernel of kappa, in tensor coordinates
    square: Subspace        # the diagonal, in tensor coordinates
    eps: LinearMap          # tensor coordinates -> exterior coordinates
    eps_section: LinearMap  # exterior coordinates -> tensor coordinates
    kappa_prime: LinearMap  # exterior coordinates -> ambient algebra coordinates
    multiplier: Subspace    # kernel of kappa_prime, in exterior coordinates

    @cached_property
    def exterior(self) -> LieAlgebra:
        """The exterior product as a Lie algebra on e0, e1, ..., built on first read."""
        return _induced_algebra(self.tensor.algebra.bracket_sparse, self.eps, self.eps_section, "e")


def kappa_maps(tensor: NonabelianTensor) -> DerivedMaps:
    """The diagonal, the evaluation maps, the projection onto the exterior product and the kernels.

    The evaluation map kappa sends the class of l (x) n to the ambient l . n.
    It must kill the diagonal, that is (iota n) . n = [n, n] = 0 for every n
    in N, otherwise TensorConstructionError.  Every pair passes, so the check
    guards against a fault of the engine.  The tensor's bracket table is not
    read.
    """
    box = diagonal(tensor)
    pair = tensor.pair
    lam = pair.collapse_maps[0]._columns
    # kappa(l (x) n) = [l, n] = -(n . l): column k is -lam at the section's
    # symbol k, a unit vector.  By compatibility kappa[l (x) n, l' (x) n'] =
    # [l . n, l'. n'], so kappa is a homomorphism
    kappa = LinearMap(pair.left_dim, tuple(tuple((r, -c) for r, c in lam[j]) for ((j, _),) in tensor.section._columns))
    if not kappa.kills(box):
        raise TensorConstructionError("evaluation map does not kill the diagonal")
    # -lam is iota after rho, and the inclusion iota is injective, so both
    # collapses kill the diagonal: beta(V, diagonal) = beta(diagonal, V) = 0
    # and, by (b), the diagonal is central: the quotient by it,
    # DerivedMaps.exterior, is a Lie algebra
    eps, eps_section = quotient_maps(tensor.dim, box)
    kappa_prime = kappa.compose(eps_section)
    return DerivedMaps(
        tensor=tensor,
        kappa=kappa,
        j2=kernel(kappa),
        square=box,
        eps=eps,
        eps_section=eps_section,
        kappa_prime=kappa_prime,
        multiplier=kernel(kappa_prime),
    )
