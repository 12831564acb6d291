"""Finite-dimensional Lie algebras over the rationals, given by structure constants.

A ``LieAlgebra`` stores only the supports of the brackets of basis pairs
(i, j) with i < j; antisymmetry is implied by the storage.  ``ad[i][j]``
lists the nonzero (k, c) entries of [e_i, e_j], for both orders of each
nonzero pair, built once on first use, and [L, L] is the span of the stored
brackets, with no bracket formed.  Each type is checked once, where outside
input enters: a table by :meth:`LieAlgebra.make`, a homomorphism by
:meth:`AlgebraHom.make`, an ideal by :func:`quotient_algebra` (and by
``pairs.make_pair``).  The two ideal checks share one membership loop,
``_ideal_witness``: ``quotient_algebra`` feeds it the brackets [e_i, s_a], and
``make_pair`` the pair's collapse columns, which hold the same brackets.  The
positional constructors are trusted by contract; the library uses them for
direct sums, quotients, subalgebras, tensor products and quotient
projections, which are what they claim by theorem.
The private ``_induced_algebra`` is the one builder of every derived table
but direct sums: it brackets representatives and reads the result back
through a map.  It gives quotients (through ``_quotient``), a pair's ideal
algebra (through ``linalg.subspace_maps``), the tensor product (through the
symbol bracket) and the exterior product (through the tensor's).  Raw
structure-constant tables are checked by :func:`validate_structure`, which returns violations
as values.  It reads a dense table that nothing in the package builds; it
stays as the dense reference that the benchmark harness traces by name,
until the benchmark is refreshed (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import (
    Entries,
    Exact,
    LinalgError,
    LinearMap,
    Subspace,
    Support,
    Vector,
    _entries,
    _sorted_entries,
    as_vector,
    from_support,
    kernel,
    quotient_maps,
    support,
)

# ad[i] maps each j with [e_i, e_j] != 0 to the entries of [e_i, e_j].
SupportTable = tuple[dict[int, Entries], ...]
# The nonzero brackets of pairs i < j with their entries, both in index order.
BracketTable = tuple[tuple[tuple[int, int], Entries], ...]


class StructureError(ValueError):
    """A structure-constant table failed validation."""

    def __init__(self, violation: "StructureViolation"):
        super().__init__(str(violation))
        self.violation = violation


class NotAnIdealError(ValueError):
    """A subspace was used where an ideal is required."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class StructureViolation:
    """First broken axiom found in a table: kind, index tuple, residual value."""

    kind: str  # "antisymmetry" or "jacobi"
    indices: tuple[int, ...]
    residual: Fraction

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.indices}, residual {self.residual}"


def _support_table(dim: int, brackets: Iterable[tuple[tuple[int, int], Entries]]) -> SupportTable:
    """The support adjacency of the bracket supports given for pairs i < j; zero brackets are left out."""
    ad: SupportTable = tuple({} for _ in range(dim))
    for (i, j), entries in brackets:
        if entries:
            ad[i][j] = entries
            ad[j][i] = tuple((k, -c) for k, c in entries)
    return ad


def _jacobi_violation(dim: int, ad: SupportTable) -> StructureViolation | None:
    """First (i, j, k, m) with i < j < k where [e_i,[e_j,e_k]] + cyclic has a nonzero m-th entry.

    A triple whose three inner brackets all vanish sums to zero and is skipped.
    """
    for i in range(dim):
        for j in range(i + 1, dim):
            ij = ad[i].get(j)
            for k in range(j + 1, dim):
                jk = ad[j].get(k)
                ki = ad[k].get(i)
                if not (ij or jk or ki):
                    continue
                total: dict[int, Exact] = {}
                for outer, inner in ((i, jk), (j, ki), (k, ij)):
                    row = ad[outer]
                    for t, c in inner or ():
                        for m, x in row.get(t, ()):
                            total[m] = total.get(m, 0) + c * x
                bad = [m for m, x in total.items() if x != 0]
                if bad:
                    m = min(bad)
                    return StructureViolation("jacobi", (i, j, k, m), Fraction(total[m]))
    return None


def validate_structure(dim: int, table: Sequence[Sequence[Sequence]]) -> StructureViolation | None:
    """Check a full structure-constant table c[i][j][k].

    Returns the first violation in index order, or None when the table
    defines a Lie algebra.  Antisymmetry is checked before Jacobi.
    """
    c = [[as_vector(table[i][j]) for j in range(dim)] for i in range(dim)]
    for row in c:
        for v in row:
            if len(v) != dim:
                raise LinalgError("structure constant vector of wrong length")
    for i in range(dim):
        for j in range(i, dim):
            for k in range(dim):
                residual = c[i][j][k] + c[j][i][k]
                if residual != 0:
                    return StructureViolation("antisymmetry", (i, j, k), residual)
    upper = (((i, j), tuple(support(c[i][j]))) for i in range(dim) for j in range(i + 1, dim))
    return _jacobi_violation(dim, _support_table(dim, upper))


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra with brackets stored for basis pairs i < j only.

    ``_brackets`` lists each nonzero [e_i, e_j] with its (k, c) entries,
    sorted by (i, j) and by k, values in internal form: a canonical table,
    taken as trusted here and checked by :meth:`make`.  What is derived from
    the algebra alone is built once and shared: ``_ad``, ``brackets``, [L, L].
    """

    dim: int
    basis_names: tuple[str, ...]
    _brackets: BracketTable

    def __post_init__(self):
        if self.dim < 0:
            raise LinalgError("negative dimension")
        if len(self.basis_names) != self.dim:
            raise LinalgError("basis name count does not match dimension")
        if len(set(self.basis_names)) != self.dim:
            raise LinalgError("duplicate basis names")

    @classmethod
    def make(cls, dim: int, basis_names: Sequence[str], brackets: Mapping[tuple[int, int], Sequence]) -> "LieAlgebra":
        """Build from an i < j bracket mapping and verify the Jacobi identity.

        Each bracket is read once, densely or as a mapping from index to
        scalar; zero brackets are dropped.
        """
        supports = []
        for (i, j) in sorted(brackets):
            if not (0 <= i < j < dim):
                raise LinalgError("bracket index pair must satisfy 0 <= i < j < dim")
            entries = _entries(brackets[(i, j)], dim)
            if entries:
                supports.append(((i, j), _sorted_entries(entries)))
        algebra = cls(dim, tuple(basis_names), tuple(supports))
        violation = algebra.jacobi_violation()
        if violation is not None:
            raise StructureError(violation)
        return algebra

    @classmethod
    def abelian(cls, dim: int, basis_names: Sequence[str] | None = None) -> "LieAlgebra":
        names = tuple(basis_names) if basis_names is not None else tuple(f"a{k + 1}" for k in range(dim))
        return cls(dim, names, ())

    @cached_property
    def brackets(self) -> tuple[tuple[tuple[int, int], Vector], ...]:
        """The nonzero brackets [e_i, e_j], i < j, as Fraction vectors, built on first read."""
        return tuple((ij, from_support(entries, self.dim)) for ij, entries in self._brackets)

    @cached_property
    def _ad(self) -> SupportTable:
        return _support_table(self.dim, self._brackets)

    @cached_property
    def derived_algebra(self) -> "AlgebraSubspace":
        """[L, L] as a subspace of L: by bilinearity the span of the stored brackets [e_i, e_j], i < j."""
        return AlgebraSubspace(self, Subspace.from_vectors(self.dim, [dict(e) for _, e in self._brackets]))

    def bracket_entries(self, i: int, j: int) -> Entries:
        """The nonzero (k, c) entries of [e_i, e_j]."""
        return self._ad[i].get(j, ())

    def bracket_sparse(self, xs: Support, ys: Support) -> dict[int, Exact]:
        """[x, y] as {k: coefficient} over its nonzero coefficients, for x and y given by supports."""
        y = dict(ys)
        acc: dict[int, Exact] = {}
        for i, xi in xs:
            row = self._ad[i]
            # walk the shorter of the row and the support of y
            if len(row) < len(y):
                terms = ((e, y.get(j)) for j, e in row.items())
            else:
                terms = ((row.get(j), yj) for j, yj in y.items())
            for entries, yj in terms:
                if entries and yj:
                    c = xi * yj
                    for k, x in entries:
                        acc[k] = acc.get(k, 0) + c * x
        return {k: x for k, x in acc.items() if x != 0}

    def jacobi_violation(self) -> StructureViolation | None:
        return _jacobi_violation(self.dim, self._ad)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))

    def is_abelian(self) -> bool:
        return not self._brackets

    def name_of(self, i: int) -> str:
        return self.basis_names[i]


@dataclass(frozen=True)
class AlgebraSubspace:
    """A subspace of a Lie algebra's underlying vector space."""

    parent: LieAlgebra
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.parent.dim:
            raise LinalgError("subspace ambient does not match the algebra")

    @classmethod
    def from_vectors(cls, parent: LieAlgebra, vectors: Sequence[Iterable]) -> "AlgebraSubspace":
        return cls(parent, Subspace.from_vectors(parent.dim, vectors))

    @classmethod
    def full(cls, parent: LieAlgebra) -> "AlgebraSubspace":
        return cls(parent, Subspace.full(parent.dim))

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_ideal(self) -> tuple[int, Vector] | None:
        """None when [L, S] <= S, otherwise a witness (basis index, subspace vector)."""
        a, entries = self.parent, self.space.entries
        return _ideal_witness(self.space, (a.bracket_sparse(((i, 1),), s) for i in range(a.dim) for s in entries))


@dataclass(frozen=True)
class AlgebraHom:
    """A linear map between Lie algebras that respects brackets: trusted by
    contract, checked by :meth:`make`; the constructor checks the shape."""

    source: LieAlgebra
    target: LieAlgebra
    map: LinearMap

    def __post_init__(self):
        if self.map.domain_dim != self.source.dim or self.map.codomain_dim != self.target.dim:
            raise LinalgError("homomorphism matrix has wrong shape")

    @classmethod
    def make(cls, source: LieAlgebra, target: LieAlgebra, map: LinearMap) -> "AlgebraHom":
        """Build and verify that f[e_i, e_j] = [f e_i, f e_j] for every basis pair i < j."""
        images = [map.column_entries(i) for i in range(source.dim)]
        for i in range(source.dim):
            for j in range(i + 1, source.dim):
                if map._image(source.bracket_entries(i, j)) != target.bracket_sparse(images[i], images[j]):
                    raise LinalgError(f"map does not respect the bracket of basis pair ({i}, {j})")
        return cls(source, target, map)


def center(a: LieAlgebra) -> AlgebraSubspace:
    """Kernel of v |-> ([v, b_0], ..., [v, b_{p-1}]) stacked into one map.

    Block j is the matrix of v |-> [v, b_j]; its row k holds the coefficients
    of b_k in [b_i, b_j] over i, so column i is read off the support table.
    Rows that are zero are left out, which does not change the kernel.
    """
    row_of: dict[tuple[int, int], int] = {}
    columns = [
        {row_of.setdefault((j, k), len(row_of)): c for j, entries in a._ad[i].items() for k, c in entries}
        for i in range(a.dim)
    ]
    return AlgebraSubspace(a, kernel(LinearMap.from_columns(len(row_of), columns)))


def _induced_algebra(bracket: Callable[[Support, Support], Mapping[int, Exact]], read: LinearMap,
                     representatives: LinearMap, prefix: str) -> LieAlgebra:
    """The algebra on prefix0, prefix1, ... with [b_i, b_j] = read(bracket(r_i, r_j)), r_k the k-th column of representatives.

    bracket maps two supports to their bracket as a dict, zeros allowed.  A
    quotient's projection and section give the quotient by an ideal, a
    subalgebra's coordinate map and inclusion the subalgebra; every caller
    builds a Lie algebra by theorem, so nothing is checked."""
    columns = representatives._columns
    brackets = []
    for i, ri in enumerate(columns):
        for j in range(i + 1, len(columns)):
            w = bracket(ri, columns[j])
            if w:
                v = read._image(w.items())
                if v:
                    brackets.append(((i, j), _sorted_entries(v)))
    return LieAlgebra(len(columns), tuple(f"{prefix}{k}" for k in range(len(columns))), tuple(brackets))


def _quotient(a: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, LinearMap]:
    """The quotient on q0, q1, ... by a subspace trusted to be an ideal, with its projection."""
    proj, section = quotient_maps(a.dim, ideal)
    return _induced_algebra(a.bracket_sparse, proj, section, "q"), proj


def _ideal_witness(space: Subspace, brackets: Iterable[Mapping[int, Exact]]) -> tuple[int, Vector] | None:
    """The first (i, s_a) whose bracket leaves the space, or None when none does.

    brackets yields [e_i, s_a], or its negative, sparsely, for i over the
    algebra's basis and then s_a over the space's RREF basis; it is read up to
    the first bracket outside the space.
    """
    q = space.dim
    for k, w in enumerate(brackets):
        if not space.contains(w):
            i, a = divmod(k, q)
            return i, space.basis[a]
    return None


def _require_ideal(witness: tuple[int, Vector] | None) -> None:
    """NotAnIdealError for an ideal check's witness; None passes."""
    if witness is not None:
        raise NotAnIdealError(f"bracket of basis element {witness[0]} leaves the span", witness=witness)


def quotient_algebra(a: LieAlgebra, ideal: AlgebraSubspace) -> tuple[LieAlgebra, AlgebraHom]:
    """The quotient algebra and its projection, through the canonical section; the ideal is checked."""
    if ideal.parent != a:
        raise LinalgError("ideal parent mismatch")
    _require_ideal(ideal.is_ideal())
    quotient, proj = _quotient(a, ideal.space)
    return quotient, AlgebraHom(a, quotient, proj)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block direct sum; names are suffixed by summand to stay unique."""
    names = tuple(f"{n}.1" for n in a.basis_names) + tuple(f"{n}.2" for n in b.basis_names)
    n = a.dim
    shifted = tuple(((n + i, n + j), tuple((n + k, c) for k, c in e)) for (i, j), e in b._brackets)
    return LieAlgebra(n + b.dim, names, a._brackets + shifted)


def abelianization(a: LieAlgebra) -> tuple[LieAlgebra, AlgebraHom]:
    """L/[L, L] and its projection; [L, L] is an ideal by theorem, so it is not checked."""
    quotient, proj = _quotient(a, a.derived_algebra.space)
    return quotient, AlgebraHom(a, quotient, proj)
