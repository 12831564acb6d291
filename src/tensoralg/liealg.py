"""Finite-dimensional Lie algebras over the rationals, given by structure constants.

A ``LieAlgebra`` stores only the brackets of basis pairs (i, j) with i < j;
antisymmetry is implied by the storage, so validated instances cannot even
represent an antisymmetric violation.  Every computation reads the bracket
table as supports: ``ad[i][j]`` lists the nonzero (k, c) entries of
[e_i, e_j], for both orders of each nonzero pair, built once on first use.
Raw structure-constant tables (full p x p x p grids, as they arrive from
documents or by hand) are checked by :func:`validate_structure`, which
returns violations as values rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .linalg import (
    LinalgError,
    LinearMap,
    Matrix,
    Subspace,
    Support,
    Vector,
    as_vector,
    combine,
    from_support,
    is_zero,
    kernel,
    quotient_with_section,
    support,
    zero_vector,
)

# ad[i] maps each j with [e_i, e_j] != 0 to the support of [e_i, e_j].
SupportTable = tuple[dict[int, tuple[tuple[int, Fraction], ...]], ...]


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


def _support_table(dim: int, brackets: Iterable[tuple[tuple[int, int], Vector]]) -> SupportTable:
    """The support adjacency of the brackets given for pairs i < j; zero brackets are left out."""
    ad: SupportTable = tuple({} for _ in range(dim))
    for (i, j), v in brackets:
        entries = tuple(support(v))
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
                total: dict[int, Fraction] = {}
                for outer, inner in ((i, jk), (j, ki), (k, ij)):
                    row = ad[outer]
                    for t, c in inner or ():
                        for m, x in row.get(t, ()):
                            total[m] = total.get(m, 0) + c * x
                bad = [m for m, x in total.items() if x != 0]
                if bad:
                    m = min(bad)
                    return StructureViolation("jacobi", (i, j, k, m), total[m])
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
    upper = (((i, j), c[i][j]) for i in range(dim) for j in range(i + 1, dim))
    return _jacobi_violation(dim, _support_table(dim, upper))


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra with brackets stored for basis pairs i < j only."""

    dim: int
    basis_names: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], Vector], ...]

    def __post_init__(self):
        if self.dim < 0:
            raise LinalgError("negative dimension")
        if len(self.basis_names) != self.dim:
            raise LinalgError("basis name count does not match dimension")
        if len(set(self.basis_names)) != self.dim:
            raise LinalgError("duplicate basis names")
        seen = set()
        for (i, j), v in self.brackets:
            if not (0 <= i < j < self.dim):
                raise LinalgError("bracket index pair must satisfy 0 <= i < j < dim")
            if (i, j) in seen:
                raise LinalgError("duplicate bracket entry")
            seen.add((i, j))
            if len(v) != self.dim:
                raise LinalgError("bracket vector of wrong length")
            if is_zero(v):
                raise LinalgError("zero bracket entries must be omitted")

    @classmethod
    def make(cls, dim: int, basis_names: Sequence[str], brackets: Mapping[tuple[int, int], Iterable]) -> "LieAlgebra":
        """Build from an i < j bracket mapping and verify the Jacobi identity."""
        entries = []
        for (i, j) in sorted(brackets):
            v = as_vector(brackets[(i, j)])
            if not is_zero(v):
                entries.append(((i, j), v))
        algebra = cls(dim, tuple(basis_names), tuple(entries))
        violation = algebra.jacobi_violation()
        if violation is not None:
            raise StructureError(violation)
        return algebra

    @classmethod
    def abelian(cls, dim: int, basis_names: Sequence[str] | None = None) -> "LieAlgebra":
        names = tuple(basis_names) if basis_names is not None else tuple(f"a{k + 1}" for k in range(dim))
        return cls(dim, names, ())

    @cached_property
    def _ad(self) -> SupportTable:
        return _support_table(self.dim, self.brackets)

    def bracket_entries(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """The nonzero (k, c) entries of [e_i, e_j]."""
        return self._ad[i].get(j, ())

    def bracket_basis(self, i: int, j: int) -> Vector:
        return from_support(self.bracket_entries(i, j), self.dim)

    def bracket_sparse(self, xs: Support, ys: Support) -> dict[int, Fraction]:
        """[x, y] as {k: coefficient} over its nonzero coefficients, for x and y given by supports."""
        y = dict(ys)
        acc: dict[int, Fraction] = {}
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

    def bracket_vectors(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y] by bilinear expansion over the nonzero basis brackets."""
        x = as_vector(x)
        y = as_vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise LinalgError("vector does not match algebra dimension")
        return from_support(self.bracket_sparse(support(x), support(y)).items(), self.dim)

    def jacobi_violation(self) -> StructureViolation | None:
        return _jacobi_violation(self.dim, self._ad)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))

    def is_abelian(self) -> bool:
        return not self.brackets

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

    def basis(self) -> tuple[Vector, ...]:
        return self.space.basis

    def is_ideal(self) -> tuple[int, Vector] | None:
        """None when [L, S] <= S, otherwise a witness (basis index, subspace vector)."""
        a = self.parent
        basis = [(v, support(v)) for v in self.space.basis]
        for i in range(a.dim):
            for v, sv in basis:
                w = a.bracket_sparse(((i, 1),), sv)
                if w and not self.space.contains(from_support(w.items(), a.dim)):
                    return (i, v)
        return None


@dataclass(frozen=True)
class AlgebraHom:
    """A linear map between Lie algebras that respects brackets."""

    source: LieAlgebra
    target: LieAlgebra
    map: LinearMap

    def __post_init__(self):
        if self.map.domain_dim != self.source.dim or self.map.codomain_dim != self.target.dim:
            raise LinalgError("homomorphism matrix has wrong shape")
        images = [self.map.apply(self.source.basis_vector(i)) for i in range(self.source.dim)]
        for i in range(self.source.dim):
            for j in range(i + 1, self.source.dim):
                lhs = self.map.apply(self.source.bracket_basis(i, j))
                rhs = self.target.bracket_vectors(images[i], images[j])
                if lhs != rhs:
                    raise LinalgError(f"map does not respect the bracket of basis pair ({i}, {j})")

    def apply(self, v: Sequence) -> Vector:
        return self.map.apply(v)


def bracket_subspaces(a: LieAlgebra, s: AlgebraSubspace, t: AlgebraSubspace) -> AlgebraSubspace:
    """The span [S, T]; bilinearity makes basis products a spanning set."""
    if s.parent != a or t.parent != a:
        raise LinalgError("subspace parent mismatch")
    right = [support(v) for v in t.space.basis]
    vectors = []
    for u in s.space.basis:
        left = support(u)
        for sv in right:
            w = a.bracket_sparse(left, sv)
            if w:
                vectors.append(from_support(w.items(), a.dim))
    return AlgebraSubspace(a, Subspace.from_vectors(a.dim, vectors))


def center(a: LieAlgebra) -> AlgebraSubspace:
    """Kernel of v |-> ([v, b_0], ..., [v, b_{p-1}]) stacked into one map.

    Block j is the matrix of v |-> [v, b_j]; its row k holds the coefficients
    of b_k in [b_i, b_j] over i.  Rows that are zero are left out, which does
    not change the kernel.
    """
    rows: dict[tuple[int, int], list] = {}
    for i in range(a.dim):
        for j, entries in a._ad[i].items():
            for k, c in entries:
                rows.setdefault((j, k), [Fraction(0)] * a.dim)[i] = c
    matrix = Matrix(len(rows), a.dim, tuple(tuple(rows[key]) for key in sorted(rows)))
    return AlgebraSubspace(a, kernel(LinearMap(matrix)))


def quotient_brackets(a: LieAlgebra, proj: LinearMap, section: Sequence[Vector]) -> dict[tuple[int, int], Vector]:
    """The nonzero brackets of a quotient algebra: proj([section[i], section[j]]) for i < j."""
    sections = [support(r) for r in section]
    brackets = {}
    for i, si in enumerate(sections):
        for j in range(i + 1, len(sections)):
            w = a.bracket_sparse(si, sections[j])
            if w:
                v = proj.apply(from_support(w.items(), a.dim))
                if not is_zero(v):
                    brackets[(i, j)] = v
    return brackets


def quotient_algebra(a: LieAlgebra, ideal: AlgebraSubspace) -> tuple[LieAlgebra, AlgebraHom]:
    """The quotient algebra and its projection, through the canonical section."""
    if ideal.parent != a:
        raise LinalgError("ideal parent mismatch")
    witness = ideal.is_ideal()
    if witness is not None:
        i, v = witness
        raise NotAnIdealError(
            f"[{a.name_of(i)}, subspace] leaves the subspace", witness=(i, v)
        )
    proj, section = quotient_with_section(a.dim, ideal.space)
    qdim = proj.codomain_dim
    names = tuple(f"q{k}" for k in range(qdim))
    quotient = LieAlgebra.make(qdim, names, quotient_brackets(a, proj, section))
    return quotient, AlgebraHom(a, quotient, proj)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block direct sum; names are suffixed by summand to stay unique."""
    names = tuple(f"{n}.1" for n in a.basis_names) + tuple(f"{n}.2" for n in b.basis_names)
    brackets = {}
    for (i, j), v in a.brackets:
        brackets[(i, j)] = v + zero_vector(b.dim)
    for (i, j), v in b.brackets:
        brackets[(a.dim + i, a.dim + j)] = zero_vector(a.dim) + v
    return LieAlgebra(a.dim + b.dim, names, tuple(sorted(brackets.items())))


def derived_algebra(a: LieAlgebra) -> AlgebraSubspace:
    """[L, L] as a subspace of L."""
    full = AlgebraSubspace.full(a)
    return bracket_subspaces(a, full, full)


def abelianization(a: LieAlgebra) -> tuple[LieAlgebra, AlgebraHom]:
    return quotient_algebra(a, derived_algebra(a))


def restrict_to_subalgebra(a: LieAlgebra, s: AlgebraSubspace) -> LieAlgebra:
    """The Lie algebra structure induced on a bracket-closed subspace, in its own coordinates."""
    if s.parent != a:
        raise LinalgError("subspace parent mismatch")
    basis = s.space.basis
    q = len(basis)
    brackets = {}
    for i in range(q):
        for j in range(i + 1, q):
            w = a.bracket_vectors(basis[i], basis[j])
            coords = coordinates_in(s.space, w)
            if coords is None:
                raise NotAnIdealError("subspace is not closed under the bracket", witness=(i, j))
            if not is_zero(coords):
                brackets[(i, j)] = coords
    names = tuple(f"n{k}" for k in range(q))
    return LieAlgebra.make(q, names, brackets)


def coordinates_in(space: Subspace, v: Sequence) -> Vector | None:
    """Coordinates of v in the RREF basis of ``space``, or None when outside."""
    vec = as_vector(v)
    if len(vec) != space.ambient_dim:
        raise LinalgError("vector does not match ambient dimension")
    coords = tuple(vec[p] for p in space.pivots())
    if combine(coords, space.basis, space.ambient_dim) != vec:
        return None
    return coords
