"""Finite-dimensional Lie algebras over the rationals, given by structure constants.

A ``LieAlgebra`` stores only the brackets of basis pairs (i, j) with i < j;
antisymmetry is implied by the storage, so validated instances cannot even
represent an antisymmetric violation.  Raw structure-constant tables (full
p x p x p grids, as they arrive from documents or by hand) are checked by
:func:`validate_structure`, which returns violations as values rather than
raising.
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
    Vector,
    as_vector,
    is_zero,
    kernel,
    quotient_with_section,
    vadd,
    vscale,
    zero_vector,
)


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
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                for m in range(dim):
                    residual = Fraction(0)
                    for t in range(dim):
                        residual += (
                            c[j][k][t] * c[i][t][m]
                            + c[k][i][t] * c[j][t][m]
                            + c[i][j][t] * c[k][t][m]
                        )
                    if residual != 0:
                        return StructureViolation("jacobi", (i, j, k, m), residual)
    return None


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
    def _table(self) -> dict[tuple[int, int], Vector]:
        return dict(self.brackets)

    def bracket_basis(self, i: int, j: int) -> Vector:
        if i == j:
            return zero_vector(self.dim)
        if i < j:
            return self._table.get((i, j), zero_vector(self.dim))
        v = self._table.get((j, i))
        return zero_vector(self.dim) if v is None else tuple(-a for a in v)

    def bracket_vectors(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y] by bilinear expansion over the stored nonzero pairs."""
        x = as_vector(x)
        y = as_vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise LinalgError("vector does not match algebra dimension")
        out = zero_vector(self.dim)
        for (i, j), v in self.brackets:
            coeff = x[i] * y[j] - x[j] * y[i]
            if coeff != 0:
                out = vadd(out, vscale(coeff, v))
        return out

    def jacobi_violation(self) -> StructureViolation | None:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    total = vadd(
                        vadd(
                            self.bracket_vectors(self.basis_vector(i), self.bracket_basis(j, k)),
                            self.bracket_vectors(self.basis_vector(j), self.bracket_basis(k, i)),
                        ),
                        self.bracket_vectors(self.basis_vector(k), self.bracket_basis(i, j)),
                    )
                    for m in range(self.dim):
                        if total[m] != 0:
                            return StructureViolation("jacobi", (i, j, k, m), total[m])
        return None

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
        for i in range(self.parent.dim):
            for v in self.space.basis:
                w = self.parent.bracket_vectors(self.parent.basis_vector(i), v)
                if not self.space.contains(w):
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
    vectors = []
    for u in s.space.basis:
        for v in t.space.basis:
            w = a.bracket_vectors(u, v)
            if not is_zero(w):
                vectors.append(w)
    return AlgebraSubspace(a, Subspace.from_vectors(a.dim, vectors))


def center(a: LieAlgebra) -> AlgebraSubspace:
    """Kernel of v |-> ([v, b_0], ..., [v, b_{p-1}]) stacked into one map."""
    if a.dim == 0:
        return AlgebraSubspace(a, Subspace.zero(0))
    rows = []
    for j in range(a.dim):
        # Block j: matrix of v |-> [v, b_j], entry (k, i) = coefficient of b_k in [b_i, b_j].
        for k in range(a.dim):
            rows.append(tuple(a.bracket_basis(i, j)[k] for i in range(a.dim)))
    ker = kernel(LinearMap(Matrix(a.dim * a.dim, a.dim, tuple(rows))))
    return AlgebraSubspace(a, ker)


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
    brackets = {}
    for i in range(qdim):
        for j in range(i + 1, qdim):
            w = proj.apply(a.bracket_vectors(section[i], section[j]))
            if not is_zero(w):
                brackets[(i, j)] = w
    quotient = LieAlgebra.make(qdim, names, brackets)
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


def abelianization(a: LieAlgebra) -> tuple[LieAlgebra, AlgebraHom]:
    derived = bracket_subspaces(a, AlgebraSubspace.full(a), AlgebraSubspace.full(a))
    return quotient_algebra(a, derived)


def restrict_to_subalgebra(a: LieAlgebra, s: AlgebraSubspace, names_prefix: str = "n") -> LieAlgebra:
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
    names = tuple(f"{names_prefix}{k}" for k in range(q))
    return LieAlgebra.make(q, names, brackets)


def coordinates_in(space: Subspace, v: Sequence) -> Vector | None:
    """Coordinates of v in the RREF basis of ``space``, or None when outside."""
    vec = as_vector(v)
    if len(vec) != space.ambient_dim:
        raise LinalgError("vector does not match ambient dimension")
    coords = tuple(vec[p] for p in space.pivots())
    rebuilt = zero_vector(space.ambient_dim)
    for c, row in zip(coords, space.basis):
        if c != 0:
            rebuilt = vadd(rebuilt, vscale(c, row))
    if rebuilt != vec:
        return None
    return coords
