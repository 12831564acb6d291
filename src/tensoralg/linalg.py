"""Exact linear algebra over the rational field.

Vectors are tuples of ``Fraction``, matrices are immutable dense grids, and a
subspace is stored through the reduced row-echelon basis of its span, so two
subspaces are equal as sets exactly when the stored bases compare equal.
Row reduction runs fraction-free on integer-scaled rows internally; after the
final normalization the result is identical to naive exact Gaussian
elimination (the reduced echelon form is unique).

All values are immutable after construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?\Z")


class LinalgError(ValueError):
    """Dimension mismatch or malformed numeric input."""


def parse_scalar(text: str) -> Fraction:
    """Parse a rational literal: an integer, optionally '/' and a positive integer."""
    s = text.strip()
    if not _RATIONAL.match(s):
        raise LinalgError(f"not a rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise LinalgError(f"zero denominator in literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_scalar(value: Fraction) -> str:
    """Inverse of :func:`parse_scalar`; lowest terms with positive denominator."""
    return str(value)


def _coerce(entry) -> Fraction:
    if isinstance(entry, Fraction):
        return entry
    if isinstance(entry, int):
        return Fraction(entry)
    if isinstance(entry, str):
        return parse_scalar(entry)
    raise LinalgError(f"cannot coerce {entry!r} to a rational scalar")


def as_vector(entries: Iterable) -> Vector:
    return tuple(_coerce(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise LinalgError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vscale(c: Fraction, v: Vector) -> Vector:
    c = _coerce(c)
    return tuple(c * a for a in v)


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def support(v: Vector) -> list[tuple[int, Fraction]]:
    """The nonzero coordinates of v as (index, value) pairs."""
    return [(k, a) for k, a in enumerate(v) if a != 0]


def combine(coeffs: Iterable, vectors: Iterable[Vector], width: int) -> Vector:
    """The sum of c * v over paired coefficients and vectors, of length width.

    Zero coefficients and zero entries are skipped; a vector with a nonzero
    coefficient must have length width.
    """
    out = [Fraction(0)] * width
    for c, v in zip(coeffs, vectors):
        if c == 0:
            continue
        if len(v) != width:
            raise LinalgError("vector length mismatch")
        for k, a in enumerate(v):
            if a != 0:
                out[k] += c * a
    return tuple(out)


@dataclass(frozen=True)
class Matrix:
    """Dense ``rows x cols`` grid of rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise LinalgError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise LinalgError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise LinalgError("ragged matrix row")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable], cols: int | None = None) -> "Matrix":
        data = tuple(as_vector(r) for r in rows)
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            raise LinalgError("empty matrix needs an explicit column count")
        return cls(len(data), width, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def apply(self, v: Sequence) -> Vector:
        vec = as_vector(v)
        if len(vec) != self.cols:
            raise LinalgError(f"expected vector of length {self.cols}, got {len(vec)}")
        nonzero = support(vec)
        return tuple(sum((row[j] * a for j, a in nonzero), Fraction(0)) for row in self.entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinalgError("matrix shape mismatch in product")
        cols = tuple(other.column(j) for j in range(other.cols))
        data = tuple(
            tuple(sum((row[k] * col[k] for k in range(self.cols)), Fraction(0)) for col in cols)
            for row in self.entries
        )
        return Matrix(self.rows, other.cols, data)


def _int_row(row: Vector) -> tuple[int, ...]:
    # Scale a rational row to integers; sign and scale wash out at the end.
    den = 1
    for a in row:
        den = den * a.denominator // math.gcd(den, a.denominator)
    scaled = tuple(int(a * den) for a in row)
    g = 0
    for x in scaled:
        g = math.gcd(g, x)
    if g > 1:
        scaled = tuple(x // g for x in scaled)
    return scaled


def _reduce_int_row(row: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in row:
        g = math.gcd(g, x)
    if g > 1:
        return tuple(x // g for x in row)
    return row


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns.

    The shape is preserved; rows beyond the rank come out as zero rows.
    """
    work = [_int_row(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for col in range(m.cols):
        pivot_at = None
        for i in range(r, m.rows):
            if work[i][col] != 0:
                pivot_at = i
                break
        if pivot_at is None:
            continue
        work[r], work[pivot_at] = work[pivot_at], work[r]
        prow = work[r]
        a = prow[col]
        for i in range(m.rows):
            if i == r:
                continue
            b = work[i][col]
            if b == 0:
                continue
            work[i] = _reduce_int_row(tuple(a * x - b * y for x, y in zip(work[i], prow)))
        pivots.append(col)
        r += 1
        if r == m.rows:
            break
    out: list[Vector] = []
    for i, row in enumerate(work):
        if i < len(pivots):
            p = row[pivots[i]]
            out.append(tuple(Fraction(x, p) for x in row))
        else:
            out.append(zero_vector(m.cols))
    return Matrix(m.rows, m.cols, tuple(out)), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim held by its canonical RREF basis."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise LinalgError("negative ambient dimension")
        last_pivot = -1
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise LinalgError("basis vector of wrong length")
            pivot = next((j for j, a in enumerate(row) if a != 0), None)
            if pivot is None:
                raise LinalgError("zero vector stored in basis")
            if pivot <= last_pivot or row[pivot] != 1:
                raise LinalgError("basis is not in reduced echelon form")
            last_pivot = pivot
        for k, row in enumerate(self.basis):
            pivot = next(j for j, a in enumerate(row) if a != 0)
            for other in range(len(self.basis)):
                if other != k and self.basis[other][pivot] != 0:
                    raise LinalgError("basis is not in reduced echelon form")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Iterable]) -> "Subspace":
        rows = [as_vector(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise LinalgError("vector does not match ambient dimension")
        if not rows:
            return cls(ambient_dim, ())
        reduced, pivots = rref(Matrix.from_rows(rows, cols=ambient_dim))
        return cls(ambient_dim, reduced.entries[: len(pivots)])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, a in enumerate(row) if a != 0) for row in self.basis)

    def reduce(self, v: Sequence) -> Vector:
        """Canonical representative of v modulo this subspace."""
        vec = as_vector(v)
        if len(vec) != self.ambient_dim:
            raise LinalgError("vector does not match ambient dimension")
        for row in self.basis:
            pivot = next(j for j, a in enumerate(row) if a != 0)
            c = vec[pivot]
            if c != 0:
                vec = tuple(a - c * b for a, b in zip(vec, row))
        return vec

    def contains(self, v: Sequence) -> bool:
        return is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("ambient dimension mismatch in span sum")
    return Subspace.from_vectors(a.ambient_dim, list(a.basis) + list(b.basis))


def span_intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("ambient dimension mismatch in span intersection")
    if not a.basis or not b.basis:
        return Subspace.zero(a.ambient_dim)
    k, l = a.dim, b.dim
    # Kernel of (x, y) |-> sum x_i a_i - sum y_j b_j recovers the intersection.
    rows = tuple(
        tuple(a.basis[c][r] for c in range(k)) + tuple(-b.basis[c][r] for c in range(l))
        for r in range(a.ambient_dim)
    )
    ker = kernel(LinearMap(Matrix(a.ambient_dim, k + l, rows)))
    vectors = [combine(coeffs[:k], a.basis, a.ambient_dim) for coeffs in ker.basis]
    return Subspace.from_vectors(a.ambient_dim, vectors)


@dataclass(frozen=True)
class LinearMap:
    """A linear map stored as a codomain_dim x domain_dim matrix."""

    matrix: Matrix

    @property
    def domain_dim(self) -> int:
        return self.matrix.cols

    @property
    def codomain_dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def from_columns(cls, codomain_dim: int, columns: Sequence[Sequence]) -> "LinearMap":
        cols = [as_vector(c) for c in columns]
        for c in cols:
            if len(c) != codomain_dim:
                raise LinalgError("column does not match codomain dimension")
        rows = tuple(tuple(col[r] for col in cols) for r in range(codomain_dim))
        return cls(Matrix(codomain_dim, len(cols), rows))

    def apply(self, v: Sequence) -> Vector:
        return self.matrix.apply(v)

    def column(self, k: int) -> Vector:
        """The image of the k-th domain basis vector."""
        if not 0 <= k < self.domain_dim:
            raise LinalgError(f"column {k} out of range for domain dimension {self.domain_dim}")
        return self.matrix.column(k)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        return LinearMap(self.matrix.mul(inner.matrix))

    def image(self) -> Subspace:
        cols = [self.matrix.column(j) for j in range(self.matrix.cols)]
        return Subspace.from_vectors(self.codomain_dim, cols)


def kernel(f: LinearMap) -> Subspace:
    reduced, pivots = rref(f.matrix)
    pivot_set = set(pivots)
    free = [j for j in range(f.domain_dim) if j not in pivot_set]
    vectors = []
    for j in free:
        v = [Fraction(0)] * f.domain_dim
        v[j] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced.entries[r][j]
        vectors.append(tuple(v))
    return Subspace.from_vectors(f.domain_dim, vectors)


def quotient_with_section(ambient_dim: int, r: Subspace) -> tuple[LinearMap, tuple[Vector, ...]]:
    """Projection onto F^ambient/r plus canonical coset representatives.

    Quotient coordinates are read off at the non-pivot columns of r's basis,
    and the section sends each quotient basis vector to the corresponding
    standard basis vector of the ambient space, so proj(section(k)) is the
    k-th standard basis vector of the quotient.
    """
    if r.ambient_dim != ambient_dim:
        raise LinalgError("subspace does not match ambient dimension")
    pivot_of = {p: i for i, p in enumerate(r.pivots())}
    free = [j for j in range(ambient_dim) if j not in pivot_of]
    qdim = len(free)
    rows = []
    for t in range(qdim):
        row = [Fraction(0)] * ambient_dim
        row[free[t]] = Fraction(1)
        for p, i in pivot_of.items():
            # e_p reduces to -(r.basis[i] - e_p), supported on free columns.
            row[p] = -r.basis[i][free[t]]
        rows.append(tuple(row))
    proj = LinearMap(Matrix(qdim, ambient_dim, tuple(rows)))
    section = tuple(
        tuple(Fraction(1 if j == free[t] else 0) for j in range(ambient_dim)) for t in range(qdim)
    )
    return proj, section
