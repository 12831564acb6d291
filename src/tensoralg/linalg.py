"""Exact linear algebra over the rational field.

Inside the package every vector is sparse: a support, the (index, value)
pairs of its nonzero entries, or a mapping from index to value.  A scalar in
such a table is an ``int`` when it is integral and a ``Fraction`` only when it
has a denominator (``_exact`` normalises), so the sparse loops of every layer
do integer arithmetic wherever the input is integral.  Dense tuples of
``Fraction`` appear only at the public edge: the values the library returns
(through :func:`from_support`) and the input it reads.  :func:`_entries` is
the one point where input is read: every entry point that takes a vector
takes it densely, as a sequence of scalars, or sparsely, as a mapping from
index to scalar, and ``*_entries`` methods return their results sparsely.

Row reduction has one internal representation: sparse primitive integer rows
``{column: int}``, with gcd 1 and a positive leading entry, held in
Gauss-Jordan form by :class:`Echelon` (fraction-free elimination, as in
Bareiss, Math. Comp. 22, 1968).  A :class:`Subspace` stores these rows and
nothing else.  They are the reduced row-echelon basis of the span up to a
positive scale per row, so two subspaces are equal as sets exactly when their
rows compare equal.  The engine reads the basis sparsely, through
``Subspace.entries``; the ``Fraction`` basis is built from the rows on first
read of ``basis``.  The reduced echelon form is unique, so it is identical to
the result of naive exact Gaussian elimination.  Build a subspace with
:meth:`Subspace.from_vectors` or, from a reduced echelon basis given by hand,
:meth:`Subspace.from_basis`, which checks that form.

:func:`kernel` takes one elimination: it reduces the rows of the map with
the columns in reverse order, so each reduced row leads at its largest
column, and then the vector e_j minus the rows' entries in column j, for each
free column j, is zero below j and at every other free column.  Those vectors
are the kernel's reduced row-echelon basis as they stand, with no second
elimination.

A :class:`LinearMap` is stored as the supports of its columns and nothing
else, so applying it touches only nonzero entries.  Build one with
:meth:`LinearMap.from_columns`, from dense or sparse columns.
:func:`quotient_maps` gives the projection onto a quotient and its section as
maps, and :func:`subspace_maps` the coordinates on a subspace and its inclusion.

All values are immutable after construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from collections.abc import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]
# A scalar in its internal form: an int when it is integral, else a Fraction (see _exact).
Exact = int | Fraction
# The nonzero entries of a vector as (index, value) pairs, as support() gives them.
Support = Iterable[tuple[int, Exact]]
# A support held as a tuple, in index order.
Entries = tuple[tuple[int, Exact], ...]
# A primitive integer row: its nonzero entries by column, with gcd 1.
IntRow = dict[int, int]

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?\Z")
_ZERO = Fraction(0)


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


def _exact(a: Exact) -> Exact:
    """The internal form of a rational scalar: an int when it is integral, else the Fraction."""
    if type(a) is int or a.denominator != 1:
        return a
    return a.numerator


def _ratio(n: int, d: int) -> Exact:
    """n / d for ints n and d > 0, in its internal form."""
    return n if d == 1 else _exact(Fraction(n, d))


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


def support(v: Vector) -> list[tuple[int, Exact]]:
    """The nonzero coordinates of v as (index, value) pairs, each value in its internal form."""
    return [(k, _exact(a)) for k, a in enumerate(v) if a]


def from_support(entries: Support, width: int) -> Vector:
    """Inverse of :func:`support`: the vector of length width with the given nonzero entries, as Fractions."""
    out = [_ZERO] * width
    for k, a in entries:
        out[k] = _coerce(a)
    return tuple(out)


def _fmt_vector(v: Sequence) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _entries(v, width: int) -> dict[int, Exact]:
    """The nonzero entries of v, given as width scalars or as a mapping from index to scalar.

    Values come out in their internal form (other scalars are coerced first), engine-built
    ones too: ``LinearMap._image`` and ``tensor.relation_seed`` sums can hold an integral
    Fraction (1/2 * 2 is ``Fraction(1, 1)``), on which ``_primitive`` raises TypeError."""
    if not isinstance(v, (tuple, list)):  # tested first: the Mapping check is slower
        if isinstance(v, Mapping):
            for k in v:
                if not 0 <= k < width:
                    raise LinalgError(f"index {k} out of range for a vector of length {width}")
            return _nonzero(v.items())
        v = tuple(v)
    if len(v) != width:
        raise LinalgError(f"expected vector of length {width}, got {len(v)}")
    return _nonzero(enumerate(v))


def _nonzero(pairs: Iterable[tuple[int, object]]) -> dict[int, Exact]:
    out = {}
    for k, a in pairs:
        if not isinstance(a, (int, Fraction)):
            a = _coerce(a)
        if a:
            out[k] = a if type(a) is int else _exact(a)
    return out


def _content_free(row: IntRow) -> IntRow:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g > 1:
        return {k: x // g for k, x in row.items()}
    return row


def _primitive(entries: dict[int, Exact]) -> IntRow:
    """The nonzero entries, in their internal form, scaled to a primitive integer row by a positive factor.

    A row of ints may come back as the same dict."""
    den = 1
    for a in entries.values():
        if type(a) is not int:
            d = a.denominator
            if den % d:
                den = den * d // math.gcd(den, d)
    if den == 1:
        return _content_free(entries)
    return _content_free({k: a.numerator * (den // a.denominator) for k, a in entries.items()})


def _reduce(rows: Mapping[int, IntRow], x: IntRow) -> IntRow:
    """x minus its components along a Gauss-Jordan basis, as a primitive row; empty when x is in the span.

    Every basis row is zero at the other pivots, so one pass removes each
    pivot of x: x * L - sum x[p] * (L / a_p) * row_p, with L the lcm of the
    leading entries a_p met."""
    hits = [p for p in x if p in rows]
    if not hits:
        return x
    scale = 1
    for p in hits:
        a = rows[p][p]
        if scale % a:
            scale = scale * a // math.gcd(scale, a)
    acc = {k: c * scale for k, c in x.items()} if scale != 1 else dict(x)
    for p in hits:
        row = rows[p]
        f = x[p] * (scale // row[p])
        for k, y in row.items():
            acc[k] = acc.get(k, 0) - f * y
    return _content_free({k: c for k, c in acc.items() if c})


class Echelon:
    """A growing Gauss-Jordan basis of primitive integer rows.

    ``rows`` maps each pivot column to its row: the pivot is the row's leading
    column, the row's entry there is positive, and every other row is zero in
    that column.  Rows are replaced, never changed in place, so a row may be
    shared with the subspaces built from this basis.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, IntRow] = {}

    def insert(self, v) -> bool:
        """Add v to the span; False, and nothing changes, when v already lies in it."""
        x = _reduce(self.rows, _primitive(_entries(v, self.width)))
        if not x:
            return False
        pivot = min(x)
        a = x[pivot]
        if a < 0:
            x = {k: -c for k, c in x.items()}
            a = -a
        # Back-elimination: clear the new pivot column from every other row.
        for p, row in list(self.rows.items()):
            b = row.get(pivot)
            if b:
                g = math.gcd(a, b)
                s, t = a // g, b // g
                acc = {k: s * y for k, y in row.items()}
                for k, c in x.items():
                    acc[k] = acc.get(k, 0) - t * c
                self.rows[p] = _content_free({k: y for k, y in acc.items() if y})
        self.rows[pivot] = x
        return True

    def subspace(self) -> "Subspace":
        """The span, holding the rows in pivot order."""
        return Subspace(self.width, {p: self.rows[p] for p in sorted(self.rows)})


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim held by the Gauss-Jordan rows of its span.

    ``_rows`` maps each pivot column, in increasing order, to its primitive
    integer row (see :class:`Echelon`).  Dividing each row by its pivot entry
    gives the canonical RREF basis, so equal rows mean equal subspaces.
    Build one with :meth:`from_vectors`, :meth:`zero`, :meth:`full` or
    :meth:`from_basis`.
    """

    ambient_dim: int
    _rows: dict[int, IntRow]

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.entries))

    @cached_property
    def entries(self) -> tuple[Entries, ...]:
        """The RREF basis sparsely: each vector's nonzero (index, value) entries, in index order."""
        return tuple(
            tuple((k, _ratio(y, row[p])) for k, y in sorted(row.items())) for p, row in self._rows.items()
        )

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """The RREF basis as Fraction vectors, built from the rows on first read."""
        return tuple(from_support(v, self.ambient_dim) for v in self.entries)

    @classmethod
    def from_basis(cls, ambient_dim: int, basis: Sequence[Iterable]) -> "Subspace":
        """The subspace with this reduced row-echelon basis; LinalgError when it is not in that form."""
        if ambient_dim < 0:
            raise LinalgError("negative ambient dimension")
        vectors = tuple(as_vector(v) for v in basis)
        pivots: list[int] = []
        for row in vectors:
            if len(row) != ambient_dim:
                raise LinalgError("basis vector of wrong length")
            pivot = next((j for j, a in enumerate(row) if a), None)
            if pivot is None:
                raise LinalgError("zero vector stored in basis")
            if (pivots and pivot <= pivots[-1]) or row[pivot] != 1:
                raise LinalgError("basis is not in reduced echelon form")
            pivots.append(pivot)
        # a row is zero before its pivot, so only the later pivots can meet it
        for k, row in enumerate(vectors):
            if any(row[p] for p in pivots[k + 1:]):
                raise LinalgError("basis is not in reduced echelon form")
        space = cls(ambient_dim, {p: _primitive(dict(support(v))) for p, v in zip(pivots, vectors)})
        vars(space)["basis"] = vectors  # the cached_property, already known
        return space

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Iterable]) -> "Subspace":
        basis = Echelon(ambient_dim)
        for v in vectors:
            basis.insert(v)
        return basis.subspace()

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, {})

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, {j: {j: 1} for j in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> tuple[int, ...]:
        return tuple(self._rows)

    def contains(self, v: Sequence) -> bool:
        return not _reduce(self._rows, _primitive(_entries(v, self.ambient_dim)))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other._rows.values())


@dataclass(frozen=True)
class LinearMap:
    """A linear map held by the supports of its columns.

    Column k lists the nonzero (row, value) entries of the image of the k-th
    domain basis vector, in row order, values in their internal form.  Build
    one with :meth:`from_columns`.  The engine applies a map to the vectors it
    built itself through ``_image``, which takes their entries as given;
    :meth:`apply` and :meth:`apply_entries` check their input.
    """

    codomain_dim: int
    _columns: tuple[Entries, ...]

    @property
    def domain_dim(self) -> int:
        return len(self._columns)

    @classmethod
    def from_columns(cls, codomain_dim: int, columns: Sequence[Sequence]) -> "LinearMap":
        cols = []
        for c in columns:
            entries = _entries(c, codomain_dim)
            cols.append(tuple((r, entries[r]) for r in sorted(entries)))
        return cls(codomain_dim, tuple(cols))

    def apply_entries(self, v: Sequence) -> dict[int, Exact]:
        """The nonzero entries of the image of v."""
        return self._image(_entries(v, self.domain_dim).items())

    def _image(self, entries: Support) -> dict[int, Exact]:
        """The nonzero entries of the image of the vector with these (index, value) entries, taken as read."""
        cols = self._columns
        acc: dict[int, Exact] = {}
        for j, a in entries:
            for r, m in cols[j]:
                acc[r] = acc.get(r, 0) + a * m
        return {r: x for r, x in acc.items() if x}

    def apply(self, v: Sequence) -> Vector:
        return from_support(self.apply_entries(v).items(), self.codomain_dim)

    def _rows_of(self, space: Subspace):
        if space.ambient_dim != self.domain_dim:
            raise LinalgError("subspace does not lie in the domain")
        return space._rows.values()

    def kills(self, space: Subspace) -> bool:
        """True when space lies in the kernel; stops at the first basis row with a nonzero image."""
        return not any(self._image(row.items()) for row in self._rows_of(space))

    def image_of(self, space: Subspace) -> Subspace:
        """The image of space: the span of the images of its basis rows."""
        return Subspace.from_vectors(self.codomain_dim, [self._image(row.items()) for row in self._rows_of(space)])

    def column_entries(self, k: int) -> Entries:
        """The nonzero (row, value) entries of the image of the k-th domain basis vector."""
        if not 0 <= k < self.domain_dim:
            raise LinalgError(f"column {k} out of range for domain dimension {self.domain_dim}")
        return self._columns[k]

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner.

        An inner column that is a unit vector e_j, as in a section or a
        coordinate map, picks self's j-th column as stored."""
        if self.domain_dim != inner.codomain_dim:
            raise LinalgError("matrix shape mismatch in product")
        own = self._columns
        columns = []
        for c in inner._columns:
            if len(c) == 1 and c[0][1] == 1:
                columns.append(own[c[0][0]])
            else:
                # a product of two Fractions may be integral, so each entry is put in its internal form
                columns.append(tuple(sorted((r, _exact(x)) for r, x in self._image(c).items())))
        return LinearMap(self.codomain_dim, tuple(columns))

    def image(self) -> Subspace:
        return Subspace.from_vectors(self.codomain_dim, [dict(c) for c in self._columns])


def kernel(f: LinearMap) -> Subspace:
    """The kernel of f, from one elimination of its rows with the columns reversed.

    The rows of f go into an :class:`Echelon` with column j relabelled
    n - 1 - j, n = f.domain_dim, so each reduced row leads at its largest
    original column P, its pivot, and is otherwise nonzero only at free
    columns below P: zero at every other pivot by Gauss-Jordan form, and at
    columns above P by being its leading column.  For each free column j the
    vector

        v_j = e_j - sum_P (row_P[j] / row_P[P]) e_P

    is in the kernel, since each row_P meets it as row_P[j] - row_P[j] = 0.
    A term e_P needs row_P[j] != 0, so P > j: v_j is zero at every column
    below j, 1 at j, and zero at every other free column.  So the v_j are
    independent, n - rank of them span the kernel, and in ascending j they
    are already its reduced row-echelon basis, pivoted at the free columns.
    Each is stored as its primitive row, with no second elimination.
    """
    n = f.domain_dim
    rows: list[dict[int, Exact]] = [{} for _ in range(f.codomain_dim)]
    for j, col in enumerate(f._columns):
        for r, a in col:
            rows[r][n - 1 - j] = a
    reduced = Echelon(n)
    for row in rows:
        if row:
            reduced.insert(row)
    vectors: dict[int, dict[int, Exact]] = {j: {j: 1} for j in range(n) if n - 1 - j not in reduced.rows}
    for p, row in reduced.rows.items():
        a = row[p]
        for k, y in row.items():
            if k != p:  # a free column: the row is zero at the other pivots
                vectors[n - 1 - k][n - 1 - p] = _ratio(-y, a)
    return Subspace(n, {j: _primitive(v) for j, v in vectors.items()})


def subspace_maps(space: Subspace) -> tuple[LinearMap, LinearMap]:
    """Coordinates on a subspace and its inclusion, as maps.

    Each RREF basis vector is 1 at its own pivot and 0 at the others, so the
    coordinate map reads a vector's entries at the pivots: a left inverse of
    the inclusion, exact on the subspace, with no membership test."""
    slot = {p: t for t, p in enumerate(space._rows)}
    coordinates = tuple(((slot[j], 1),) if j in slot else () for j in range(space.ambient_dim))
    return LinearMap(space.dim, coordinates), LinearMap(space.ambient_dim, space.entries)


def quotient_maps(ambient_dim: int, r: Subspace) -> tuple[LinearMap, LinearMap]:
    """Projection onto F^ambient/r and its section, as maps.

    Quotient coordinates are read off at the non-pivot columns of r's basis,
    and the section sends each quotient basis vector to the corresponding
    standard basis vector of the ambient space, so the projection after the
    section is the identity of the quotient.
    """
    if r.ambient_dim != ambient_dim:
        raise LinalgError("subspace does not match ambient dimension")
    rows = r._rows
    free = [j for j in range(ambient_dim) if j not in rows]
    slot = {j: t for t, j in enumerate(free)}
    columns = []
    for j in range(ambient_dim):
        row = rows.get(j)
        if row is None:
            columns.append(((slot[j], 1),))
        else:
            # e_j reduces to -(basis row at pivot j - e_j), supported on free columns.
            a = row[j]
            columns.append(tuple((slot[k], _ratio(-y, a)) for k, y in sorted(row.items()) if k != j))
    return LinearMap(len(free), tuple(columns)), LinearMap(ambient_dim, tuple(((j, 1),) for j in free))
