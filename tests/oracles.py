"""Independent reference computations used to pin expected values.

Deliberately self-contained: its own elimination-based rank, its own cochain
indexing.  Nothing here imports from the package under test, so agreement
between the two is meaningful evidence rather than circularity.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def rank(rows):
    """Rank by plain Gaussian elimination over the rationals."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def second_cohomology_dim(dim, brackets):
    """dim H^2 of a Lie algebra with trivial coefficients.

    brackets maps (i, j) with i < j to the coefficient tuple of [x_i, x_j].
    Cochains are alternating forms on the basis; the differentials are

        (d f)(x, y)       = -f([x, y])
        (d w)(x, y, z)    = -w([x,y], z) + w([x,z], y) - w([y,z], x)

    and dim H^2 = dim C^2 - rank d2 - rank d1.
    """

    def bracket(i, j):
        if i == j:
            return (0,) * dim
        if i < j:
            return brackets.get((i, j), (0,) * dim)
        return tuple(-c for c in brackets[(j, i)]) if (j, i) in brackets else (0,) * dim

    pairs = list(combinations(range(dim), 2))
    pair_index = {p: k for k, p in enumerate(pairs)}
    triples = list(combinations(range(dim), 3))

    d1 = []
    for (i, j) in pairs:
        v = bracket(i, j)
        d1.append([-Fraction(v[m]) for m in range(dim)])

    def add_term(row, vector, c, sign):
        # sign * w(vector, x_c) as coefficients on the pair basis of C^2
        for m, coeff in enumerate(vector):
            if coeff == 0 or m == c:
                continue
            if m < c:
                row[pair_index[(m, c)]] += sign * Fraction(coeff)
            else:
                row[pair_index[(c, m)]] -= sign * Fraction(coeff)

    d2 = []
    for (i, j, k) in triples:
        row = [Fraction(0)] * len(pairs)
        add_term(row, bracket(i, j), k, -1)
        add_term(row, bracket(i, k), j, 1)
        add_term(row, bracket(j, k), i, -1)
        d2.append(row)

    c2 = len(pairs)
    return c2 - rank(d2) - rank(d1)


# Dense vector arithmetic for the references below and in the test modules:
# plain tuples of Fractions, the form the package returns at its public edge.


def vadd(u, v):
    """u + v for two vectors of the same length."""
    assert len(u) == len(v), "vector length mismatch"
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, v):
    """c * v."""
    c = Fraction(c)
    return tuple(c * a for a in v)


def combine(coeffs, vectors, width):
    """The sum of c * v over paired coefficients and vectors, of length width; zero terms are skipped."""
    out = [Fraction(0)] * width
    for c, v in zip(coeffs, vectors):
        if c != 0:
            assert len(v) == width, "vector length mismatch"
            for k, a in enumerate(v):
                if a != 0:
                    out[k] += c * a
    return tuple(out)


def abelian_tensor_dims(n):
    """(tensor, diagonal, exterior, j2, multiplier) for the abelian pair of rank n."""
    return (n * n, n * (n + 1) // 2, n * (n - 1) // 2, n * n, n * (n - 1) // 2)


# Dense references for the Lie algebra core.  These are the loops the engine
# ran before it read its bracket table as supports; they visit every basis
# pair and triple through dense vectors.  brackets maps (i, j) with i < j to
# the coefficient tuple of [e_i, e_j], as in second_cohomology_dim.


def dense_bracket(dim, brackets, x, y):
    """[x, y] by bilinear expansion over the stored pairs, as a dense tuple."""
    out = [Fraction(0)] * dim
    for (i, j), v in brackets.items():
        c = Fraction(x[i]) * Fraction(y[j]) - Fraction(x[j]) * Fraction(y[i])
        if c != 0:
            for k, a in enumerate(v):
                out[k] += c * Fraction(a)
    return tuple(out)


def _unit(dim, i):
    return tuple(Fraction(int(k == i)) for k in range(dim))


def dense_jacobi_violation(dim, brackets):
    """First ((i, j, k, m), residual) with i < j < k where the Jacobi sum has a nonzero entry m.

    The sum is [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]];
    None when it vanishes on every triple.
    """

    def basis_bracket(i, j):
        return dense_bracket(dim, brackets, _unit(dim, i), _unit(dim, j))

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                terms = [
                    dense_bracket(dim, brackets, _unit(dim, i), basis_bracket(j, k)),
                    dense_bracket(dim, brackets, _unit(dim, j), basis_bracket(k, i)),
                    dense_bracket(dim, brackets, _unit(dim, k), basis_bracket(i, j)),
                ]
                for m in range(dim):
                    total = sum(t[m] for t in terms)
                    if total != 0:
                        return (i, j, k, m), total
    return None


def dense_is_ideal(dim, brackets, basis):
    """None when [e_i, v] lies in span(basis) for every i and v, otherwise the first (i, v)."""
    r = rank(basis)
    for i in range(dim):
        for v in basis:
            w = dense_bracket(dim, brackets, _unit(dim, i), v)
            if rank(list(basis) + [w]) != r:
                return (i, v)
    return None


def dense_solve(columns, target):
    """The coefficients c with sum c_k columns[k] = target, by dense_rref on the augmented grid; None when there are none.

    The columns must be independent, as a basis is."""
    k = len(columns)
    rows = [[col[r] for col in columns] + [target[r]] for r in range(len(target))]
    reduced, pivots = dense_rref(rows, k + 1)
    assert pivots[:k] == tuple(range(k)), "columns are not independent"
    if k in pivots:
        return None
    return tuple(reduced[i][k] for i in range(k))


def dense_subalgebra_brackets(dim, brackets, basis):
    """The nonzero brackets of the subalgebra spanned by basis, in its coordinates: {(a, b): coefficients} for a < b.

    Each [b_a, b_b] is solved for in the basis; AssertionError when one leaves the span."""
    out = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            coeffs = dense_solve(basis, dense_bracket(dim, brackets, basis[a], basis[b]))
            assert coeffs is not None, f"bracket of basis vectors {a} and {b} leaves the span"
            if any(coeffs):
                out[(a, b)] = coeffs
    return out


# Dense references for the linear algebra kernel.  These are the loops
# tensoralg.linalg ran before its sparse integer elimination: rows are scaled
# to integers, reduced column by column over the whole grid, and divided by
# their pivots at the end.  They take and return plain tuples of Fractions
# where the package uses Matrix, Subspace and LinearMap; a subspace is the
# tuple of its RREF basis vectors.


def _int_row(row):
    # Scale a rational row to integers; sign and scale wash out at the end.
    den = 1
    for a in row:
        den = den * a.denominator // gcd(den, a.denominator)
    scaled = tuple(int(a * den) for a in row)
    g = 0
    for x in scaled:
        g = gcd(g, x)
    if g > 1:
        scaled = tuple(x // g for x in scaled)
    return scaled


def _reduce_int_row(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in row)
    return row


def dense_rref(rows, cols):
    """(reduced rows, pivot columns) of the matrix with the given rows; rows beyond the rank are zero."""
    n_rows = len(rows)
    work = [_int_row(tuple(map(Fraction, row))) for row in rows]
    pivots = []
    r = 0
    for col in range(cols):
        pivot_at = None
        for i in range(r, n_rows):
            if work[i][col] != 0:
                pivot_at = i
                break
        if pivot_at is None:
            continue
        work[r], work[pivot_at] = work[pivot_at], work[r]
        prow = work[r]
        a = prow[col]
        for i in range(n_rows):
            if i == r:
                continue
            b = work[i][col]
            if b == 0:
                continue
            work[i] = _reduce_int_row(tuple(a * x - b * y for x, y in zip(work[i], prow)))
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    out = []
    for i, row in enumerate(work):
        if i < len(pivots):
            p = row[pivots[i]]
            out.append(tuple(Fraction(x, p) for x in row))
        else:
            out.append((Fraction(0),) * cols)
    return tuple(out), tuple(pivots)


def dense_span(cols, vectors):
    """The RREF basis of the span of vectors."""
    reduced, pivots = dense_rref(vectors, cols)
    return reduced[: len(pivots)]


def dense_kernel(rows, cols):
    """The RREF basis of the null space of the matrix with the given rows and cols columns."""
    reduced, pivots = dense_rref(rows, cols)
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    vectors = []
    for j in free:
        v = [Fraction(0)] * cols
        v[j] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][j]
        vectors.append(tuple(v))
    return dense_span(cols, vectors)


def dense_quotient_with_section(ambient_dim, basis):
    """(projection rows, section vectors) for the quotient by the span of an RREF basis."""
    pivot_of = {next(j for j, a in enumerate(row) if a != 0): i for i, row in enumerate(basis)}
    free = [j for j in range(ambient_dim) if j not in pivot_of]
    rows = []
    for t in range(len(free)):
        row = [Fraction(0)] * ambient_dim
        row[free[t]] = Fraction(1)
        for p, i in pivot_of.items():
            # e_p reduces to -(basis[i] - e_p), supported on free columns.
            row[p] = -basis[i][free[t]]
        rows.append(tuple(row))
    section = tuple(
        tuple(Fraction(1 if j == free[t] else 0) for j in range(ambient_dim)) for t in range(len(free))
    )
    return tuple(rows), section


def dense_span_intersect(ambient_dim, a, b):
    """The RREF basis of span(a) meet span(b), for RREF bases a and b."""
    if not a or not b:
        return ()
    k, l = len(a), len(b)
    # Kernel of (x, y) |-> sum x_i a_i - sum y_j b_j recovers the intersection.
    rows = tuple(
        tuple(a[c][r] for c in range(k)) + tuple(-b[c][r] for c in range(l))
        for r in range(ambient_dim)
    )
    vectors = []
    for coeffs in dense_kernel(rows, k + l):
        v = [Fraction(0)] * ambient_dim
        for c, row in zip(coeffs[:k], a):
            for m, x in enumerate(row):
                v[m] += c * x
        vectors.append(tuple(v))
    return dense_span(ambient_dim, vectors)


def dense_grid(rows, columns):
    """The rows x len(columns) grid of Fractions whose j-th column is columns[j]."""
    return tuple(tuple(Fraction(col[r]) for col in columns) for r in range(rows))


def dense_matmul(a, b, inner, cols):
    """The product of grids a (rows x inner) and b (inner x cols), as a grid."""
    return tuple(
        tuple(sum((row[t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)) for row in a
    )


# Dense references for the action checks of tensoralg.pairs: the loops it ran
# before its actions were read as supports.  brackets map (i, j) with i < j to
# coefficient tuples, as in second_cohomology_dim, and table[i][j] is the
# action of actor basis i on acted basis j.  A violation is (number, indices,
# residual), the residual a tuple of Fractions.


def _dense_act(table, actor_dim, acted_dim, x, n):
    """x . n for the bilinear action table, as a dense tuple."""
    out = [Fraction(0)] * acted_dim
    for i in range(actor_dim):
        for j in range(acted_dim):
            c = Fraction(x[i]) * Fraction(n[j])
            if c != 0:
                for k, a in enumerate(table[i][j]):
                    out[k] += c * Fraction(a)
    return tuple(out)


def _violation(number, indices, lhs, rhs):
    if lhs == rhs:
        return None
    return number, indices, tuple(a - b for a, b in zip(lhs, rhs))


def dense_action_violation(actor_dim, actor_brackets, acted_dim, acted_brackets, table):
    """The first broken action axiom, in the order the package checks them, or None.

    Axiom 1, for i < j:  [x_i, x_j] . y_k = x_i . (x_j . y_k) - x_j . (x_i . y_k).
    Axiom 2, for k < l:  x_i . [y_k, y_l] = [x_i . y_k, y_l] + [y_k, x_i . y_l].
    """

    def act(x, n):
        return _dense_act(table, actor_dim, acted_dim, x, n)

    def x(i):
        return _unit(actor_dim, i)

    def y(k):
        return _unit(acted_dim, k)

    for i in range(actor_dim):
        for j in range(i + 1, actor_dim):
            for k in range(acted_dim):
                lhs = act(dense_bracket(actor_dim, actor_brackets, x(i), x(j)), y(k))
                rhs = vadd(act(x(i), table[j][k]), vscale(-1, act(x(j), table[i][k])))
                found = _violation(1, (i, j, k), lhs, rhs)
                if found:
                    return found
    for i in range(actor_dim):
        for k in range(acted_dim):
            for l in range(k + 1, acted_dim):
                lhs = act(x(i), dense_bracket(acted_dim, acted_brackets, y(k), y(l)))
                rhs = vadd(
                    dense_bracket(acted_dim, acted_brackets, table[i][k], y(l)),
                    dense_bracket(acted_dim, acted_brackets, y(k), table[i][l]),
                )
                found = _violation(2, (i, k, l), lhs, rhs)
                if found:
                    return found
    return None


def dense_compatibility_violation(p, algebra_brackets, q, ideal_brackets, on_ideal, on_algebra):
    """The first broken compatibility equation of a pair's two action tables, or None.

    on_ideal[i][a] is l_i . n_a in ideal coordinates, on_algebra[a][i] is
    n_a . l_i in algebra coordinates.  Equation 1: (n_a . l_i) . n_b =
    [n_b, l_i . n_a] in N; equation 2: (l_i . n_a) . l_j = [l_j, n_a . l_i] in L.
    """
    for a in range(q):
        for i in range(p):
            for b in range(q):
                lhs = _dense_act(on_ideal, p, q, on_algebra[a][i], _unit(q, b))
                rhs = dense_bracket(q, ideal_brackets, _unit(q, b), on_ideal[i][a])
                found = _violation(1, (a, i, b), lhs, rhs)
                if found:
                    return found
    for i in range(p):
        for a in range(q):
            for j in range(p):
                lhs = _dense_act(on_algebra, q, p, on_ideal[i][a], _unit(p, j))
                rhs = dense_bracket(p, algebra_brackets, _unit(p, j), on_algebra[a][i])
                found = _violation(2, (i, a, j), lhs, rhs)
                if found:
                    return found
    return None
