"""Independent reference computations used to pin expected values.

Deliberately self-contained: its own elimination-based rank, its own cochain
indexing.  Nothing here imports from the package under test, so agreement
between the two is meaningful evidence rather than circularity.
"""

from fractions import Fraction
from itertools import combinations


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
