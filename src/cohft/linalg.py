"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction, vectors are tuples of Fraction.
Everything here is immutable and pure; dimensions are tiny (the engine works
with algebras of dimension <= 4 or so), so plain Gaussian elimination with
exact pivoting is all we need.
"""

from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


class CohftError(ValueError):
    """Base of the errors that reject a caller's input; the CLI reports
    them as validation failures (exit 1)."""


def _frac(x):
    # a Fraction is immutable, so it is kept rather than copied
    return x if type(x) is Fraction else Fraction(x)


def vec(entries):
    return tuple(map(_frac, entries))


def mat(rows):
    return tuple(tuple(map(_frac, row)) for row in rows)


def zero_vec(n):
    return (Q0,) * n


def identity(n):
    return tuple(tuple(Q1 if i == j else Q0 for j in range(n)) for i in range(n))


def zero_mat(n, m=None):
    m = n if m is None else m
    return tuple((Q0,) * m for _ in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def bilinear(m, u, v):
    return dot(mat_vec(m, v), u)


def _eliminate(rows, ncols):
    """Row-reduce in place; returns list of pivot column indices."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def det(a):
    n = len(a)
    rows = [list(row) for row in a]
    d = Q1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Q0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def mat_inv(a):
    n = len(a)
    rows = [list(row) + [Q1 if i == j else Q0 for j in range(n)] for i, row in enumerate(a)]
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def solve(a, b):
    """Solve a x = b; returns None when the system has no solution."""
    n = len(a)
    rows = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots = _eliminate(rows, n)
    x = [Q0] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    for i in range(len(pivots), n):
        if rows[i][n] != 0:
            return None
    # rows without pivots may still encode inconsistencies when a is not square
    for i in range(n):
        if sum(a[i][j] * x[j] for j in range(n)) != b[i]:
            return None
    return tuple(x)


def linear_dependence(vectors):
    """First nontrivial rational combination of the given vectors equal to zero.

    Returns coefficients (c_0, ..., c_{k-1}) with c_{k-1} = 1 expressing the
    last vector through the previous ones, or None when they are independent.
    Used for minimal polynomials: feed 1, x, x^2, ... until dependence.
    """
    k = len(vectors)
    if k == 0:
        return None
    n = len(vectors[0])
    # solve sum_{i<k-1} c_i v_i = -v_{k-1}
    a = [[vectors[i][j] for i in range(k - 1)] for j in range(n)]
    rows = [list(row) + [-vectors[k - 1][j]] for j, row in enumerate(a)]
    pivots = _eliminate(rows, k - 1)
    c = [Q0] * (k - 1)
    for r, col in enumerate(pivots):
        c[col] = rows[r][k - 1]
    for i in range(len(pivots), n):
        if rows[i][k - 1] != 0:
            return None
    # verify (guards the non-square case)
    for j in range(n):
        if sum(c[i] * vectors[i][j] for i in range(k - 1)) != -vectors[k - 1][j]:
            return None
    return tuple(c) + (Q1,)


def frac_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
