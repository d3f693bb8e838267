"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction, vectors are tuples of Fraction.
Everything here is immutable and pure; dimensions are tiny (the engine works
with algebras of dimension <= 4 or so), so plain Gaussian elimination with
exact pivoting is all we need.  mat_mul and mat_vec multiply int
numerators, over one denominator per operand (numerators, int_rows), and
build one Fraction per entry of the result.
"""

import re
from fractions import Fraction
from math import lcm
from operator import mul

Q0 = Fraction(0)
Q1 = Fraction(1)


class CohftError(ValueError):
    """Base of the errors that reject a caller's input; the CLI reports
    them as validation failures (exit 1)."""


# ConfigError, NotInvertible and NotSplit belong to config and frobenius,
# which re-export them; they are defined here so that the CLI can catch
# them without importing either layer


class ConfigError(CohftError):
    """Carries a structured report: list of (line_number or None, message)."""

    def __init__(self, report):
        self.report = list(report)
        super().__init__("; ".join(m for _, m in self.report))

    def render(self):
        lines = []
        for lineno, msg in self.report:
            where = "line %d: " % lineno if lineno else ""
            lines.append(where + msg)
        return "\n".join(lines)


class NotInvertible(ArithmeticError):
    pass


class NotSplit(ArithmeticError):
    """The algebra has an element with irrational eigenvalues."""


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


def zero_mat(n):
    return tuple((Q0,) * n for _ in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def numerators(entries):
    """(d, ints): the rationals entries as int numerators over d, the lcm of
    their denominators."""
    d = lcm(*(x.denominator for x in entries))
    return d, [x.numerator * (d // x.denominator) for x in entries]


def int_rows(a):
    """(d, rows): the matrix a as int rows over one denominator d."""
    d = lcm(*(x.denominator for row in a for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a]


def int_mat_mul(a, b):
    """The product of two matrices of ints, as lists of int rows."""
    bt = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_mul(a, b):
    da, a = int_rows(a)
    db, b = int_rows(b)
    d = da * db
    return tuple(tuple(Fraction(x, d) for x in row) for row in int_mat_mul(a, b))


def mat_vec(a, v):
    da, a = int_rows(a)
    dv, v = numerators(v)
    d = da * dv
    return tuple(Fraction(sum(map(mul, row, v)), d) for row in a)


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


def mat_inv(a):
    n = len(a)
    rows = [list(row) + [Q1 if i == j else Q0 for j in range(n)] for i, row in enumerate(a)]
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def solve(a, b):
    """One solution of a x = b for a matrix a of len(b) rows and any number
    of columns, free unknowns set to 0; None when the system has none.

    After elimination the rows past the pivots are zero on the left, so the
    system is consistent exactly when they are zero on the right too.
    """
    m = len(a[0]) if a else 0
    rows = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots = _eliminate(rows, m)
    if any(row[m] != 0 for row in rows[len(pivots):]):
        return None
    x = [Q0] * m
    for r, c in enumerate(pivots):
        x[c] = rows[r][m]
    return tuple(x)


def linear_dependence(vectors):
    """First nontrivial rational combination of the given vectors equal to zero.

    Returns coefficients (c_0, ..., c_{k-1}) with c_{k-1} = 1 expressing the
    last vector through the previous ones, or None when they are independent.
    Used for minimal polynomials: feed 1, x, x^2, ... until dependence.
    """
    if not vectors:
        return None
    *head, last = vectors
    # solve sum_{i<k-1} c_i v_i = -v_{k-1}, one equation per coordinate
    c = solve([[v[j] for v in head] for j in range(len(last))], [-x for x in last])
    return None if c is None else c + (Q1,)


# The one grammar of numbers in text, in ASCII digits: frac_str writes it,
# and the config, the CLI arguments and the correlator cache read it.
INTEGER = r"[+-]?\d+"
RATIONAL = INTEGER + r"(?:/[1-9]\d*)?"
_INTEGER = re.compile(INTEGER, re.ASCII)
_RATIONAL = re.compile(RATIONAL, re.ASCII)


def frac_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def read_integer(text):
    """The int an INTEGER literal writes; ValueError for any other text."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError("not an integer: %r" % text)
    return int(text)


def read_rational(text):
    """The Fraction a RATIONAL literal writes; ValueError for any other text
    (floats have no place in an exact engine)."""
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError("not an exact rational: %r" % text)
    return Fraction(text)
