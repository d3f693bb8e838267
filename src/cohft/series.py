"""Truncated End(A)-valued power series, and the one truncated exp/log
pair of the engine.

EndSeries models End(A)-valued series R(z) = R_0 + R_1 z + ... + R_D z^D;
all operations are exact through the truncation order and drop higher terms.
What a series yields is returned as plain coefficients: R(z) v (apply) and
the translation series as tuples of vectors, the edge kernel as a
{(a, b): matrix} table of its z^a w^b terms.
The two series-level facts the engine leans on are that inversion works
order by order whenever R_0 is invertible (the independent reference for
R^{-1}: a spec reads R^{-1} as the symplectic adjoint, see givental), and
that the edge numerator eta^{-1} - S(z) eta^{-1} S(w)^t is divisible by
z + w exactly when S comes from a series satisfying the symplectic
condition.  divide_by_z_plus_w is
that division; a spec builds its kernel with it in the semisimple basis
(givental), which is the spec's symplectic check.  check_symplectic (the
product R(z) R(-z)^*) and edge_kernel (the kernel in the ambient basis)
are independent checks of the same two facts, which the tests compare
with the spec's kernel.

truncated_exp and truncated_log sum the power series sum x^n/n! and
sum (-1)^{n-1} (u-1)^n/n.  Only powers of a single element appear, so the
sums are right over non-commuting coefficients as well: they serve
End(A)-valued series, scalar z-series (dim-1 EndSeries) and kappa
polynomials alike, asking only for +, -, the ring product and scaling by
a Fraction.
"""

from fractions import Fraction

from .linalg import (
    Q1,
    identity,
    mat,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    transpose,
    vec,
    zero_mat,
    zero_vec,
)


class OrderMismatch(ValueError):
    pass


class ConstantTermSingular(ArithmeticError):
    pass


class NotDivisible(ArithmeticError):
    """Edge numerator has a nonzero remainder mod (z+w): R is not symplectic."""


class EndSeries:
    def __init__(self, dim, order, coeffs):
        self.dim = dim
        self.order = order
        coeffs = [mat(c) for c in coeffs]
        if len(coeffs) != order + 1:
            raise OrderMismatch("expected %d coefficients" % (order + 1))
        for c in coeffs:
            if len(c) != dim or any(len(row) != dim for row in c):
                raise ValueError("coefficient has wrong shape")
        self.coeffs = tuple(coeffs)

    @classmethod
    def identity(cls, dim, order):
        return cls(dim, order, [identity(dim)] + [zero_mat(dim) for _ in range(order)])

    @classmethod
    def from_higher_coeffs(cls, dim, order, higher):
        """R_0 = Id implied; higher = [R_1, R_2, ...], padded or cut to order."""
        coeffs = [identity(dim)]
        for k in range(order):
            coeffs.append(mat(higher[k]) if k < len(higher) else zero_mat(dim))
        return cls(dim, order, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, EndSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def is_identity(self):
        return self == EndSeries.identity(self.dim, self.order)

    def negate_variable(self):
        """R(z) -> R(-z)."""
        return EndSeries(
            self.dim,
            self.order,
            [mat_scale(Q1 if k % 2 == 0 else -Q1, c) for k, c in enumerate(self.coeffs)],
        )

    def _check_shape(self, other):
        if self.order != other.order or self.dim != other.dim:
            raise OrderMismatch("series orders or dimensions differ")

    def __add__(self, other):
        self._check_shape(other)
        return EndSeries(
            self.dim,
            self.order,
            [
                tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
                for a, b in zip(self.coeffs, other.coeffs)
            ],
        )

    def __sub__(self, other):
        self._check_shape(other)
        return EndSeries(
            self.dim, self.order, [mat_sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        """Series product with another EndSeries, else scaling by a number."""
        if isinstance(other, EndSeries):
            return self.multiply(other)
        return EndSeries(self.dim, self.order, [mat_scale(other, c) for c in self.coeffs])

    def multiply(self, other):
        """The Cauchy product, entry by entry over the pairs of nonzero
        coefficients: the powers summed by exp and log vanish to high order."""
        self._check_shape(other)
        dim = self.dim
        left = [(i, c) for i, c in enumerate(self.coeffs) if any(any(row) for row in c)]
        right = {j: transpose(c) for j, c in enumerate(other.coeffs) if any(any(row) for row in c)}
        out = []
        for k in range(self.order + 1):
            pairs = [(a, right[k - i]) for i, a in left if k - i in right]
            out.append(
                [
                    [sum(x * y for a, bt in pairs for x, y in zip(a[r], bt[c])) for c in range(dim)]
                    for r in range(dim)
                ]
            )
        return EndSeries(dim, self.order, out)

    def invert(self):
        """The inverse series, order by order from the inverse of R_0;
        ConstantTermSingular when R_0 is singular.  Computed on every call:
        no spec inverts a series, only coherent_phi, the oracles and the
        tests do."""
        try:
            c0 = mat_inv(self.coeffs[0])
        except ZeroDivisionError:
            raise ConstantTermSingular("constant term is singular") from None
        out = [c0]
        for k in range(1, self.order + 1):
            acc = zero_mat(self.dim)
            for i in range(1, k + 1):
                term = mat_mul(self.coeffs[i], out[k - i])
                acc = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(acc, term))
            out.append(mat_scale(-1, mat_mul(c0, acc)))
        return EndSeries(self.dim, self.order, out)

    def adjoint(self, eta):
        """Coefficientwise eta-adjoint  M -> eta^{-1} M^t eta."""
        eta = mat(eta)
        eta_inv = mat_inv(eta)
        return EndSeries(
            self.dim,
            self.order,
            [mat_mul(eta_inv, mat_mul(transpose(c), eta)) for c in self.coeffs],
        )

    def apply(self, v):
        """R(z) v as the tuple of its coefficient vectors."""
        return tuple(mat_vec(c, vec(v)) for c in self.coeffs)


def check_symplectic(r, eta):
    """R(z) R(-z)^* == Id through the truncation order."""
    prod = r.multiply(r.negate_variable().adjoint(eta))
    return prod.is_identity()


def edge_kernel(r, eta):
    """(eta^{-1} - S(z) eta^{-1} S(w)^t) / (z + w)  for S = R^{-1}.

    The kernel in the ambient basis, as the {(a, b): matrix} table of its
    z^a w^b coefficients on a + b <= order - 1, where the matrix entry
    (i, j) multiplies b_i (x) b_j; raises NotDivisible when R is not
    symplectic (see divide_by_z_plus_w).
    """
    order = r.order
    eta_inv = mat_inv(mat(eta))
    s = r.invert()
    numerator = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            term = mat_mul(s.coeffs[a], mat_mul(eta_inv, transpose(s.coeffs[b])))
            if a == 0 and b == 0:
                term = mat_sub(term, eta_inv)
            numerator[(a, b)] = mat_scale(-1, term)
    return divide_by_z_plus_w(numerator, order)


def divide_by_z_plus_w(numerator, order):
    """K with N = (z + w) K, for N given by its z^a w^b coefficient matrices
    on the triangle a + b <= order; K is returned on a + b <= order - 1.

    Division runs column by column with an explicit remainder check: the
    remainder is the numerator evaluated at w = -z.  For the edge numerator
    it vanishes exactly when R is symplectic.  Raises NotDivisible otherwise.
    """
    # K[a][b] with a+b <= order-1 from N[a][b+1] = K[a][b] + K[a-1][b+1]
    k_table = {}
    for a in range(order):
        for b in range(order - a):
            m = numerator[(a, b + 1)]
            if a > 0:
                m = mat_sub(m, k_table[(a - 1, b + 1)])
            k_table[(a, b)] = m

    # remainder: N[0][0] and N[a][0] - K[a-1][0] for a >= 1 must vanish
    def _is_zero(m):
        return all(x == 0 for row in m for x in row)

    if not _is_zero(numerator[(0, 0)]):
        raise NotDivisible("numerator has constant term")
    for a in range(1, order + 1):
        if not _is_zero(mat_sub(numerator[(a, 0)], k_table[(a - 1, 0)])):
            raise NotDivisible("numerator is not divisible by z + w")
    return k_table


def truncated_exp(x, one, order):
    """exp(x) = sum_{n <= order} x^n / n!, with `one` the neutral element.

    x must vanish to first order (zero constant term, or positive degree),
    so that x^n is zero above the truncation order and the sum is exact.
    """
    out = term = one
    for n in range(1, order + 1):
        term = term * x * Fraction(1, n)
        out = out + term
    return out


def truncated_log(u, one, order):
    """log(u) = sum_{1 <= n <= order} (-1)^{n-1} (u - one)^n / n, for u
    whose constant term is `one`."""
    y = power = out = u - one
    for n in range(2, order + 1):
        power = power * y
        out = out + power * Fraction((-1) ** (n - 1), n)
    return out


def translation_vector(r, unit):
    """T(z) = z (unit - R(z)^{-1} unit) through z^(order+1), as the tuple of
    its coefficient vectors; T_1 vanishes when R_0 = Id, and T_{k+1} is
    -[z^k] R^{-1}(z) unit for k >= 1."""
    s = r.invert().apply(unit)
    return (zero_vec(r.dim), tuple(u - x for u, x in zip(vec(unit), s[0]))) + tuple(
        tuple(-x for x in c) for c in s[1:]
    )
