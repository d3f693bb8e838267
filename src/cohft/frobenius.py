"""Commutative Frobenius algebras over the rationals.

An algebra is given by a metric eta, structure constants for the product in
an ambient basis, and the coordinates of the unit.  The engine only ever
works over exact rationals: an algebra is "split semisimple" when its
primitive idempotents pi_mu have rational coordinates, and semisimplify()
finds them, by splitting the unit along the rational eigenvalues of each
basis vector in turn, or reports NotSplit at the first minimal polynomial
that does not split into distinct rational linear factors.
rational_roots() decides that by one exact integer Newton walk, so its cost
grows with the digits of the coefficients, not with their divisors.  The
split stops once it holds dim blocks, since dim orthogonal idempotents
summing to the unit are primitive.  Such a split proves A = Q^dim, so it
decides semisimplicity as well: the Euler class is solved for its inverse
only after a split fails, to choose between NotInvertible (not semisimple)
and NotSplit.  The split's data holds by construction and is not checked
again here; check_semisimple_data runs where a CohFTSpec takes a frame.

The product runs on an integer lattice: the structure constants are held
as int numerators over one denominator, and a b multiplies the int
numerators of a and b and builds one Fraction per coordinate.  The axiom
checks, the split and check_semisimple_data all run on it.

The engine works in the frame of the projectors pi_mu and their norms
w_mu = eta(pi_mu, 1) = eta(pi_mu, pi_mu), which may be any nonzero
rationals, so no square root is taken.  orthonormal_form() gives the
eta-orthonormal frame e_mu = pi_mu / theta_mu, theta_mu^2 = w_mu, when
every norm is a rational square.

Construction validates every axiom (_validate): eta symmetric and
nondegenerate (one elimination inverts eta, and the algebra keeps the
inverse as eta_inv), the product commutative with a neutral unit, then
associativity and invariance on the basis triples.  Invariance is the
cyclic symmetry of the one table c_ijk = eta(b_i b_j, b_k), and
associativity is checked for i < k only, because in a commutative algebra
the associator changes sign when i and k swap.  The first violation found
is the one a check of every triple in order would report.
"""

import math
from fractions import Fraction

from .linalg import (
    Q0,
    CohftError,
    NotInvertible,
    NotSplit,
    bilinear,
    dot,
    identity,
    linear_dependence,
    mat,
    mat_inv,
    mat_vec,
    numerators,
    solve,
    transpose,
    vec,
    zero_vec,
)


class InvalidAlgebra(CohftError):
    """Raised at construction; .problems lists every violated invariant."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def rational_sqrt(x):
    """Exact square root of a nonnegative rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def rational_roots(poly):
    """Sorted roots of a polynomial that splits into distinct rational
    linear factors; None for any other polynomial.

    poly is a low-to-high list of Fraction coefficients.  Divided by its
    leading coefficient and scaled by the lcm d of the denominators, the
    polynomial becomes the monic integer q(s) = d^k p(s/d), whose rational
    roots are integers.  A walk down from a bound above every root takes
    floored Newton steps.  When every root is real, q is increasing and
    convex above the largest one, so no step passes an integer root; a root
    found is divided out and the walk goes on below it and below the bound
    of what is left.  The walk stops at the first point where q is negative
    or not increasing, and every recorded root is an exact zero, so a
    returned list is always right.
    """
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    if len(poly) <= 1:
        return []
    k = len(poly) - 1
    monic = [c / poly[-1] for c in poly]
    d = math.lcm(*(c.denominator for c in monic))
    q = [int(c * d ** (k - i)) for i, c in enumerate(monic)]
    x = _root_bound(q)
    roots = []
    while len(q) > 1:
        val, slope = q[-1], 0
        for c in reversed(q[:-1]):
            val, slope = val * x + c, slope * x + val
        if val == 0:
            roots.append(Fraction(x, d))
            q = _poly_deflate(q, x)
            x = min(x - 1, _root_bound(q))
        elif val < 0 or slope <= 0:
            return None
        else:
            x -= max(1, val // slope)
    return roots[::-1]


def _root_bound(q):
    """A power of two above the modulus of every root of the monic integer
    polynomial q: Fujiwara's bound 2 max_i |q_(k-i)|^(1/i), rounded up by bit
    lengths, which is within a factor 8k of the largest root."""
    k = len(q) - 1
    return 2 << max((-(-abs(q[k - i]).bit_length() // i) for i in range(1, k + 1)), default=0)


def _poly_deflate(poly, root):
    """poly / (t - root) by synthetic division (exact root assumed)."""
    n = len(poly) - 1
    out = [Q0] * n
    acc = poly[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = poly[i] + acc * root
    return out


def poly_eval_frac(poly, x):
    val = Q0
    for c in reversed(poly):
        val = val * x + c
    return val


class SemisimpleData:
    """The primitive idempotents: pi_mu * pi_nu = delta pi_mu.

    projectors rows are the coordinates of the pi_mu in the ambient basis;
    norms[mu] is w_mu = eta(pi_mu, unit) = eta(pi_mu, pi_mu).
    """

    def __init__(self, norms, projectors):
        self.norms = vec(norms)
        self.projectors = mat(projectors)
        self.dim = len(self.norms)
        if len(self.projectors) != self.dim or any(len(r) != self.dim for r in self.projectors):
            raise InvalidAlgebra(["semisimple basis change is not a %dx%d matrix" % (self.dim, self.dim)])
        if any(w == 0 for w in self.norms):
            raise InvalidAlgebra(["semisimple weight is zero"])
        # coordinates: ambient vector x ->  (P^t)^{-1} x  gives x in the pi_mu basis
        try:
            self.to_ss = mat_inv(transpose(self.projectors))
        except ZeroDivisionError:
            raise InvalidAlgebra(["semisimple basis change is singular"]) from None

    def to_semisimple(self, v):
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return mat_vec(self.to_ss, v)


def orthonormal_form(ss):
    """The eta-orthonormal frame (theta, e) of ss, or None unless every norm
    is a rational square.

    e_mu = pi_mu / theta_mu with theta_mu^2 = w_mu, signed so that its
    first nonzero coordinate is positive, so theta_mu = eta(e_mu, unit)
    carries the sign; the e_mu are sorted.  `cohft algebra check` prints
    its weights.
    """
    pairs = []
    for w, p in zip(ss.norms, ss.projectors):
        s = rational_sqrt(w)
        if s is None:
            return None
        if next(x for x in p if x != 0) < 0:
            s = -s
        pairs.append((tuple(x / s for x in p), s))
    pairs.sort()
    return tuple(s for _, s in pairs), tuple(e for e, _ in pairs)


class FrobeniusAlgebra:
    """dim, eta (metric), structure[i][j] = coordinates of b_i * b_j, unit."""

    def __init__(self, dim, eta, structure, unit):
        self.dim = int(dim)
        self.eta = mat(eta)
        self.structure = tuple(tuple(vec(structure[i][j]) for j in range(dim)) for i in range(dim))
        self.unit = vec(unit)
        # the structure constants as int numerators over one denominator:
        # _table[i][j] lists the (k, numerator) of the nonzero c_ij^k
        den = self._den = math.lcm(*(x.denominator for row in self.structure for prod in row for x in prod))
        self._table = tuple(
            tuple(tuple((k, x.numerator * (den // x.denominator)) for k, x in enumerate(prod) if x) for prod in row)
            for row in self.structure
        )
        problems = self._validate()
        if problems:
            raise InvalidAlgebra(problems)

    def _validate(self):
        n = self.dim
        problems = []
        if len(self.eta) != n or any(len(r) != n for r in self.eta):
            return ["eta has wrong shape"]
        if len(self.unit) != n:
            return ["unit has wrong length"]
        if any(len(self.structure[i][j]) != n for i in range(n) for j in range(n)):
            return ["structure tensor has wrong shape"]
        if any(self.eta[i][j] != self.eta[j][i] for i in range(n) for j in range(n)):
            problems.append("eta is not symmetric")
        try:
            self.eta_inv = mat_inv(self.eta)
        except ZeroDivisionError:
            problems.append("eta is degenerate")
        basis = identity(n)
        for i in range(n):
            for j in range(i, n):
                if self.structure[i][j] != self.structure[j][i]:
                    problems.append("product not commutative at (%d,%d)" % (i, j))
        for i in range(n):
            got = self._raw_multiply(self.unit, basis[i])
            if got != basis[i]:
                problems.append("unit is not neutral on basis vector %d" % i)
        if problems:
            return problems
        # c[i][j][k] = eta(b_i b_j, b_k); eta is symmetric, so invariance
        # eta(b_i b_j, b_k) = eta(b_i, b_j b_k) reads c[i][j][k] == c[j][k][i]
        c = [[mat_vec(self.eta, prod) for prod in row] for row in self.structure]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # the product is commutative, so the associator changes
                    # sign when i and k swap: it vanishes at i == k, and a
                    # failure at i > k already failed at (k, j, i), which
                    # comes first
                    if i < k:
                        ab_c = self._raw_multiply(self.structure[i][j], basis[k])
                        a_bc = self._raw_multiply(basis[i], self.structure[j][k])
                        if ab_c != a_bc:
                            problems.append("product not associative at (%d,%d,%d)" % (i, j, k))
                            return problems
                    if c[i][j][k] != c[j][k][i]:
                        problems.append("eta is not invariant at (%d,%d,%d)" % (i, j, k))
                        return problems
        return problems

    @classmethod
    def from_semisimple(cls, norms, projectors):
        """Build the algebra whose primitive idempotents have the given norms.

        projectors rows express the pi_mu in the ambient basis; they must be
        linearly independent.  eta, the structure tensor and the unit are
        all determined: eta(pi_mu, pi_nu) = delta w_mu,
        pi_mu pi_nu = delta pi_mu, unit = sum pi_mu.
        """
        norms = vec(norms)
        p = mat(projectors)
        n = len(norms)
        # ambient b_i has pi-coordinates c[i][mu] with b_i = sum_mu c[i][mu] pi_mu,
        # i.e. c P = Id row-wise, so c is the inverse of the projector rows
        c = mat_inv(p)
        columns = transpose(p)
        eta = tuple(
            tuple(sum(c[i][m] * c[j][m] * norms[m] for m in range(n)) for j in range(n)) for i in range(n)
        )
        structure = tuple(
            tuple(tuple(dot([a * b for a, b in zip(c[i], c[j])], col) for col in columns) for j in range(n))
            for i in range(n)
        )
        unit = tuple(sum(col) for col in columns)
        return cls(n, eta, structure, unit)

    def _raw_multiply(self, a, b):
        """a b on int numerators: sum_ij a_i b_j c_ij^k over the product of
        the three denominators, one Fraction per coordinate."""
        da, a = numerators(a)
        db, b = numerators(b)
        out = [0] * self.dim
        for ai, row in zip(a, self._table):
            if ai:
                for bj, prod in zip(b, row):
                    if bj:
                        coeff = ai * bj
                        for k, ck in prod:
                            out[k] += coeff * ck
        d = da * db * self._den
        return tuple(Fraction(x, d) if x else Q0 for x in out)

    def multiply(self, a, b):
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError("dimension mismatch")
        return self._raw_multiply(a, b)

    def power(self, a, k):
        out = self.unit
        for _ in range(k):
            out = self._raw_multiply(out, a)
        return out

    def pair(self, a, b):
        return bilinear(self.eta, a, b)

    def frobenius_trace(self, a):
        if len(a) != self.dim:
            raise ValueError("dimension mismatch")
        return bilinear(self.eta, a, self.unit)

    def euler_class(self):
        out = list(zero_vec(self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                if self.eta_inv[i][j] == 0:
                    continue
                prod = self.structure[i][j]
                for k in range(self.dim):
                    out[k] += self.eta_inv[i][j] * prod[k]
        return tuple(out)

    def multiplication_matrix(self, a):
        """Matrix of v -> a*v acting on ambient coordinates (columns = images)."""
        basis = identity(self.dim)
        cols = [self._raw_multiply(a, basis[j]) for j in range(self.dim)]
        return tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))

    def invert(self, a):
        m = self.multiplication_matrix(a)
        x = solve(m, self.unit)
        if x is None:
            raise NotInvertible("element has no inverse")
        return x

    def is_semisimple(self):
        try:
            self.invert(self.euler_class())
        except NotInvertible:
            return False
        return True

    def euler_power(self, g):
        alpha = self.euler_class()
        if g >= 0:
            return self.power(alpha, g)
        inv = self.invert(alpha)
        return self.power(inv, -g)

    # -- semisimple decomposition -------------------------------------------

    def _minimal_poly(self, y, unit):
        """Monic minimal polynomial of y in the unital subalgebra with unit."""
        powers = [unit]
        while True:
            powers.append(self._raw_multiply(powers[-1], y))
            dep = linear_dependence(powers)
            if dep is not None:
                return [c for c in dep]

    def _split_block(self, u, sep):
        """Split idempotent u along the eigenvalues of y = sep * u, or NotSplit.

        Returns the orthogonal idempotents refining u, [u] when y is a
        multiple of u.  For each root s of the minimal polynomial m of y over
        uA, f(y)/f(s) with f = m/(t-s) is the projector onto the
        s-eigenspace; in a split algebra every element has rational
        eigenvalues, so an m that does not split into distinct rational
        factors already decides NotSplit.
        """
        y = self._raw_multiply(sep, u)
        m = self._minimal_poly(y, u)
        if len(m) <= 2:
            return [u]
        roots = rational_roots(m)
        if roots is None:
            raise NotSplit("no rational splitting: irrational eigenvalues")
        parts = []
        for s in roots:
            f = _poly_deflate(m, s)
            fs = poly_eval_frac(f, s)
            parts.append(tuple(x / fs for x in self._poly_apply(f, y, u)))
        return parts

    def _poly_apply(self, poly, y, unit):
        out = zero_vec(self.dim)
        for c in reversed(poly):
            out = self._raw_multiply(out, y)
            if c != 0:
                out = tuple(a + c * b for a, b in zip(out, unit))
        return out

    def semisimplify(self):
        """The primitive idempotents, sorted, with their norms.

        The unit is split along the rational eigenvalues of each ambient
        basis vector in turn, and the split stops with NotSplit at the first
        minimal polynomial that does not split into distinct rational
        factors.  A final block u has b_i u = lambda_i u for every basis
        vector, so uA = Q u: the blocks are the dim primitive idempotents.
        The split also stops as soon as it holds dim blocks: dim orthogonal
        nonzero idempotents summing to the unit are already primitive.

        A split that holds dim blocks proves A = Q^dim, so it proves
        semisimplicity too, and its data is right by construction: it is
        checked where a CohFTSpec takes it.  A non-semisimple algebra has a
        nilpotent element, so its split always stops with NotSplit; only
        then is the Euler class solved for its inverse, to choose the
        error: NotInvertible when the algebra is not semisimple, the
        NotSplit otherwise.
        """
        blocks = [self.unit]
        try:
            for b in identity(self.dim):
                if len(blocks) == self.dim:
                    break
                blocks = [p for u in blocks for p in self._split_block(u, b)]
        except NotSplit:
            if not self.is_semisimple():
                raise NotInvertible("euler class is not invertible: algebra is not semisimple") from None
            raise
        blocks.sort()
        return SemisimpleData([self.frobenius_trace(u) for u in blocks], blocks)

    def check_semisimple_data(self, ss):
        """All SemisimpleData invariants against this algebra, exactly:
        pi_mu pi_nu = delta pi_mu, sum_mu pi_mu = unit and
        w_mu = eta(pi_mu, unit).  By invariance, eta(pi_mu, pi_nu) =
        eta(pi_mu pi_nu, unit) = delta w_mu follows.

        CohFTSpec runs it once on the data it takes; semisimplify does not,
        since its split builds data that holds by construction.
        """
        n = self.dim
        if ss.dim != n:
            raise InvalidAlgebra(["semisimple data has wrong dimension"])
        p = ss.projectors
        problems = []
        for i in range(n):
            for j in range(i, n):
                if self._raw_multiply(p[i], p[j]) != (p[i] if i == j else zero_vec(n)):
                    problems.append("semisimple product law fails at (%d,%d)" % (i, j))
        if tuple(map(sum, zip(*p))) != self.unit:
            problems.append("unit is not sum of weighted projectors")
        for mu in range(n):
            # with the product law, w_mu = eta(pi_mu, unit) = eta(pi_mu, pi_mu);
            # a wrong norm leaves e_mu = pi_mu / sqrt(w_mu) not orthonormal
            if self.frobenius_trace(p[mu]) != ss.norms[mu]:
                problems.append("semisimple basis not orthonormal at (%d,%d)" % (mu, mu))
        if problems:
            raise InvalidAlgebra(problems)
