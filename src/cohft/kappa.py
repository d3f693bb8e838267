"""The graded polynomial ring Q[kappa_j], j >= 1, and A*-valued elements of it.

A monomial kappa_{j1} ... kappa_{jm} is keyed by the sorted tuple
(j1, ..., jm); its degree is the sum, matching deg kappa_j = j.  Everything
is truncated at a fixed degree cap and computed exactly below it.

The term storage of every sparse polynomial in the package lives here, in
a few functions on term dicts (monomial -> nonzero Fraction): collect sums
(monomial, coefficient) pairs into a dict truncated at a cap, products
lists the pairwise products of two dicts and render_terms prints one.
KappaPoly and taut.KPPoly own only what differs, the degree of a key, the
product of two keys and the name of a monomial; each defines its methods on
its own class.  sub_multisets lists the terms of the coproduct of a kappa
monomial; the same split drives the forgetful pullback of taut and the
kappa reduction and DVV recursion of intersect.

Covector-valued polynomials X in A* (x) Q[kappa_j] are stored through their
values X(pi_mu) on the primitive idempotents of a split semisimple algebra,
of norms w_mu = eta(pi_mu, 1), where the convolution product acts
coordinatewise:  (X * Y)(pi_mu) = w_mu^{-1} X(pi_mu) Y(pi_mu), with the
Frobenius trace theta, theta(pi_mu) = w_mu, as neutral element.  So
convolution, exp and log for it, and the group-like and primitive tests
work projector by projector and change no basis; exp and log are plain
series since the argument has positive degree, summed by
series.truncated_exp and series.truncated_log.  No ambient table is kept:
X at a vector with pi-coordinates x^mu is sum_mu x^mu X(pi_mu), the
combination of the values that givental forms for Teleman's smooth part.
"""

from fractions import Fraction
from itertools import chain, groupby, product
from math import comb, factorial

from .linalg import Q0, frac_str
from .series import truncated_exp, truncated_log


class NonzeroConstantTerm(ValueError):
    pass


class WrongConstantTerm(ValueError):
    pass


def pairs_of(terms):
    """The (monomial, coefficient) pairs of a dict or an iterable of pairs;
    None has none."""
    return terms.items() if isinstance(terms, dict) else terms or ()


def collect(terms, cap, degree):
    """The term dict of terms, a dict or an iterable of (monomial,
    coefficient) pairs: equal monomials are summed, zero terms and those of
    degree(monomial) above cap dropped, and coefficients made Fractions."""
    out = {}
    for key, c in pairs_of(terms):
        if c != 0 and degree(key) <= cap:
            out[key] = out.get(key, Q0) + (c if type(c) is Fraction else Fraction(c))
    return {key: c for key, c in out.items() if c != 0}


def scaled(terms, c):
    """The pairs of the term dict terms, each coefficient times c."""
    c = Fraction(c)
    return ((key, v * c) for key, v in terms.items())


def combination(coeffs, tables):
    """The pairs of sum_i coeffs[i] tables[i], over term dicts tables."""
    return ((key, v * x) for x, table in zip(coeffs, tables) if x != 0 for key, v in table.items())


def products(left, right, cap, degree, times):
    """(times(k1, k2), c1 c2) for each term k1 of the term dict left and k2
    of right whose degrees sum to at most cap."""
    right = [(k2, c2, degree(k2)) for k2, c2 in right.items()]
    for k1, c1 in left.items():
        room = cap - degree(k1)
        for k2, c2, d2 in right:
            if d2 <= room:
                yield times(k1, k2), c1 * c2


def render_terms(terms, degree, word):
    """A term dict as text, by degree then monomial: the coefficient times
    word(monomial), where a coefficient of 1 or -1 is left out, and the
    constant monomial, whose word is "1", is printed as its coefficient."""
    if not terms:
        return "0"
    bits = []
    for key in sorted(terms, key=lambda k: (degree(k), k)):
        c = terms[key]
        mono = word(key)
        if mono == "1":
            bits.append(frac_str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append("-" + mono)
        else:
            bits.append(frac_str(c) + "*" + mono)
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def pair_degree(key):
    """Degree of a key made of two monomials: a tensor key of
    Q[kappa] (x) Q[kappa], or a (kappa monomial, psi exponents) key."""
    return sum(key[0]) + sum(key[1])


def sub_multisets(values):
    """Each sub-multiset of a sorted tuple once, as (weight, picked, left).

    weight = prod_a C(m_a, k_a) counts the index subsets of values that pick
    the multiset; picked and left keep the order of values.
    """
    groups = [(a, len(tuple(run))) for a, run in groupby(values)]
    out = []
    for ks in product(*(range(m + 1) for _, m in groups)):
        weight = 1
        picked = left = ()
        for (a, m), k in zip(groups, ks):
            weight *= comb(m, k)
            picked += (a,) * k
            left += (a,) * (m - k)
        out.append((weight, picked, left))
    return out


def _merge_keys(k1, k2):
    return tuple(sorted(k1 + k2))


class KappaPoly:
    __slots__ = ("cap", "terms")

    def __init__(self, cap, terms=None):
        self.cap = cap
        self.terms = collect(terms, cap, sum)

    @classmethod
    def constant(cls, cap, c):
        return cls(cap, {(): Fraction(c)})

    @classmethod
    def generator(cls, cap, j, coeff=1):
        if j < 1:
            raise ValueError("kappa generators are indexed from 1")
        return cls(cap, {(j,): Fraction(coeff)})

    def __eq__(self, other):
        return isinstance(other, KappaPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((), Q0)

    def __add__(self, other):
        return KappaPoly(self.cap, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return KappaPoly(self.cap, chain(self.terms.items(), scaled(other.terms, -1)))

    def scale(self, c):
        return KappaPoly(self.cap, scaled(self.terms, c))

    def __mul__(self, other):
        if not isinstance(other, KappaPoly):
            return self.scale(other)
        return KappaPoly(self.cap, products(self.terms, other.terms, self.cap, sum, _merge_keys))

    __rmul__ = __mul__

    def exp(self):
        if self.constant_term() != 0:
            raise NonzeroConstantTerm("exp needs zero constant term")
        return truncated_exp(self, KappaPoly.constant(self.cap, 1), self.cap)

    def log(self):
        if self.constant_term() != 1:
            raise WrongConstantTerm("log needs constant term 1")
        return truncated_log(self, KappaPoly.constant(self.cap, 1), self.cap)

    def render(self):
        return render_terms(self.terms, sum, monomial_str)

    def __repr__(self):
        return "KappaPoly(%s)" % self.render()


def monomial_str(key, symbol="k"):
    if not key:
        return "1"
    parts = []
    for j in sorted(set(key)):
        e = key.count(j)
        parts.append("%s%d" % (symbol, j) if e == 1 else "%s%d^%d" % (symbol, j, e))
    return "*".join(parts)


def coproduct(p):
    """Algebra map with kappa_j -> kappa_j (x) 1 + 1 (x) kappa_j.

    Returns a dict (key1, key2) -> coefficient; on a monomial this is the
    sum over sub-multisets with binomial multiplicities.
    """
    pairs = (
        ((picked, left), c * weight)
        for key, c in p.terms.items()
        for weight, picked, left in sub_multisets(key)
    )
    return tensor_truncate(pairs, p.cap)


def tensor_truncate(table, cap):
    return collect(table, cap, pair_degree)


class CovectorKappaPoly:
    """Element X of A* (x) Q[kappa_j], held as its values X(pi_mu) on the
    projectors of the semisimple data ss."""

    __slots__ = ("ss", "values", "cap")

    def __init__(self, ss, values):
        self.ss = ss
        self.values = tuple(values)
        self.cap = self.values[0].cap

    def __eq__(self, other):
        """Equal values on the same projectors."""
        if not isinstance(other, CovectorKappaPoly):
            return False
        return self.ss.projectors == other.ss.projectors and self.values == other.values

    def __add__(self, other):
        return CovectorKappaPoly(self.ss, (a + b for a, b in zip(self.values, other.values)))

    def scale(self, c):
        return CovectorKappaPoly(self.ss, (a.scale(c) for a in self.values))


def theta_covector(ss, cap):
    """The Frobenius trace as a constant covector polynomial, theta(pi_mu) =
    w_mu.

    It is the neutral element theta of the convolution product, so
    exp_conv(0) = theta and a group-like element has degree-0 part theta.
    """
    return CovectorKappaPoly(ss, (KappaPoly.constant(cap, w) for w in ss.norms))


def convolution(x, y):
    """Convolution product: (X * Y)(pi_mu) = w_mu^{-1} X(pi_mu) Y(pi_mu)."""
    return CovectorKappaPoly(
        x.ss, ((a * b).scale(1 / w) for a, b, w in zip(x.values, y.values, x.ss.norms))
    )


def _at_projectors(x, f):
    """w_mu f(X(pi_mu) / w_mu) at each projector."""
    return CovectorKappaPoly(x.ss, (f(v.scale(1 / w)).scale(w) for v, w in zip(x.values, x.ss.norms)))


def exp_conv(x):
    """exp for the convolution product, with x^0 = theta.

    x^{*n}(pi_mu) = w_mu^{1-n} x(pi_mu)^n, so the sum collapses to
    w_mu exp(x(pi_mu) / w_mu); NonzeroConstantTerm unless x has zero
    degree-0 part.
    """
    return _at_projectors(x, KappaPoly.exp)


def log_conv(x):
    """Inverse of exp_conv through the truncation degree; WrongConstantTerm
    unless the degree-0 part of x is theta."""
    return _at_projectors(x, KappaPoly.log)


def exp_conv_series(x):
    """exp_conv by literally summing convolution powers.

    The brute-force reference for exp_conv, which collapses the same sum
    projector by projector; tests compare the two.
    """
    if any(v.constant_term() != 0 for v in x.values):
        raise NonzeroConstantTerm("exp_conv needs zero degree-0 part")
    out = power = theta_covector(x.ss, x.cap)
    for n in range(1, x.cap + 1):
        power = convolution(power, x)
        out = out + power.scale(Fraction(1, factorial(n)))
    return out


def is_grouplike(x):
    """Whether the coproduct of X is (X * X) kept in Q[kappa] (x) Q[kappa],
    and the degree-0 part of X is theta.

    At each projector: X(pi_mu) has constant term w_mu and coproduct
    w_mu^{-1} X(pi_mu) (x) X(pi_mu).  Both sides are linear in the value
    and the projectors are a basis, so this is the test on every vector.
    """
    for v, w in zip(x.values, x.ss.norms):
        if v.constant_term() != w:
            return False
        square = products(v.terms, v.terms, x.cap, sum, lambda k1, k2: (k1, k2))
        if coproduct(v) != tensor_truncate(((pair, c / w) for pair, c in square), x.cap):
            return False
    return True


def is_primitive(x):
    """Whether every value has coproduct k (x) 1 + 1 (x) k.

    In Teleman's argument the classification homomorphism is a group-like
    Omega^+ and its log is the phi-primitive sum_j phi_j kappa_j; this is
    the test for the latter, as is_grouplike is for the former.
    """
    for v in x.values:
        if () in v.terms:
            return False  # stored terms are nonzero, so constant part != 0
        want = {}
        for key, c in v.terms.items():
            want[(key, ())] = c
            want[((), key)] = c
        if coproduct(v) != want:
            return False
    return True
