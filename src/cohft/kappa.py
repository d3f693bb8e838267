"""The graded polynomial ring Q[kappa_j], j >= 1, and A*-valued elements of it.

A monomial kappa_{j1} ... kappa_{jm} is keyed by the sorted tuple
(j1, ..., jm); its degree is the sum, matching deg kappa_j = j.  Everything
is truncated at a fixed degree cap and computed exactly below it.

Covector-valued polynomials X in A* (x) Q[kappa_j] are stored through their
values on the ambient basis.  The convolution product diagonalizes over a
semisimple basis:  (X * Y)(v) = sum_mu theta_mu^{-1} v^mu X(e_mu) Y(e_mu),
with the Frobenius trace theta as neutral element; exp and log for this
product are plain series since the argument has positive degree, summed by
series.truncated_exp and series.truncated_log.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial

from .linalg import Q0, frac_str, identity, vec
from .series import truncated_exp, truncated_log


class NonzeroConstantTerm(ValueError):
    pass


class WrongConstantTerm(ValueError):
    pass


def _merge_keys(k1, k2):
    return tuple(sorted(k1 + k2))


class KappaPoly:
    __slots__ = ("cap", "terms")

    def __init__(self, cap, terms=None):
        self.cap = cap
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c != 0 and sum(key) <= cap:
                    self.terms[key] = self.terms.get(key, Q0) + Fraction(c)
            self.terms = {k: c for k, c in self.terms.items() if c != 0}

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
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Q0) + c
        return KappaPoly(self.cap, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Q0) - c
        return KappaPoly(self.cap, out)

    def scale(self, c):
        c = Fraction(c)
        return KappaPoly(self.cap, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, KappaPoly):
            out = {}
            for k1, c1 in self.terms.items():
                d1 = sum(k1)
                for k2, c2 in other.terms.items():
                    if d1 + sum(k2) > self.cap:
                        continue
                    key = _merge_keys(k1, k2)
                    out[key] = out.get(key, Q0) + c1 * c2
            return KappaPoly(self.cap, out)
        return self.scale(other)

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
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            c = self.terms[key]
            mono = monomial_str(key)
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
    out = {}
    for key, c in p.terms.items():
        gens = sorted(set(key))
        mults = [key.count(j) for j in gens]
        for pick in iproduct(*[range(m + 1) for m in mults]):
            mult = 1
            left = []
            right = []
            for j, m, k in zip(gens, mults, pick):
                mult *= comb(m, k)
                left.extend([j] * k)
                right.extend([j] * (m - k))
            pair = (tuple(left), tuple(right))
            out[pair] = out.get(pair, Q0) + c * mult
    return {k: v for k, v in out.items() if v != 0}


def tensor_truncate(table, cap):
    return {
        (k1, k2): c for (k1, k2), c in table.items() if sum(k1) + sum(k2) <= cap and c != 0
    }


class CovectorKappaPoly:
    """Element of A* (x) Q[kappa_j], stored as values on the ambient basis."""

    __slots__ = ("cap", "components")

    def __init__(self, components):
        components = tuple(components)
        self.cap = components[0].cap
        self.components = components

    def __eq__(self, other):
        return isinstance(other, CovectorKappaPoly) and self.components == other.components

    def __add__(self, other):
        return CovectorKappaPoly(tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, c):
        return CovectorKappaPoly(tuple(a.scale(c) for a in self.components))

    def value(self, v):
        """Value on an ambient-coordinate vector, by linearity."""
        out = {}
        for x, comp in zip(vec(v), self.components):
            if x != 0:
                for k, c in comp.terms.items():
                    out[k] = out.get(k, Q0) + c * x
        return KappaPoly(self.cap, out)

    @classmethod
    def zero(cls, dim, cap):
        return cls(tuple(KappaPoly(cap) for _ in range(dim)))

    @classmethod
    def from_projector_values(cls, values, ss):
        """Build X from its values X(e_mu) on the semisimple basis."""
        cap = values[0].cap
        comps = []
        for i in range(ss.dim):
            coords = ss.to_semisimple(identity(ss.dim)[i])
            acc = {}
            for mu, c in enumerate(coords):
                if c != 0:
                    for k, v in values[mu].terms.items():
                        acc[k] = acc.get(k, Q0) + v * c
            comps.append(KappaPoly(cap, acc))
        return cls(tuple(comps))

    def projector_value(self, ss, mu):
        return self.value(ss.basis_change[mu])


def theta_covector(algebra, cap):
    """The Frobenius trace as a constant covector polynomial.

    It is the neutral element theta of the convolution product, so
    exp_conv(0) = theta and a group-like element has degree-0 part theta.
    """
    basis = identity(algebra.dim)
    return CovectorKappaPoly(
        tuple(KappaPoly.constant(cap, algebra.frobenius_trace(basis[i])) for i in range(algebra.dim))
    )


def convolution(x, y, ss):
    """Convolution product, multiplied down to a single kappa polynomial."""
    vals = []
    for mu in range(ss.dim):
        xv = x.projector_value(ss, mu)
        yv = y.projector_value(ss, mu)
        vals.append((xv * yv).scale(1 / ss.weights[mu]))
    return CovectorKappaPoly.from_projector_values(vals, ss)


def convolution_tensor(x, y, ss):
    """Convolution product kept in Q[kappa] (x) Q[kappa], per ambient component.

    Returns a tuple of tensor tables truncated at total degree cap.
    """
    cap = x.cap
    proj_tables = []
    for mu in range(ss.dim):
        xv = x.projector_value(ss, mu)
        yv = y.projector_value(ss, mu)
        w = 1 / ss.weights[mu]
        table = {}
        for k1, c1 in xv.terms.items():
            for k2, c2 in yv.terms.items():
                if sum(k1) + sum(k2) > cap:
                    continue
                table[(k1, k2)] = table.get((k1, k2), Q0) + w * c1 * c2
        proj_tables.append(table)
    out = []
    for i in range(ss.dim):
        coords = ss.to_semisimple(identity(ss.dim)[i])
        acc = {}
        for mu, c in enumerate(coords):
            if c == 0:
                continue
            for pair, v in proj_tables[mu].items():
                acc[pair] = acc.get(pair, Q0) + c * v
        out.append(tensor_truncate(acc, cap))
    return tuple(out)


def exp_conv(x, ss):
    """exp for the convolution product, with x^0 = theta."""
    for comp in x.components:
        if comp.constant_term() != 0:
            raise NonzeroConstantTerm("exp_conv needs zero degree-0 part")
    cap = x.cap
    vals = []
    for mu in range(ss.dim):
        xv = x.projector_value(ss, mu)
        w = ss.weights[mu]
        # x^{.n}(e_mu) = theta_mu^{1-n} x(e_mu)^n, so the sum collapses to
        # theta_mu exp(x(e_mu)/theta_mu)
        vals.append(xv.scale(1 / w).exp().scale(w))
    return CovectorKappaPoly.from_projector_values(vals, ss)


def log_conv(x, ss):
    """Inverse of exp_conv through the truncation degree."""
    for mu in range(ss.dim):
        if x.projector_value(ss, mu).constant_term() != ss.weights[mu]:
            raise WrongConstantTerm("log_conv needs degree-0 part theta")
    vals = []
    for mu in range(ss.dim):
        xv = x.projector_value(ss, mu)
        w = ss.weights[mu]
        vals.append(xv.scale(1 / w).log().scale(w))
    return CovectorKappaPoly.from_projector_values(vals, ss)


def exp_conv_series(x, ss):
    """exp_conv by literally summing convolution powers.

    The brute-force reference for exp_conv, which collapses the same sum
    projector by projector; tests compare the two.
    """
    for comp in x.components:
        if comp.constant_term() != 0:
            raise NonzeroConstantTerm("exp_conv needs zero degree-0 part")
    # theta(e_mu) = theta_mu gives the neutral element in ambient components
    vals = [KappaPoly.constant(x.cap, ss.weights[mu]) for mu in range(ss.dim)]
    theta = CovectorKappaPoly.from_projector_values(vals, ss)
    out = theta
    power = theta
    for n in range(1, x.cap + 1):
        power = convolution(power, x, ss)
        out = out + power.scale(Fraction(1, factorial(n)))
    return out


def is_grouplike(x, ss):
    for mu in range(ss.dim):
        if x.projector_value(ss, mu).constant_term() != ss.weights[mu]:
            return False
    tensors = convolution_tensor(x, x, ss)
    for comp, tensor in zip(x.components, tensors):
        if tensor_truncate(coproduct(comp), comp.cap) != tensor:
            return False
    return True


def is_primitive(x):
    """Whether every component has coproduct k (x) 1 + 1 (x) k.

    In Teleman's argument the classification homomorphism is a group-like
    Omega^+ and its log is the phi-primitive sum_j phi_j kappa_j; this is
    the test for the latter, as is_grouplike is for the former.
    """
    for comp in x.components:
        want = {}
        for key, c in comp.terms.items():
            if key == ():
                return False  # stored terms are nonzero, so constant part != 0
            want[(key, ())] = c
            want[((), key)] = c
        got = coproduct(comp)
        if tensor_truncate(got, comp.cap) != tensor_truncate(want, comp.cap):
            return False
    return True
