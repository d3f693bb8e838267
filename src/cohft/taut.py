"""Tautological expressions: the kappa-psi calculus and decorated graph sums.

Two layers of bookkeeping live here.  KPPoly is a polynomial in kappa
classes and the psi classes at n marked points, the form every smooth-model
class takes.  TautExpr is a rational combination of stable graphs carrying a
kappa monomial at each vertex and a psi power at each half edge, the form
classes on the compactified space take.  KPPoly keeps its terms through the
term-dict functions of kappa and defines only its key format (degree,
product, printed name) and its own operations.  TautExpr keeps its own dict:
its key, a DecoratedGraph, carries its degree, and the graph sum builds it
on its hot path.

The kappa side is driven by one combinatorial identity: pushing forward a
product of psi powers at m forgotten points yields the multi-index class
kappa_{k_1..k_m} = sum over permutations, grouped by cycle type, of products
of ordinary kappa classes.  kappa_multi_index computes that sum over set
partitions (a block of size b accounts for the (b-1)! cycles on it), and
forgotten_point_msum sums such pushforwards over every number of forgotten
points.
"""

from fractions import Fraction
from itertools import chain
from math import factorial

from .kappa import (
    KappaPoly,
    collect,
    monomial_str,
    pair_degree,
    pairs_of,
    products,
    render_terms,
    scaled,
    sub_multisets,
)
from .linalg import Q0, Q1, CohftError, frac_str
from .series import EndSeries, truncated_exp


class UnsupportedLowPower(ValueError):
    pass


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def kappa_multi_index(ks, cap):
    """kappa_{k_1,...,k_m} as a polynomial in the kappa_j."""
    ks = list(ks)
    if any(k < 1 for k in ks):
        raise CohftError("multi-index entries must be >= 1")
    terms = []
    for part in _set_partitions(ks):
        weight = 1
        for block in part:
            weight *= factorial(len(block) - 1)
        terms.append((tuple(sorted(map(sum, part))), weight))
    return KappaPoly(cap, terms)


def forgetful_pushforward_monomial(exponents, cap):
    """(p_m)_* of psi^{a_1} ... psi^{a_m} at the forgotten points.

    Each forgotten point must carry psi to a power >= 2; the pushforward is
    then the multi-index class on shifted exponents.
    """
    exponents = list(exponents)
    if any(a < 2 for a in exponents):
        raise UnsupportedLowPower("pushforward needs every exponent >= 2")
    if not exponents:
        return KappaPoly.constant(cap, 1)
    return kappa_multi_index([a - 1 for a in exponents], cap)


def forgotten_point_msum(series, cap):
    """sum_m (1/m!) (p_m)_*(M(psi_1) ... M(psi_m)) through degree cap.

    series[k] is the z^k coefficient of M(z), which has valuation >= 2; an
    exponent-a factor pushes forward to kappa degree a - 1, so series needs
    entries through z^{cap+1}.  The sum runs over multisets of exponents,
    each weighted by its number of ordered arrangements.
    """
    tuples = []

    def extend(prefix, start, deg):
        if prefix:
            tuples.append(list(prefix))
        for a in range(start, len(series)):
            if deg + (a - 1) > cap:
                break
            prefix.append(a)
            extend(prefix, a, deg + a - 1)
            prefix.pop()

    extend([], 2, 0)
    terms = [((), Q1)]
    for tup in tuples:
        # its orderings over m!: one over the factorials of the multiplicities
        weight = Fraction(1)
        for a in set(tup):
            weight /= factorial(tup.count(a))
        for a in tup:
            weight *= series[a]
        if weight != 0:
            terms.extend(scaled(forgetful_pushforward_monomial(tup, cap).terms, weight))
    return KappaPoly(cap, terms)


def _kp_times(a, b):
    return (tuple(sorted(a[0] + b[0])), tuple(x + y for x, y in zip(a[1], b[1])))


def _kp_word(key):
    kk, pp = key
    # psi_i^e is the multiset holding label i e times
    psi = tuple(i for i, e in enumerate(pp, start=1) for _ in range(e))
    return "*".join(w for w in (monomial_str(kk), monomial_str(psi, "p")) if w != "1") or "1"


def _kp_pairs(n, terms):
    """The pairs of terms with tuple keys; ValueError at a nonzero term whose
    psi tuple does not have length n, whatever its degree."""
    for (kk, pp), c in pairs_of(terms):
        if c != 0 and len(pp) != n:
            raise ValueError("psi tuple has wrong length")
        yield (tuple(kk), tuple(pp)), c


class KPPoly:
    """Polynomial in kappa_j and psi_1..psi_n, truncated at total degree cap.

    Keys are (kappa_key, psi_exponents) with kappa_key a sorted tuple of
    generator indices and psi_exponents a length-n tuple.  The terms are
    kept by the term-dict functions of kappa, as KappaPoly's are.
    """

    __slots__ = ("n", "cap", "terms")

    def __init__(self, n, cap, terms=None):
        self.n = n
        self.cap = cap
        self.terms = collect(_kp_pairs(n, terms), cap, pair_degree)

    @classmethod
    def constant(cls, n, cap, c):
        return cls(n, cap, {((), (0,) * n): Fraction(c)})

    @classmethod
    def from_kappa(cls, n, poly):
        return cls(n, poly.cap, (((k, (0,) * n), c) for k, c in poly.terms.items()))

    @classmethod
    def psi(cls, n, cap, i, exponent=1):
        pp = [0] * n
        pp[i - 1] = exponent
        return cls(n, cap, {((), tuple(pp)): Q1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, KPPoly) and self.n == other.n and self.terms == other.terms

    def _same_n(self, other):
        if other.n != self.n:
            raise ValueError("KPPoly operands have different n: %d and %d" % (self.n, other.n))

    def __add__(self, other):
        self._same_n(other)
        return KPPoly(self.n, self.cap, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        self._same_n(other)
        return KPPoly(self.n, self.cap, chain(self.terms.items(), scaled(other.terms, -1)))

    def scale(self, c):
        return KPPoly(self.n, self.cap, scaled(self.terms, c))

    def __mul__(self, other):
        if not isinstance(other, KPPoly):
            return self.scale(other)
        self._same_n(other)
        return KPPoly(self.n, self.cap, products(self.terms, other.terms, self.cap, pair_degree, _kp_times))

    __rmul__ = __mul__

    def truncate(self, cap):
        return KPPoly(self.n, cap, self.terms)

    def permute_slots(self, perm):
        """perm maps slot i (0-based) to slot perm[i]; psi labels follow."""
        out = {}
        for (kk, pp), c in self.terms.items():
            q = [0] * self.n
            for i, e in enumerate(pp):
                q[perm[i]] = e
            out[(kk, tuple(q))] = c
        return KPPoly(self.n, self.cap, out)

    def forgetful_pullback(self):
        """Pullback along the map forgetting a new last point.

        kappa_j becomes kappa_j - psi_{n+1}^j, old psi classes are kept: this
        is the smooth-model rule (the correction divisors restrict to zero).
        Expanding prod_j (kappa_j - psi_{n+1}^j), each factor keeps its kappa
        or moves its degree onto the new point with a sign; equal factors
        give equal terms, so the moved ones run over the sub-multisets of the
        kappa key.  Both choices have degree j, so nothing crosses the cap.
        """
        return KPPoly(
            self.n + 1,
            self.cap,
            (
                ((kept, pp + (sum(moved),)), (-1) ** len(moved) * weight * c)
                for (kk, pp), c in self.terms.items()
                for weight, moved, kept in sub_multisets(kk)
            ),
        )

    def render(self):
        return render_terms(self.terms, pair_degree, _kp_word)

    def __repr__(self):
        return "KPPoly(%s)" % self.render()


def exp_pushforward_diff(coeffs, cap):
    """Difference of the two sides of the exponential pushforward identity.

    Left side: exp(a_1 kappa_1 + a_2 kappa_2 + ...).  Right side: the sum
    over m of (1/m!) times the pushforward of products of copies of
    M(psi) = psi (1 - exp(-a_1 psi - a_2 psi^2 - ...)) at forgotten points.
    """
    coeffs = [Fraction(c) for c in coeffs]
    left = KappaPoly(cap, {(j,): c for j, c in enumerate(coeffs, start=1)}).exp()

    # M(z) through z^{cap+1}, from exp(-a_1 z - a_2 z^2 - ...) as a scalar
    # series through z^cap
    expo = [Q0] + [-c for c in coeffs[:cap]] + [Q0] * (cap - len(coeffs))
    body = truncated_exp(
        EndSeries(1, cap, [[[c]] for c in expo]), EndSeries.identity(1, cap), cap
    )
    m_series = [Q0, Q0] + [-c[0][0] for c in body.coeffs[1:]]
    return left - forgotten_point_msum(m_series, cap)


def exp_pushforward_check(coeffs, cap):
    return exp_pushforward_diff(coeffs, cap).is_zero()


class DecoratedGraph:
    """A stable graph with a kappa monomial per vertex and psi powers per
    half edge, canonicalized under the graph's automorphisms.

    Two constructors build one.  DecoratedGraph(...) checks: it coerces the
    entries to ints, sorts each kappa monomial, checks the shapes against
    the graph, takes the least image over graph.edge_automorphism_images()
    and sums the degree; oracles.brute_force_graph_sum builds its keys this
    way.  DecoratedGraph.trusted(...) checks nothing and keeps its tuples as
    given: the caller passes the canonical form and the degree, as
    givental.graph_contribution does after merging its keys over the
    automorphism orbits.
    """

    __slots__ = ("graph", "vertex_kappa", "leg_psi", "edge_psi", "_hash", "_degree")

    def __init__(self, graph, vertex_kappa, leg_psi, edge_psi):
        vertex_kappa = tuple(tuple(sorted(k)) for k in vertex_kappa)
        leg_psi = tuple(int(x) for x in leg_psi)
        edge_psi = tuple((int(a), int(b)) for a, b in edge_psi)
        if (
            len(vertex_kappa) != graph.num_vertices
            or len(leg_psi) != graph.num_legs
            or len(edge_psi) != len(graph.edges)
        ):
            raise ValueError("decoration does not fit the graph")
        vertex_kappa, leg_psi, edge_psi = self._canonicalize(graph, vertex_kappa, leg_psi, edge_psi)
        self.graph = graph
        self.vertex_kappa = vertex_kappa
        self.leg_psi = leg_psi
        self.edge_psi = edge_psi
        self._hash = hash((graph, vertex_kappa, leg_psi, edge_psi))
        self._degree = (
            len(edge_psi)
            + sum(map(sum, vertex_kappa))
            + sum(leg_psi)
            + sum(a + b for a, b in edge_psi)
        )

    @classmethod
    def trusted(cls, graph, vertex_kappa, leg_psi, edge_psi, degree):
        """The key of a decoration already in canonical form, as the public
        constructor would build it: vertex_kappa a tuple of sorted int
        tuples, leg_psi an int tuple, edge_psi a tuple of int pairs, the
        least image under the graph's automorphisms, of total degree
        degree.  Nothing is checked or copied."""
        self = object.__new__(cls)
        self.graph = graph
        self.vertex_kappa = vertex_kappa
        self.leg_psi = leg_psi
        self.edge_psi = edge_psi
        self._hash = hash((graph, vertex_kappa, leg_psi, edge_psi))
        self._degree = degree
        return self

    @staticmethod
    def _canonicalize(graph, vertex_kappa, leg_psi, edge_psi):
        best = None
        for perm, edge_perm, flips in graph.edge_automorphism_images():
            vk = [None] * len(vertex_kappa)
            for v, k in enumerate(vertex_kappa):
                vk[perm[v]] = k
            ep = [None] * len(edge_psi)
            for i, (a, b) in enumerate(edge_psi):
                ep[edge_perm[i]] = (b, a) if flips[i] else (a, b)
            cand = (tuple(vk), tuple(leg_psi), tuple(ep))
            if best is None or cand < best:
                best = cand
        return best

    def __eq__(self, other):
        return (
            isinstance(other, DecoratedGraph)
            and self.graph == other.graph
            and self.vertex_kappa == other.vertex_kappa
            and self.leg_psi == other.leg_psi
            and self.edge_psi == other.edge_psi
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.graph.sort_key(), self.vertex_kappa, self.leg_psi, self.edge_psi)

    def degree(self):
        """Edges plus every kappa and psi degree, counted once when built."""
        return self._degree

    def encode(self):
        kk = ";".join(monomial_str(k) for k in self.vertex_kappa)
        pl = ",".join(str(x) for x in self.leg_psi)
        pe = ",".join("(%d,%d)" % e for e in self.edge_psi)
        return "%s kappa:[%s] psiL:[%s] psiE:[%s]" % (self.graph.encode(), kk, pl, pe)

    def __repr__(self):
        return "DecoratedGraph(%s)" % self.encode()


class TautExpr:
    """Rational combination of decorated graphs on a fixed (g, n)."""

    __slots__ = ("g", "n", "cap", "terms")

    def __init__(self, g, n, cap, terms=None):
        self.g = g
        self.n = n
        self.cap = cap
        # one pass: a Fraction is kept as it is, anything else coerced
        self.terms = {
            key: c if type(c) is Fraction else Fraction(c)
            for key, c in (terms or {}).items()
            if c != 0 and key.degree() <= cap
        }

    @classmethod
    def trusted(cls, g, n, cap, terms):
        """A TautExpr holding the dict terms as it is: every coefficient a
        nonzero Fraction, every key of degree <= cap.  Nothing is filtered."""
        self = object.__new__(cls)
        self.g = g
        self.n = n
        self.cap = cap
        self.terms = terms
        return self

    def __eq__(self, other):
        return (
            isinstance(other, TautExpr)
            and (self.g, self.n) == (other.g, other.n)
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Q0) + c
        return TautExpr(self.g, self.n, self.cap, out)

    def is_zero(self):
        return not self.terms

    def restrict_to_smooth(self):
        """Keep the edgeless term only, as a smooth-model polynomial."""
        smooth = (
            ((key.vertex_kappa[0], key.leg_psi), c) for key, c in self.terms.items() if not key.graph.edges
        )
        return KPPoly(self.n, self.cap, smooth)

    def render_lines(self):
        lines = []
        for key in sorted(self.terms, key=lambda k: k.sort_key()):
            lines.append("%s * %s" % (key.encode(), frac_str(self.terms[key])))
        return lines

    def __repr__(self):
        return "TautExpr(\n  %s\n)" % "\n  ".join(self.render_lines() or ["0"])
