"""Exact psi-kappa intersection numbers and correlators of reconstructed
theories.

Every number is read from a Correlators backend that the caller holds:
its memo is the only state, and integrate_taut and correlator_of_theory
take the backend as an argument, so no table is shared across a process.

Correlators.psi_correlator implements the Virasoro/KdV recursion with the
two standard seeds <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24: the string
equation removes a tau_0, the dilaton equation removes a tau_1, and the
main (DVV) recursion applies to an index >= 2.  It runs on an integer
lattice: the memo holds

  N(g; a_1..a_n) = 2^{4g+n-2} prod (2a_i+1)!! <tau_a_1 ... tau_a_n>_g

as a plain int, and a Fraction is built only where a value leaves the memo.
Every psi-number times prod (2a_i+1)!! is a dyadic rational, and by
induction on the recursion below 2^{4g+n-2} clears its denominator.  The
seeds are N(0; 0,0,0) = 2 and N(1; 1) = 1, and every coefficient is an
integer (n counts the points on the left, and the DVV line applies when
every exponent is at least 2, with a_1 the largest):

  string   N(g; A, 0) = 2 sum_j (2a_j+1) N(g; A with a_j - 1)
  dilaton  N(g; A, 1) = 6 (2g-3+n) N(g; A)
  DVV      N(g; a_1, A) = sum_j 2 (2a_j+1) N(g; a_1+a_j-1, A without a_j)
             + sum_{b+c=a_1-2} [4 N(g-1; A, b, c)
                                + sum w N(g_1; S, b) N(g_2; T, c)]

The DVV recursion halves its quadratic terms.  Against the scale
2^{4g+n-2} of the left side, the non-separating key (genus g-1, n+1
points) has scale 2^{4g+n-5}, and the two separating keys (genera adding
to g, n+1 points between them) have scales multiplying to 2^{4g+n-3}.  The
ratios 2^3 and 2^1 leave 2^2 and 2^0 after the half, so no division is left.
The separating term splits the remaining points into the two sides.
Points with equal exponents give equal terms, so the split runs over the
sub-multisets S of the remaining exponents, each once per call and
weighted by w = prod_a C(m_a, k_a), the number of index subsets that pick
it.  The genus of the side holding S and tau_b is not looped over: its
dimension fixes it, 3 g_1 = sum(S) + b - |S| + 2, so S is skipped when that
is not a multiple of 3 or g_1 lies outside [0, g].

The public entries sort and check each query once.  The recursion builds
only stable keys of the right dimension, sorted where it builds them, and
reads the memo tables without checking again.

kappa classes are eliminated one at a time through the pushforward
definition kappa_b = p_*(psi^{b+1}): on the space with one more point the
remaining kappas pick up the correction kappa_s - psi_new^s, while the old
psi classes need no correction because every term carries a positive power
of the new psi class, which kills the correction divisors.  Expanding the
product of corrections is again a sum over the sub-multisets S of the
remaining kappa indices, with sign (-1)^|S| and the same binomial weights.
Both splits read kappa.sub_multisets, which also lists the terms of the
kappa coproduct.

correlator_of_theory integrates a theory's class times psi powers without
building the class.  Only the part of the graph sum of degree 3g-3+n -
sum(psi) integrates to a number, and it factorises (the vertex/edge
factorisation of Dunin-Barkowski, Orantin, Shadrin and Spitz, CMP 2014):

  sum_Gamma 1/|Aut Gamma| sum_mu prod_v w_mu(v)^{1-h(v)}
      sum_{edge decorations} prod_e K_e prod_v F_v,

where F_v sums, over the rows of the vertex's table of exactly the degree
left at v (its dimension less its edge-end and leg psi powers), the row
coefficient times the kappa-psi number of the vertex.  The walk over
projector assignments and edge decorations, and the vertex tables, are
givental's, shared with the class (givental.DecorationWalk and
VertexTables), on the same integer lattice: the walk carries the int
vertex prefactors and kernel numerators, and F_v is formed from the
integer row numerators of the table, its denominator already in the
prefactor.  Here each vertex is limited by what the psi powers at its legs
leave of its dimension, so a branch is cut once a vertex's load passes
that; the walk's budget is the sum of those limits, which no limit
exceeds, so each vertex reads its table with its limit as room.  F_v is
memoised for one call by (genus, leg labels, projector, sorted edge-end
psi); within a graph each vertex reads its values as int
numerators over one denominator of its own, so a graph's part is an int
sum, divided once, together with its 1/|Aut|.
integrate_taut(r_action(...)) computes the same numbers through the class
and stays as the bit-exact reference.
The factorised sum may memoise a few intersection numbers that the class
path never looks up, because terms that cancel in the class are never
integrated there.
"""

import os
import re
from fractions import Fraction
from math import gcd, prod

from .givental import DecorationWalk, VertexTables, require_input
from .graphs import enumerate_stable_graphs, require_stable
from .kappa import sub_multisets
from .linalg import Q0, RATIONAL, CohftError, frac_str


def _scale(g, exps):
    """2^{4g+n-2} prod (2a_i+1)!!, the factor from <exps>_g to N(g; exps)."""
    out = 1
    for a in exps:
        for i in range(3, 2 * a + 2, 2):
            out *= i
    return out << (4 * g + len(exps) - 2)


def _descending(values):
    return tuple(sorted(values, reverse=True))


def _right_degree(g, psi_exps, kappa_key):
    """Whether a query has the dimension of its moduli space; an unstable
    (g, n) raises UnstablePair and a negative exponent or index CohftError."""
    require_stable(g, len(psi_exps))
    if any(a < 0 for a in psi_exps + kappa_key):
        raise CohftError("negative psi exponent or kappa index")
    return sum(psi_exps) + sum(kappa_key) == 3 * g - 3 + len(psi_exps)


class Correlators:
    """Memoized intersection-number backend, owned by its caller.

    The memo tables are plain dicts with no lock: share a backend between
    threads only with external synchronisation.
    """

    def __init__(self):
        self._psi = {}
        self._kp = {}

    # -- pure psi numbers ----------------------------------------------------

    def psi_correlator(self, g, exps):
        exps = _descending(exps)
        if not _right_degree(g, exps, ()):
            return Q0
        return self._psi_value(g, exps)

    def _psi_value(self, g, exps):
        """<exps>_g as a Fraction, for a memoised key or one _lattice takes."""
        return Fraction(self._lattice(g, exps), _scale(g, exps))

    def _lattice(self, g, exps):
        """The memo lookup the recursion calls: N(g; exps), with (g, exps)
        stable, exps sorted descending and of the dimension of the moduli
        space."""
        key = (g, exps)
        value = self._psi.get(key)
        if value is None:
            value = self._psi[key] = self._psi_recurse(g, exps)
        return value

    def _psi_recurse(self, g, exps):
        n = len(exps)
        if (g, n) == (0, 3):
            return 2
        if (g, n) == (1, 1):
            return 1
        rest = exps[:-1]
        if exps[-1] == 0:
            # string equation: equal exponents give equal terms, and lowering
            # the last of them keeps the order
            total = 0
            for a in dict.fromkeys(rest):
                if a >= 1:
                    m = rest.count(a)
                    j = rest.index(a) + m
                    total += m * (2 * a + 1) * self._lattice(g, rest[: j - 1] + (a - 1,) + rest[j:])
            return 2 * total
        if exps[-1] == 1:
            # dilaton equation
            return 6 * (2 * g - 3 + n) * self._lattice(g, rest)
        # main recursion on the largest index, all entries >= 2 here
        a1, rest = exps[0], exps[1:]
        total = 0
        # merging a1 with a point: equal exponents give equal terms
        for aj in dict.fromkeys(rest):
            j = rest.index(aj)
            others = rest[:j] + rest[j + 1 :]
            total += 2 * rest.count(aj) * (2 * aj + 1) * self._lattice(g, (a1 + aj - 1,) + others)
        # sum(S) - |S| decides the left genus for every b
        splits = [(w, s, t, sum(s) - len(s)) for w, s, t in sub_multisets(rest)]
        for b in range(a1 - 1):
            c = a1 - 2 - b
            if g >= 1:
                total += 4 * self._lattice(g - 1, _descending(rest + (b, c)))
            for weight, chosen, remainder, excess in splits:
                g1, r = divmod(excess + b + 2, 3)
                if r or not 0 <= g1 <= g:
                    continue
                g2 = g - g1
                if 2 * g1 - 1 + len(chosen) <= 0 or 2 * g2 - 1 + len(remainder) <= 0:
                    continue
                total += (
                    weight
                    * self._lattice(g1, _descending(chosen + (b,)))
                    * self._lattice(g2, _descending(remainder + (c,)))
                )
        return total

    # -- kappa reduction -------------------------------------------------------

    def kappa_psi_correlator(self, g, psi_exps, kappa_key=()):
        psi_exps = _descending(psi_exps)
        kappa_key = tuple(sorted(kappa_key))
        if not _right_degree(g, psi_exps, kappa_key):
            return Q0
        return self._kp_value(g, psi_exps, kappa_key)

    def _kp_value(self, g, psi_exps, kappa_key):
        """The memo lookup of the kappa reduction, on keys as _psi_value
        takes them, kappa_key sorted ascending."""
        if not kappa_key:
            return self._psi_value(g, psi_exps)
        key = (g, psi_exps, kappa_key)
        if key not in self._kp:
            b, rest = kappa_key[-1], kappa_key[:-1]
            total = Q0
            for weight, picked, left in sub_multisets(rest):
                total += (-1) ** len(picked) * weight * self._kp_value(
                    g, _descending(psi_exps + (b + 1 + sum(picked),)), left
                )
            self._kp[key] = total
        return self._kp[key]

    # -- consistency and persistence ------------------------------------------

    def psi_keys(self):
        """The memoized pure-psi keys (g, exps), sorted."""
        return sorted(self._psi)

    def check_string_dilaton(self):
        """String and dilaton equations on every memoized pure-psi key.

        A key <exps>_g whose last exponent is 0 and that is stable without
        that point is compared with the string-equation sum over the
        (n-1)-point keys; every key <exps>_g with a stable (g, n+1) is
        compared, through the dilaton equation, with <exps, tau_1>_g.
        """
        failures = []
        for g, exps in self.psi_keys():
            n = len(exps)
            val = self._psi_value(g, exps)
            rest = exps[:-1]
            if exps[-1] == 0 and 2 * g - 2 + (n - 1) > 0:
                string = sum(
                    (
                        self.psi_correlator(g, rest[:j] + (a - 1,) + rest[j + 1 :])
                        for j, a in enumerate(rest)
                        if a >= 1
                    ),
                    Q0,
                )
                if val != string:
                    failures.append(("string", g, exps))
            if 2 * g - 2 + (n + 1) > 0:
                dilaton = (2 * g - 2 + n) * val
                if self.psi_correlator(g, exps + (1,)) != dilaton:
                    failures.append(("dilaton", g, exps))
        return failures

    def dump(self):
        lines = []
        for g, exps in self.psi_keys():
            val = self._psi_value(g, exps)
            lines.append("psi %d %s = %s" % (g, ",".join(map(str, exps)), frac_str(val)))
        for (g, pp, kk), val in sorted(self._kp.items()):
            lines.append(
                "kp %d %s %s = %s"
                % (g, ",".join(map(str, pp)), ",".join(map(str, kk)), frac_str(val))
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def load(self, text, source="<text>"):
        """Read entries in the format dump() writes, all or none.

        Each non-blank line is `psi G E = V` or `kp G P K = V`: G a genus,
        E, P and K comma-separated lists of non-negative integers (P may be
        empty) and V an integer or a fraction.  A psi entry must be of a
        stable (G, n), of degree at most its dimension and of genus at most
        MAX_CACHE_GENUS, and V times 2^{4G+n-2} prod (2a_i+1)!! must be an
        integer.  Any other line raises CohftError naming `source` and the
        line number, and nothing is read.
        """
        psi, kp = {}, {}
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                key, value = _parse_entry(line)
            except ValueError as exc:
                raise CohftError(
                    "correlator cache %s, line %d: %s" % (source, number, exc)
                ) from None
            (psi if len(key) == 2 else kp)[key] = value
        self._psi.update(psi)
        self._kp.update(kp)

    def save_to(self, directory):
        """Write dump() to correlators.txt through a temp file and a rename,
        so a reader never sees a partly written file."""
        path = os.path.join(directory, "correlators.txt")
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                fh.write(self.dump())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return path

    def load_from(self, directory):
        """load() correlators.txt in directory; a missing file reads nothing.

        A file that cannot be read, because directory is not a directory,
        the file is a directory or it is not text, raises CohftError naming
        the path.
        """
        path = os.path.join(directory, "correlators.txt")
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CohftError("correlator cache %s: %s" % (path, exc.strerror)) from None
        except UnicodeDecodeError:
            raise CohftError("correlator cache %s: not a text file" % path) from None
        self.load(text, path)


# the genus and degree bounds keep the scale of a cache entry small: that
# of <tau_2998>_1000 has 37,312 bits and takes 3 ms, while the memo of
# <tau_{3g-2}>_g holds 259 entries at genus 8 and 779 at genus 10
MAX_CACHE_GENUS = 1000
_NUMS = r"(\d+(?:,\d+)*)"
_ENTRY = re.compile(
    r"(?:psi (\d+) %s|kp (\d+) %s? %s) = (%s)" % (_NUMS, _NUMS, _NUMS, RATIONAL),
    re.ASCII,
)


def _parse_entry(line):
    """(memo key, value) of one cache line; ValueError if it is malformed."""
    m = _ENTRY.fullmatch(line)
    if m is None:
        raise ValueError("malformed entry %r" % line)
    psi_g, psi_exps, kp_g, kp_exps, kp_kappa, value = m.groups()

    def ints(field):
        return tuple(int(x) for x in field.split(",")) if field else ()

    value = Fraction(value)
    if psi_g is None:
        return (int(kp_g), ints(kp_exps), ints(kp_kappa)), value
    g, exps = int(psi_g), ints(psi_exps)
    n = len(exps)
    if 2 * g - 2 + n <= 0:
        raise ValueError("psi entry of the unstable pair (g, n) = (%d, %d)" % (g, n))
    if g > MAX_CACHE_GENUS:
        raise ValueError("psi entry of genus %d above %d" % (g, MAX_CACHE_GENUS))
    if sum(exps) > 3 * g - 3 + n:
        raise ValueError("psi entry of degree %d above its dimension %d" % (sum(exps), 3 * g - 3 + n))
    scaled = value * _scale(g, exps)
    if scaled.denominator != 1:
        raise ValueError(
            "psi value %s is off the lattice: times 2^(4g+n-2) prod (2a_i+1)!! it is %s, not an integer"
            % (frac_str(value), frac_str(scaled))
        )
    return (g, exps), scaled.numerator


def _require_psi(psi, n):
    """psi as a tuple, once it is checked to hold n non-negative powers."""
    psi = tuple(psi)
    if len(psi) != n:
        raise CohftError("need one psi exponent per marked point")
    if any(a < 0 for a in psi):
        raise CohftError("negative psi exponent")
    return psi


def integrate_taut(expr, backend, psi=None):
    """Integrate a decorated graph sum, times psi powers at the legs, over
    its moduli space.

    Each decorated graph integrates to the product over vertices of the
    kappa-psi correlator of the local decoration, with psi[i] added to the
    power at leg i + 1; the pushforward along the gluing map preserves
    integrals and the automorphism weights are already in the coefficients.
    A term whose degree plus sum(psi) exceeds the dimension integrates to
    zero and is skipped before any vertex is looked up.  Automorphisms fix
    the legs, so adding psi leaves every key canonical.  psi, when given,
    holds one non-negative power per leg, as for correlator_of_theory.
    Every vertex number is read from backend.
    """
    psi = (0,) * expr.n if psi is None else _require_psi(psi, expr.n)
    room = 3 * expr.g - 3 + expr.n - sum(psi)
    total = Q0
    for key, coeff in expr.terms.items():
        if key.degree() > room:
            continue
        graph = key.graph
        value = coeff
        for v, h in enumerate(graph.genera):
            exps = tuple(key.leg_psi[label - 1] + psi[label - 1] for label in graph.labels[v])
            exps += tuple(key.edge_psi[i][end] for i, end in graph.ends[v])
            value *= backend.kappa_psi_correlator(h, exps, key.vertex_kappa[v])
            if value == 0:
                break
        total += value
    return total


def correlator_of_theory(spec, g, n, vectors, psi_exps, backend):
    """Exact integral of the reconstructed class times psi powers.

    The factorised top-degree graph sum of the module docstring; no class
    is built; every vertex number is read from backend.
    integrate_taut(r_action(...), backend, psi_exps) gives the same number
    through the class.
    """
    psi = _require_psi(psi_exps, n)
    if spec.degree < 3 * g - 3 + n:
        # an integral of a class truncated below the space dimension would
        # silently miss terms; graded comparisons may truncate, numbers not
        raise CohftError(
            "truncation degree %d is below the dimension %d of the target space"
            % (spec.degree, 3 * g - 3 + n)
        )
    require_input(g, n, vectors)
    if sum(psi) > 3 * g - 3 + n:
        return Q0
    tables = VertexTables(spec, vectors)
    values = {}  # vertex values of this call, shared by every graph
    total = Q0
    for graph in enumerate_stable_graphs(g, n):
        part, den = _graph_integral(graph, psi, backend, tables, values)
        if part:
            total += Fraction(part, den * graph.automorphism_order())
    return total


def _graph_integral(graph, psi, backend, tables, values):
    """One graph's part of the correlator, before its 1/|Aut| weight, as an
    int numerator and its denominator.

    Each vertex is limited by what psi at its legs leaves of its dimension,
    and each edge decoration that fits contributes its int coefficient
    times the value of every vertex at the degree its load leaves.  values
    memoises a vertex value, the Fraction sum over the integer table rows,
    by (genus, leg labels, projector, sorted edge end psi powers), which fix
    that degree.  Within the graph, vertex v reads each value as an int
    numerator over its own denominator M_v, the lcm of the denominators
    read so far; when a value needs a larger M_v, the numerators read
    before and the running total are scaled up to it, since every term of
    the total holds one value of vertex v.  So the walk adds only ints and
    the denominator is the walk's times prod_v M_v.
    """
    nv = graph.num_vertices
    genera, labels, ends = graph.genera, graph.labels, graph.ends
    limits = [graph.vertex_dim(v) - sum(psi[label - 1] for label in labels[v]) for v in range(nv)]
    if min(limits) < 0 or (graph.edges and not tables.kernel):
        return 0, 1
    walk = DecorationWalk(tables, graph, limits, sum(limits))
    assign, load, edge_psi, rows = walk.assign, walk.load, walk.edge_psi, walk.rows
    dens = [1] * nv
    nums = [{} for _ in range(nv)]  # (projector, edge end psi) -> numerator over dens[v]
    total = 0

    def leaf(left, coeff):
        nonlocal total
        for v in range(nv):
            at = tuple(sorted(edge_psi[i][end] for i, end in ends[v]))
            num = nums[v].get((assign[v], at))
            if num is None:
                key = (genera[v], labels[v], assign[v], at)
                value = values.get(key)
                if value is None:
                    value = values[key] = _vertex_value(
                        backend, rows[v][assign[v]], limits[v] - load[v], genera[v], labels[v], psi, at
                    )
                scale = value.denominator // gcd(dens[v], value.denominator)
                if scale > 1:
                    dens[v] *= scale
                    total *= scale
                    nums[v] = {k: x * scale for k, x in nums[v].items()}
                num = nums[v][(assign[v], at)] = value.numerator * (dens[v] // value.denominator)
            coeff *= num
        total += coeff

    walk.run(leaf)
    return total, walk.denominator * prod(dens)


def _vertex_value(backend, rows, degree, h, labels, psi, ends):
    """Sum over the integer table rows of exactly this degree of the row
    numerator times the kappa-psi number of a genus-h vertex: the row's leg
    powers shifted by psi, then the edge-end powers ends."""
    total = Q0
    for deg, kk, exps, c in rows:
        if deg < degree:
            continue
        if deg > degree:
            break
        legs = tuple(e + psi[label - 1] for label, e in zip(labels, exps))
        total += c * backend.kappa_psi_correlator(h, legs + ends, kk)
    return total
