"""TQFT values, the R-matrix graph action, and the two reconstructions.

A theory is specified by a split semisimple Frobenius algebra, covectors
phi_j defining the stable-range homomorphism exp(sum phi_j kappa_j), and a
symplectic R-matrix.  The degree-zero part of everything is the TQFT
omega_{g,n}(v_1...v_n) = theta(alpha^g v_1 ... v_n).

The graph action is evaluated per projector, in the frame of the
primitive idempotents pi_mu and their norms w_mu = eta(pi_mu, 1), where
omega_{h,k}(pi_mu, ..., pi_mu) = w_mu^{1-h} and no square root appears.
At a vertex of genus h, the insertion sum over forgotten points collapses
in closed form: writing R^{-1}(z) 1 = sum_mu u_mu(z) pi_mu, the vertex
contributes w_mu^{1-h} exp(sum_j a_j^mu kappa_j) with the a_j^mu read off
from -log u_mu.  Legs carry the pi-coordinates of R^{-1}(psi) v, edges the
symplectic kernel with one projector index at each end.

The same logarithm fixes the coherent phi: the product of A is
coordinatewise on the pi_mu, so
log(R^{-1}(z) 1) = -sum_j z^j sum_mu a_j^mu pi_mu and
phi_j = eta(sum_mu a_j^mu pi_mu, .).  One table of scalar logs
(series.truncated_log per projector) serves the vertices and phi.

Teleman's smooth part is read in the same frame.  With alpha =
sum_mu pi_mu / w_mu, Omega^+(alpha^g v_1 ... v_n) is
sum_mu w_mu^{-g} prod_i v_i^mu Omega^+(pi_mu), where v_i^mu are the
pi-coordinates of the slots: of the vectors for framed points, of the
cached leg series R^{-1}(z) v for free ones.  Only tqft_value multiplies in
the ambient basis, as the reference the graph-sum tests compare against.
verify_axioms checks non-separating sewing by the genus-1 topological
recursion on the theory's correlators, so the edge kernel and the graph sum
are under its check too.

A spec inverts no series.  It reads R in the projector frame,
U_k = P^{-t} R_k P^t with P the projector rows, and takes R^{-1} as the
symplectic adjoint R^*(-z) there (Givental, math/0108100):
T_k = (-1)^k W U_k^t E with E = diag(w) the metric on the pi_mu and
W = E^{-1}.  The edge kernel is built once, when the spec is constructed,
in the pi-coordinates, with numerator delta W - T(z) W T(w)^t =
W (delta E - U(-z)^t E U(w)) W, on int numerators.  Its division by z + w
leaves a zero remainder exactly when U(-z)^t E U(z) = E, that is when R is
symplectic, which is when T = R^{-1}: the division is the spec's
symplectic check and proves T too.  The leg series R^{-1}(z) v is T(z)
applied to the pi-coordinates of v, and the u_mu of the vertex log are the
row sums of T, since the unit has pi-coordinates (1, ..., 1).
EndSeries.invert stays the independent reference: coherent_phi,
series.check_symplectic, series.edge_kernel and the oracles read it, and
the tests compare the spec's kernel, legs, logs and phi with it.

The graph sum does work in proportion to its output, and its two pieces
serve both sums over graphs, the class and the correlator.  A
DecorationWalk picks each projector assignment and then the edge
decorations depth first, cutting a branch once it overruns the degree left
or a vertex's psi limit.  VertexTables holds, per (leg labels, room,
projector), the (kappa monomial, leg psi) decorations of a vertex sorted by
degree; one dict of them serves every graph of a sum.  graph_contribution
walks the vertices through these tables under each edge decoration, and
r_action adds every graph's terms into one dict and builds a single
TautExpr.  intersect.correlator_of_theory runs the same walk with each
vertex limited by what the psi powers at its legs leave of its dimension,
and reads from the same tables only the rows of the one degree that
integrates to a number (see intersect).  The leg series R^{-1}(z) v and one
vertex exponential per projector, at the spec degree, are cached on the
spec.

The walk runs on an integer lattice.  When a sum starts, VertexTables reads
the edge kernel from spec.kernel_ss() as int numerators over one
denominator D_K, and each leg series as int numerators over one
denominator; each vertex exponential it reads once, the same way.  A
vertex table's rows are products of those ints, over the table's
denominator den(exp) prod den(leg), so no Fraction is built per row; per
vertex (genus h, legs, room) the factor
w_mu^{1-h} / den(table at mu) is brought to int prefactors over the lcm L_v
over mu.  Every leaf of a graph's walk then multiplies one prefactor per
vertex, one kernel numerator per edge and one row numerator per vertex,
all ints over the one denominator D = D_K^|E| prod_v L_v of the graph.
graph_contribution sums the int numerators under the walk's raw int keys,
which carry each term's degree.  On a graph with automorphisms it merges
the keys of one orbit under their least image, the form the checking
DecoratedGraph(...) constructor picks; it then builds each distinct key
once, through the trusted DecoratedGraph.trusted, and each coefficient
once, as Fraction(N, D).  The walk itself does no Fraction arithmetic.
|Aut| enters only in r_action, which divides the terms of a graph with
|Aut| > 1 by it.  The kernel is read per sum, not cached as ints on the
spec, so an in-place change to the spec's kernel shows at the next sum.
"""

from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct
from math import lcm
from operator import mul

from .kappa import CovectorKappaPoly, KappaPoly, combination, exp_conv, is_grouplike
from .graphs import enumerate_stable_graphs, require_stable
from .linalg import CohftError, dot, frac_str, identity, int_mat_mul, int_rows, mat_vec, numerators, transpose, vec
from .series import EndSeries, NotDivisible, divide_by_z_plus_w, truncated_log
from .taut import DecoratedGraph, KPPoly, TautExpr


class IncoherentSpec(CohftError):
    pass


class NotSymplectic(CohftError):
    pass


class CohFTSpec:
    """Classification data: algebra, semisimple basis, phi covectors, R.

    R is an EndSeries of order degree with R_0 = Id; an R of another order
    or constant term raises CohftError.

    Construction checks the semisimple data against the algebra first;
    this is the one check of a frame, since FrobeniusAlgebra.semisimplify
    returns its split unchecked.  It then builds the edge kernel in that
    basis, which raises NotSymplectic when R is not symplectic and
    otherwise proves that the symplectic adjoint R^*(-z), which the legs
    and vertex logs read, is R^{-1}.  With coherent set and phi None, phi
    is derived from R through the compatibility relation and not checked
    against itself; with coherent set and phi given, the covectors are
    compared with that derivation (compatibility_check), and IncoherentSpec
    is raised when they differ.  No Omega^+ and no inverse series are built.
    """

    def __init__(self, algebra, ss, phi, r, degree, coherent=False):
        self.algebra = algebra
        self.ss = ss
        self.degree = int(degree)
        if self.degree < 1:
            raise CohftError("truncation degree must be >= 1")
        if r.order != self.degree:
            raise CohftError("R must have order %d, the truncation degree, not %d" % (self.degree, r.order))
        if r.coeffs[0] != identity(algebra.dim):
            raise CohftError("R must have constant term Id")
        self.r = r
        algebra.check_semisimple_data(ss)
        frame = _projector_frame(ss, r)
        try:
            self._kernel_ss = _semisimple_kernel(ss, *frame)
        except NotDivisible:
            raise NotSymplectic("R does not satisfy the symplectic condition") from None
        self._inverse = _adjoint_inverse(ss, *frame)
        self._cache = {}
        self.coherent = bool(coherent)
        if phi is None:
            if not self.coherent:
                raise CohftError("phi is derived from R only for a coherent spec")
            # derived from R, this phi needs no compatibility check
            self.phi = tuple(self.phi_from_r())
            return
        phi = [vec(p) for p in phi]
        if any(len(p) != algebra.dim for p in phi):
            raise CohftError("each phi covector must have %d entries" % algebra.dim)
        while len(phi) < self.degree:
            phi.append(vec([0] * algebra.dim))
        self.phi = tuple(phi[: self.degree])
        if self.coherent and not compatibility_check(self):
            raise IncoherentSpec("phi does not match log(R^{-1} unit)")

    # -- cached derived data --------------------------------------------------

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def phi_from_r(self):
        """The coherent covectors forced by R (see coherent_phi)."""
        return self._get(
            "phi_r", lambda: _phi_from_log(self.algebra, self.ss, self.vertex_log_coeffs())
        )

    def kernel_ss(self):
        """Edge kernel in semisimple coordinates, by projector pair.

        Maps (mu, nu) to the nonzero entries (a, b, c): c is the z^a w^b
        coefficient pairing projector mu with projector nu.  Entries are
        sorted by a + b, so a walk can stop at the first that overruns.
        """
        return self._kernel_ss

    def leg_series(self, v):
        """R^{-1}(z) v in semisimple coordinates, one tuple per power of z:
        T(z) applied to the pi-coordinates of v (see _adjoint_inverse)."""
        v = vec(v)
        if len(v) != self.algebra.dim:
            raise ValueError("dimension mismatch")

        def build():
            dx, x = numerators(self.ss.to_semisimple(v))
            dens, rows = self._inverse
            return tuple(
                tuple(Fraction(sum(map(mul, row, x)), d * dx) for row, d in zip(t, dens)) for t in rows
            )

        return self._get(("legs", v), build)

    def vertex_log_coeffs(self):
        """a_j^mu from -log u_mu(z), for j = 1..degree: u_mu is the row sum
        of T at mu, since the unit has pi-coordinates (1, ..., 1)."""

        def build():
            dens, rows = self._inverse
            u = [[Fraction(sum(t[mu]), d) for t in rows] for mu, d in enumerate(dens)]
            return _log_coeffs(u, self.degree)

        return self._get("vertex_log", build)

    def vertex_exp(self, mu, cap):
        """exp(sum_j a_j^mu kappa_j) through degree cap <= degree.

        One exponential per projector is built, at the spec degree; a
        smaller cap takes its terms of degree <= cap, which are exactly the
        exponential truncated there.
        """

        def build():
            coeffs = self.vertex_log_coeffs()[mu]
            return KappaPoly(self.degree, {(j,): c for j, c in enumerate(coeffs, start=1)}).exp()

        full = self._get(("vexp", mu), build)
        return full if cap == self.degree else KappaPoly(cap, full.terms)


def _projector_frame(ss, r):
    """(d, M): R in the projector frame, U_k = P^{-t} R_k P^t = M[k] / d,
    as int matrices over one denominator, P the projector rows."""
    da, a = int_rows(ss.to_ss)
    dc, c = int_rows(transpose(ss.projectors))
    db, b = int_rows([row for coeff in r.coeffs for row in coeff])
    n = len(a)
    return da * db * dc, [int_mat_mul(int_mat_mul(a, b[k * n : (k + 1) * n]), c) for k in range(len(r.coeffs))]


def _adjoint_inverse(ss, d, frame):
    """R^{-1} in the projector frame as the symplectic adjoint R^*(-z):
    T_k = (-1)^k W U_k^t E with E = diag(w), W = E^{-1}, stored as
    (dens, rows) on ints: with w = e / dw,
    T_k[i][j] = (-1)^k U_k[j][i] e_j / e_i = rows[k][i][j] / dens[i].

    T(z) U(z) = W U(-z)^t E U(z) is Id exactly when U(-z)^t E U(z) = E,
    which is the remainder check of _semisimple_kernel: a spec exists only
    for a symplectic R, and then T is R^{-1}, with no series inverted.
    """
    _, e = numerators(ss.norms)
    n = len(e)
    rows = [[[(-1) ** k * m[j][i] * e[j] for j in range(n)] for i in range(n)] for k, m in enumerate(frame)]
    return [x * d for x in e], rows


def _semisimple_kernel(ss, d, frame):
    """The edge kernel (W - T(z) W T(w)^t) / (z + w) in pi-coordinates, in
    the layout of CohFTSpec.kernel_ss, for T = R^*(-z) (_adjoint_inverse)
    and U = M / d the projector frame (_projector_frame).

    The pi_mu are eta-orthogonal of norms w_mu, so the numerator is
    N[a][b] = W (delta_{a0} delta_{b0} E - (-1)^{a+b} U_a^t E U_b) W with
    E = diag(w) = e / dw on ints, W = E^{-1}.  The middle factor is divided
    by z + w as int numerators X over d^2 dw, and each kernel entry is
    built once, as X dw / (e_i e_j d^2).  The remainder at w = -z is
    W (E - U(-z)^t E U(z)) W, zero exactly when R is symplectic, so
    building the kernel is the symplectic check: NotDivisible otherwise.
    """
    order = len(frame) - 1
    dw, e = numerators(ss.norms)
    n = len(e)
    transposed = [tuple(zip(*m)) for m in frame]
    scaled = [[[w * x for x in row] for w, row in zip(e, m)] for m in frame]
    numerator = {}
    for a in range(order + 1):
        for b in range(a, order + 1 - a):
            sign = -1 if (a + b) % 2 else 1
            m = tuple(
                tuple((e[i] * d * d if a == b == 0 and i == j else 0) - sign * x for j, x in enumerate(row))
                for i, row in enumerate(int_mat_mul(transposed[a], scaled[b]))
            )
            # N[b][a] is the transpose of N[a][b]
            numerator[(a, b)] = m
            numerator[(b, a)] = transpose(m)
    scale = [[Fraction(dw, e[i] * e[j] * d * d) for j in range(n)] for i in range(n)]
    out = {}
    table = divide_by_z_plus_w(numerator, order)
    for (a, b), m in sorted(table.items(), key=lambda it: (sum(it[0]), it[0])):
        for mu, row in enumerate(m):
            for nu, x in enumerate(row):
                if x:
                    out.setdefault((mu, nu), []).append((a, b, x * scale[mu][nu]))
    return out


def _log_coeffs(u, cap):
    """a_j^mu = -[z^j] log u_mu(z) for j = 1..cap, one tuple per projector,
    from the cap + 1 coefficients u[mu] of a series with constant term 1;
    each log is a scalar series, a dim-1 EndSeries."""
    one = EndSeries.identity(1, cap)
    out = []
    for coeffs in u:
        log = truncated_log(EndSeries(1, cap, [[[c]] for c in coeffs]), one, cap)
        out.append(tuple(-c[0][0] for c in log.coeffs[1:]))
    return tuple(out)


def _phi_from_log(algebra, ss, log_coeffs):
    """phi_j = -eta(log(R^{-1}(z) unit)_j, .) from the per-projector logs.

    The product is coordinatewise on the idempotents pi_mu and
    R^{-1}(z) unit = sum_mu u_mu(z) pi_mu, so
    log(R^{-1}(z) unit) = -sum_j z^j sum_mu a_j^mu pi_mu.
    """
    phi = []
    for j in range(len(log_coeffs[0])):
        x = [sum(a[j] * p[i] for a, p in zip(log_coeffs, ss.projectors)) for i in range(algebra.dim)]
        phi.append(mat_vec(algebra.eta, x))
    return phi


def require_input(g, n, vectors):
    """UnstablePair for an unstable (g, n), ValueError unless n vectors."""
    require_stable(g, n)
    if len(vectors) != n:
        raise ValueError("need %d vectors" % n)


def tqft_value(spec, g, n, vectors):
    """theta(alpha^g v_1 ... v_n): the degree-zero field theory."""
    require_input(g, n, vectors)
    alg = spec.algebra
    acc = alg.euler_power(g)
    for v in vectors:
        acc = alg.multiply(acc, vec(v))
    return alg.frobenius_trace(acc)


def phi_primitive(spec):
    """x = sum_j phi_j kappa_j as a covector polynomial, through the spec
    degree: x(pi_mu) = sum_j phi_j(pi_mu) kappa_j."""
    return CovectorKappaPoly(
        spec.ss,
        (
            KappaPoly(spec.degree, (((j,), dot(p, pi)) for j, p in enumerate(spec.phi, start=1)))
            for pi in spec.ss.projectors
        ),
    )


def omega_plus(spec):
    """exp of the phi primitive for the convolution product; group-like.

    At each projector, Omega^+(pi_mu) = w_mu exp(x(pi_mu) / w_mu).
    Cached on the spec; callers only read the result.
    """
    return spec._get("omega_plus", lambda: exp_conv(phi_primitive(spec)))


def compatibility_check(spec):
    """Whether phi_j = -eta([z^j] log(R^{-1}(z) unit), .) for j = 1..degree.

    The relation reads log Omega^+ = sum_j phi_j kappa_j against the
    covectors forced by R.  exp_conv and log_conv are inverse through the
    truncation degree, projector by projector, so the log of Omega^+ =
    exp_conv(phi primitive) is the phi primitive itself, and the relation is
    checked on the covectors.
    """
    return spec.phi == tuple(spec.phi_from_r())


def coherent_phi(algebra, ss, r, cap):
    """The unique covectors making (phi, R) a coherent specification.

    Read from R^{-1}(z) unit = sum_mu u_mu(z) pi_mu with R^{-1} the inverted
    series: a path independent of the spec's symplectic adjoint.
    """
    coords = [ss.to_semisimple(c) for c in r.invert().apply(algebra.unit)[: cap + 1]]
    return _phi_from_log(algebra, ss, _log_coeffs(list(zip(*coords)), cap))


def _class_cap(spec, g, n):
    """Degree cap of a class on Mbar_{g,n}: the spec degree, at most 3g-3+n."""
    return max(min(spec.degree, 3 * g - 3 + n), 0)


def _slot_sum(spec, g, slots, cap):
    """Teleman's smooth part: the sum over psi exponents e of total degree
    <= cap of Omega^+(alpha^g prod_i slots[i][e_i]) psi^e, where slots[i][e]
    holds the pi-coordinates of the vector at slot i under psi_i^e
    (exponents past a slot's end are skipped).

    The product is coordinatewise on the pi_mu and alpha = sum_mu pi_mu /
    w_mu, so the argument has coordinates w_mu^{-g} prod_i slots[i][e_i][mu]
    and Omega^+ of it is that combination of the values Omega^+(pi_mu).
    """
    tables = [value.terms for value in omega_plus(spec).values]
    alpha_g = [w**-g for w in spec.ss.norms]
    terms = []
    for exps in _bounded_tuples(len(slots), cap):
        if any(e >= len(slot) for slot, e in zip(slots, exps)):
            continue
        coords = alpha_g
        for slot, e in zip(slots, exps):
            coords = [x * y for x, y in zip(coords, slot[e])]
        terms.extend(((kk, exps), c) for kk, c in combination(coords, tables))
    return KPPoly(len(slots), cap, terms)


def reconstruct_fixed(spec, g, n, vectors):
    """Kappa-polynomial valued form: the classification formula for framed
    points, Omega^+ evaluated at alpha^g v_1 ... v_n."""
    require_input(g, n, vectors)
    return _slot_sum(spec, g, [(spec.ss.to_semisimple(vec(v)),) for v in vectors], _class_cap(spec, g, n))


def reconstruct_free(spec, g, n, vectors):
    """Free-point form: R^{-1}(psi_i) in every slot, then the fixed formula."""
    require_input(g, n, vectors)
    return _slot_sum(spec, g, [spec.leg_series(v) for v in vectors], _class_cap(spec, g, n))


def _bounded_tuples(n, cap):
    if n == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _bounded_tuples(n - 1, cap - head):
            yield (head,) + tail


class VertexTables(dict):
    """The integer data of one graph sum: its vertex tables, keyed by
    (labels, room, mu), and its edge kernel.

    A table lists the decorations of a vertex that carries the legs labels
    under projector mu, through degree room: rows (degree, kappa monomial,
    leg psi powers, numerator), one per term of exp(sum_j a_j^mu kappa_j)
    times the leg factors [z^e] R^{-1}(z) v at mu, sorted by degree so that
    a walk reads the prefix that fits.  The table is stored as
    (denominator, rows): each row's coefficient is its numerator over the
    table's one denominator, den(exp) prod den(leg), from the exponential
    and the leg series read once per sum as ints over one denominator
    each.  A table depends only on its key, the spec and
    the vectors, so one dict serves every graph of a sum; a table is built
    the first time it is read.

    The kernel is read from spec.kernel_ss() when the sum starts, as int
    numerators over one denominator kernel_den, so an in-place change of
    the spec's kernel shows in every later sum.
    """

    def __init__(self, spec, vectors):
        super().__init__()
        self.spec = spec
        self.legs = [int_rows(spec.leg_series(v)) for v in vectors]
        entries = spec.kernel_ss()
        self.kernel_den = lcm(*(c.denominator for row in entries.values() for _, _, c in row))
        self.kernel = {key: _numerators(row, self.kernel_den) for key, row in entries.items()}
        self._exps = {}
        self._vertices = {}

    def _exp(self, mu, room):
        """(den, rows): the terms of exp(sum_j a_j^mu kappa_j) through room
        as rows (degree, kappa monomial, numerator) over one denominator."""
        key = (mu, room)
        data = self._exps.get(key)
        if data is None:
            terms = self.spec.vertex_exp(mu, room).terms
            den, nums = numerators(terms.values())
            data = self._exps[key] = (den, [(sum(kk), kk, c) for kk, c in zip(terms, nums) if c])
        return data

    def __missing__(self, key):
        labels, room, mu = key
        den, exp_rows = self._exp(mu, room)
        legs = []
        for label in labels:
            leg_den, leg = self.legs[label - 1]
            den *= leg_den
            legs.append([row[mu] for row in leg])
        rows = []
        for kdeg, kk, c in exp_rows:
            for exps in _bounded_tuples(len(labels), room - kdeg):
                x = c
                for leg, e in zip(legs, exps):
                    x *= leg[e]
                    if not x:
                        break
                if x:
                    rows.append((kdeg + sum(exps), kk, exps, x))
        rows.sort(key=lambda row: row[0])
        self[key] = table = (den, rows)
        return table

    def vertex(self, h, labels, room):
        """(L, prefactors, rows) of a genus-h vertex with legs labels and
        room: rows[mu] the integer rows of its table under projector mu, and
        prefactors[mu] / L = w_mu^{1-h} / (that table's denominator), all
        over the one L, the lcm over mu."""
        key = (h, labels, room)
        data = self._vertices.get(key)
        if data is None:
            tables = [self[(labels, room, mu)] for mu in range(len(self.spec.ss.norms))]
            scaled = [w ** (1 - h) / den for w, (den, _) in zip(self.spec.ss.norms, tables)]
            den = lcm(*(q.denominator for q in scaled))
            data = self._vertices[key] = (
                den,
                [q.numerator * (den // q.denominator) for q in scaled],
                [rows for _, rows in tables],
            )
        return data


def _numerators(rows, den):
    """rows with their last entry, a Fraction, replaced by its numerator
    over den, which its denominator divides."""
    return [row[:-1] + (row[-1].numerator * (den // row[-1].denominator),) for row in rows]


class DecorationWalk:
    """The projector assignments and edge decorations of one graph, depth
    first, on integers.

    run(left, leaf) sets assign to each projector assignment in turn, then
    picks a kernel entry (a, b, c) for each edge, one edge at a time, and
    carries the int prod_v prefactor_v(mu) prod_e c down: the kernel
    numerators over the sum's kernel_den, the vertex prefactors of
    VertexTables.vertex over their L_v.  A branch is cut as soon as an
    edge's a + b passes the degree left (the entries are sorted by a + b,
    so the loop stops there) or a vertex's load, the psi degree its edge
    ends carry, passes its limit.  Each decoration that fits calls
    leaf(left, coeff), with assign, load and edge_psi holding the choice;
    rows[v][mu] are the integer table rows of vertex v under mu, at the room
    rooms[v].  Every leaf, times one row numerator per vertex, is over the
    one denominator kernel_den^|E| prod_v L_v of the graph.
    graph_contribution limits each vertex by its dimension; the correlator
    sum of intersect by what the psi powers at its legs leave of it.
    """

    __slots__ = ("graph", "limits", "kernel", "prefactors", "rows", "denominator", "assign", "load", "edge_psi")

    def __init__(self, tables, graph, limits, rooms):
        self.graph = graph
        self.limits = limits
        self.kernel = tables.kernel
        data = [tables.vertex(*key) for key in zip(graph.genera, graph.labels, rooms)]
        self.prefactors = [prefactors for _, prefactors, _ in data]
        self.rows = [rows for _, _, rows in data]
        self.denominator = tables.kernel_den ** len(graph.edges)
        for den, _, _ in data:
            self.denominator *= den
        self.assign = [0] * graph.num_vertices
        self.load = [0] * graph.num_vertices
        self.edge_psi = [None] * len(graph.edges)

    def run(self, left, leaf):
        edges = self.graph.edges
        ne = len(edges)
        kernel, factors = self.kernel, self.prefactors
        limits, assign, load, edge_psi = self.limits, self.assign, self.load, self.edge_psi

        def walk(i, left, coeff):
            if i == ne:
                leaf(left, coeff)
                return
            u, w = edges[i]
            for a, b, c in kernel.get((assign[u], assign[w]), ()):
                if a + b > left:
                    break
                load[u] += a
                load[w] += b
                if load[u] <= limits[u] and load[w] <= limits[w]:
                    edge_psi[i] = (a, b)
                    walk(i + 1, left - a - b, coeff * c)
                load[u] -= a
                load[w] -= b

        for assignment in iproduct(range(len(factors[0])), repeat=len(assign)):
            assign[:] = assignment
            pref = 1
            for mu, row in zip(assignment, factors):
                pref *= row[mu]
            walk(0, left, pref)


def graph_contribution(spec, graph, vectors, tables=None):
    """The decorated-graph class attached to one boundary stratum.

    No automorphism weight here; r_action divides by |Aut| where it is
    above 1.  Decorations are truncated at each vertex's dimension (classes
    above it vanish) and at the global cap.

    A DecorationWalk picks the edge decorations within the degree budget
    and the vertex dimensions; under each, a depth-first walk picks the
    vertex decorations one vertex at a time from the integer table rows,
    reading the prefix that fits the room left at that vertex, and carries
    the partial int numerator down, so every leaf is an emitted term over
    the walk's one denominator.  Calls with the same spec and vectors may
    share one VertexTables as tables: r_action passes one to every graph of
    its sum.  Numerators are summed under their raw int keys, merged over
    the graph's automorphism orbits by _orbit_minima, and each distinct key
    is built once with DecoratedGraph.trusted, from the canonical tuples and
    the degree the walk counted; the public DecoratedGraph(...) would check
    and canonicalize each again.  Each coefficient is built once as a
    Fraction over the denominator, and the TautExpr takes the terms with no
    second filter.
    """
    g = graph.total_genus()
    n = graph.num_legs
    if len(vectors) != n:
        raise ValueError("need %d vectors" % n)
    cap = _class_cap(spec, g, n)
    ne = len(graph.edges)
    if tables is None:
        tables = VertexTables(spec, vectors)
    if ne > cap or (ne and not tables.kernel):
        return TautExpr(g, n, cap)
    budget = cap - ne  # decoration degree available globally
    nv = graph.num_vertices
    dims = [graph.vertex_dim(v) for v in range(nv)]
    labels = graph.labels
    # a vertex's room is the most degree it can ever have
    walk = DecorationWalk(tables, graph, dims, [min(d, budget) for d in dims])
    assign, load, edge_psi, rows = walk.assign, walk.load, walk.edge_psi, walk.rows
    kappa = [None] * nv
    leg_psi = [0] * n
    raw = {}

    def walk_vertices(v, left, coeff):
        if v == nv:
            # the term's degree is the cap less what the walk left
            key = (tuple(kappa), tuple(leg_psi), tuple(edge_psi), cap - left)
            raw[key] = raw.get(key, 0) + coeff
            return
        limit = min(dims[v] - load[v], left)
        for deg, kk, exps, c in rows[v][assign[v]]:
            if deg > limit:
                break
            kappa[v] = kk
            for label, e in zip(labels[v], exps):
                leg_psi[label - 1] = e
            walk_vertices(v + 1, left - deg, coeff * c)

    walk.run(budget, lambda left, coeff: walk_vertices(0, left, coeff))
    den = walk.denominator
    trusted_key = DecoratedGraph.trusted
    terms = {
        trusted_key(graph, vertex_kappa, legs_psi, edges_psi, degree): Fraction(c, den)
        for (vertex_kappa, legs_psi, edges_psi, degree), c in _orbit_minima(graph, raw).items()
        if c
    }
    return TautExpr.trusted(g, n, cap, terms)


def _orbit_minima(graph, raw):
    """raw, keyed by (vertex_kappa, leg_psi, edge_psi, degree), with its keys
    merged over the orbits of graph.edge_automorphism_images(): each key goes
    to the least image in its orbit, the one DecoratedGraph's constructor
    picks, and the numerators of one orbit are summed.  raw itself when the
    identity is the only image.

    An image is kept as two maps: its vertex j holds the kappa monomial of
    vertex vsrc[j], and its edge j the psi pair of edge i, ends swapped when
    flip, for (i, flip) = esrc[j].  The images of one key are its whole
    orbit, so each orbit is computed once, at the first of its keys met.
    """
    images = graph.edge_automorphism_images()
    if len(images) == 1:
        return raw
    # vsrc and the edges of esrc are the inverse permutations
    maps = [
        (
            sorted(range(len(perm)), key=perm.__getitem__),
            [(i, flips[i]) for i in sorted(range(len(edge_perm)), key=edge_perm.__getitem__)],
        )
        for perm, edge_perm, flips in images
    ]
    least = {}
    out = {}
    for key, c in raw.items():
        best = least.get(key)
        if best is None:
            kappa, legs, edges, degree = key
            orbit = []
            for vsrc, esrc in maps:
                image_edges = tuple([edges[i][::-1] if flip else edges[i] for i, flip in esrc])
                orbit.append((tuple([kappa[v] for v in vsrc]), legs, image_edges, degree))
            best = min(orbit)
            for image in orbit:
                least[image] = best
        out[best] = out.get(best, 0) + c
    return out


def r_action(spec, g, n, vectors):
    """Sum of contributions over all boundary strata, weighted by 1/|Aut|.

    Each graph's terms come from graph_contribution, canonical and nonzero,
    with no automorphism weight; only a graph with |Aut| > 1 has its
    coefficients divided, by |Aut|.  Every key carries its graph, so no two
    graphs share a key and the terms go into one TautExpr as they are.
    """
    require_input(g, n, vectors)
    cap = _class_cap(spec, g, n)
    total = {}
    tables = VertexTables(spec, vectors)
    for graph in enumerate_stable_graphs(g, n):
        terms = graph_contribution(spec, graph, vectors, tables).terms
        aut = graph.automorphism_order()
        if aut == 1:
            total.update(terms)
        else:
            for key, c in terms.items():
                total[key] = c / aut
    return TautExpr.trusted(g, n, cap, total)


def restrict_to_smooth(expr):
    return expr.restrict_to_smooth()


def two_point(spec, v, w):
    """Omega^+(v (x) w) as a polynomial in kappa and one psi variable."""
    w = spec.ss.to_semisimple(vec(w))
    slot = [tuple(x * y for x, y in zip(s, w)) for s in spec.leg_series(v)]
    return _slot_sum(spec, 0, [slot], spec.degree)


# the symmetry axiom permutes the slots of every pair with at most this
# many points
_MAX_PERM_N = 4

AXIOMS = ("unit", "symmetry", "sewing-nonseparating", "sewing-separating", "forgetful")


def _symmetry_pairs(max_dim):
    return [(g, n) for g in range(0, 3) for n in range(2, _MAX_PERM_N + 1)
            if 2 * g - 2 + n > 0 and 0 < 3 * g - 3 + n <= max_dim]


def _forgetful_pairs(max_dim):
    return [(g, n) for g in range(0, 3) for n in range(1, 4)
            if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= max_dim and 3 * g - 3 + n >= 1]


def _checks_sewing_nonseparating(spec, max_dim):
    return min(max_dim, spec.degree) >= 2


def skipped_axioms(spec, max_dim=2):
    """The axioms of AXIOMS for which verify_axioms(spec, mode, max_dim)
    checks no case: symmetry and forgetful below max_dim 1, non-separating
    sewing below max_dim 2 or spec degree 2.  Unit and separating sewing
    always run."""
    ran = {
        "symmetry": _symmetry_pairs(max_dim),
        "sewing-nonseparating": _checks_sewing_nonseparating(spec, max_dim),
        "forgetful": _forgetful_pairs(max_dim),
    }
    return [axiom for axiom in AXIOMS if not ran.get(axiom, True)]


def verify_axioms(spec, mode="free", max_dim=2):
    """Check the field-theory axioms as exact polynomial identities.

    mode is "fixed" or "free".  Returns a list of failure records, each a
    dict with the axiom name, the place it failed, and the first differing
    monomial; an empty list means every identity holds through the
    truncation degree.  An axiom that max_dim or the spec degree leaves
    with no case to check gives no failure: skipped_axioms names them.
    """
    if mode not in ("fixed", "free"):
        raise ValueError("mode must be fixed or free")
    recon = reconstruct_fixed if mode == "fixed" else reconstruct_free
    alg = spec.algebra
    basis = identity(alg.dim)
    failures = []

    def first_diff(a, b):
        diff = a - b
        if diff.is_zero():
            return None
        key = sorted(diff.terms, key=lambda k: (sum(k[0]) + sum(k[1]), k))[0]
        return "%s (coefficient %s)" % (str(key), diff.terms[key])

    # 1. unit axiom on (0, 3)
    for i in range(alg.dim):
        for j in range(alg.dim):
            got = recon(spec, 0, 3, [alg.unit, basis[i], basis[j]])
            want = KPPoly.constant(3, got.cap, alg.pair(basis[i], basis[j]))
            d = first_diff(got, want)
            if d:
                failures.append({"axiom": "unit", "at": (i, j), "diff": d})

    # 2. symmetry under slot permutation with simultaneous psi relabeling
    for g, n in _symmetry_pairs(max_dim):
        tuples = list(iproduct(range(alg.dim), repeat=n))[: alg.dim ** min(n, 2)]
        for idx in tuples:
            vs = [basis[i] for i in idx]
            base = recon(spec, g, n, vs)
            for perm in list(permutations(range(n)))[1:]:
                permuted = recon(spec, g, n, [vs[perm[i]] for i in range(n)])
                # relabel psi slots: slot i of the permuted input is slot perm[i]
                d = first_diff(permuted.permute_slots(perm), base)
                if d:
                    failures.append({"axiom": "symmetry", "at": (g, n, idx, perm), "diff": d})
                    break

    # 3. non-separating sewing, through the genus-1 topological recursion
    # on the theory's correlators: psi_1 on Mbar_{1,2} is a sum of boundary
    # divisors, the non-separating one among them, so the gluing axioms and
    # the edge kernel behind them decide <tau_1(b_i) tau_0(b_j)>_1
    if _checks_sewing_nonseparating(spec, max_dim):
        # intersect imports this module, and only this check reads oracles
        from .intersect import Correlators, correlator_of_theory
        from .oracles import trr_genus1

        backend = Correlators()

        def corr(g, vectors, psi):
            return correlator_of_theory(spec, g, len(vectors), vectors, psi, backend)

        for i, j in iproduct(range(alg.dim), repeat=2):
            lhs, separating, non_separating = trr_genus1(corr, alg.eta_inv, [(basis[i], 1), (basis[j], 0)])
            diff = lhs - separating - non_separating / 24
            if diff:
                failures.append({"axiom": "sewing-nonseparating", "at": (1, i, j), "diff": frac_str(diff)})

    # 4. separating sewing through the group-like property
    if not is_grouplike(omega_plus(spec)):
        failures.append({"axiom": "sewing-separating", "at": "omega_plus", "diff": "not group-like"})

    # 5. forgetful axiom
    for g, n in _forgetful_pairs(max_dim):
        for idx in iproduct(range(alg.dim), repeat=min(n, 2)):
            vs = [basis[i] for i in idx] + [alg.unit] * (n - len(idx))
            cap = min(spec.degree, 3 * g - 3 + n)
            lhs = recon(spec, g, n, vs)
            if mode == "fixed":
                # framed points carry no psi classes: pullback keeps kappas
                rhs = recon(spec, g, n + 1, vs + [alg.unit])
                lhs_cmp = KPPoly(n + 1, cap, {(kk, pp + (0,)): c for (kk, pp), c in lhs.terms.items()})
                rhs_cmp = rhs.truncate(cap)
            else:
                lhs_cmp = lhs.forgetful_pullback().truncate(cap)
                rhs_cmp = recon(spec, g, n + 1, vs + [alg.unit]).truncate(cap)
            d = first_diff(lhs_cmp, rhs_cmp)
            if d:
                failures.append({"axiom": "forgetful", "at": (g, n, idx), "diff": d})
                break
    return failures
