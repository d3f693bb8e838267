"""Independent brute-force implementations used to cross-check the engine.

These deliberately avoid the main code paths: graphs are generated by
unrestricted search with isomorphism rejection instead of degeneration
walks, multi-index kappa classes by summing over all permutations instead
of set partitions, and vertex insertion sums by the raw m-sum over
forgotten points (taut.forgotten_point_msum, read off the pi_mu-coordinates
of series.translation_vector, which inverts the series R, with no division
by a norm) instead of the closed-form exponential of the vertex log.
brute_force_graph_sum builds the whole class the same way, in plain
Fractions: every graph of the brute-force search, every projector
assignment and every decoration, with the edge kernel read from
series.edge_kernel in the ambient basis and moved to the projectors, and
with none of the walk, vertex tables or integer scaling of givental.
Closed forms check whole correlators: the Hodge theory's against the lambda_g formula, whose b_g
come from the series (t/2)/sin(t/2), not from the Bernoulli numbers that
build the theory's R.  The topological recursion relations check a
theory's correlators against each other: psi_1 on M-bar_{0,n} and on
M-bar_{1,n} is a sum of boundary divisors, so the gluing axioms of the
class turn into identities among its correlators at every dim.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

from .graphs import StableGraph
from .kappa import KappaPoly
from .linalg import Q0, Q1, identity, mat_inv, mat_mul, transpose, vec
from .series import edge_kernel, translation_vector
from .taut import DecoratedGraph, TautExpr, forgotten_point_msum


def _connected(nv, edges):
    if nv == 0:
        return False
    adj = [[] for _ in range(nv)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def brute_force_stable_graphs(g, n):
    """All stable graphs for (g, n) by exhaustive generation.

    Loops over vertex counts, genus assignments, edge multisets and leg
    placements, with stability used only as a pruning bound on the leg
    distribution; duplicates are removed through the canonical form.
    """
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable pair")
    out = set()
    max_v = 2 * g - 2 + n
    dim = 3 * g - 3 + n
    for nv in range(1, max_v + 1):
        slots = [(i, j) for i in range(nv) for j in range(i, nv)]
        for genera in product(range(g + 1), repeat=nv):
            total = sum(genera)
            if total > g:
                continue
            h1 = g - total
            ne = h1 + nv - 1
            if ne < 0 or ne > dim:
                continue
            for chosen in combinations_with_replacement(range(len(slots)), ne):
                edges = [slots[i] for i in chosen]
                if not _connected(nv, edges):
                    continue
                deg = [0] * nv
                for u, w in edges:
                    deg[u] += 1
                    deg[w] += 1
                need = [max(0, 3 - 2 * genera[v] - deg[v]) for v in range(nv)]
                if sum(need) > n:
                    continue
                for legs in _leg_assignments(n, nv, need):
                    out.add(StableGraph(genera, legs, edges))
    return sorted(out, key=StableGraph.sort_key)


def _leg_assignments(n, nv, need):
    """Assignments of n labeled legs meeting per-vertex minima, with pruning."""
    total_need = sum(need)

    def rec(i, counts, remaining_need):
        if n - i < remaining_need:
            return
        if i == n:
            yield ()
            return
        for v in range(nv):
            new_need = remaining_need - (1 if counts[v] < need[v] else 0)
            counts[v] += 1
            for rest in rec(i + 1, counts, new_need):
                yield (v,) + rest
            counts[v] -= 1

    yield from rec(0, [0] * nv, total_need)


def witten_top_closed_form(g):
    """<tau_{3g-2}>_g = 1/(24^g g!), for g >= 1."""
    return Fraction(1, 24**g * factorial(g))


def genus0_multinomial(exps):
    """<tau_{a_1} ... tau_{a_n}>_0 = (n-3)!/prod a_i!, when sum a_i = n-3."""
    out = Fraction(factorial(len(exps) - 3))
    for a in exps:
        out /= factorial(a)
    return out


def hodge_b(g):
    """b_g in sum_g b_g t^{2g} = (t/2) / sin(t/2), by inverting the exact
    series sin(t/2) / (t/2) = sum_k (-1)^k t^{2k} / (4^k (2k+1)!)."""
    sine = [Fraction((-1) ** k, 4**k * factorial(2 * k + 1)) for k in range(g + 1)]
    b = [Fraction(1)]
    for m in range(1, g + 1):
        b.append(-sum(sine[k] * b[m - k] for k in range(1, m + 1)))
    return b[g]


def lambda_g_closed_form(g, exps):
    """<tau_{a_1} ... tau_{a_n} lambda_g>_g = C(2g-3+n; a) b_g when
    sum a_i = 2g-3+n, else 0 (Faber-Pandharipande, math/9810173)."""
    if sum(exps) != 2 * g - 3 + len(exps):
        return Q0
    out = Fraction(factorial(sum(exps)))
    for a in exps:
        out /= factorial(a)
    return out * hodge_b(g)


def lambda_g_cases(max_dim):
    """(g, n, exps) for every stable (g, n) with n >= 1 and 3g-3+n <= max_dim
    and every descending exps of length n summing to 2g-3+n."""

    def descending(total, n, top):
        if n == 0:
            if total == 0:
                yield ()
            return
        for a in range(min(total, top), -1, -1):
            for rest in descending(total - a, n - 1, a):
                yield (a,) + rest

    out = []
    for g in range(max_dim // 3 + 2):
        for n in range(1, max_dim - 3 * g + 4):
            if 2 * g - 2 + n > 0:
                out.extend((g, n, exps) for exps in descending(2 * g - 3 + n, n, 2 * g - 3 + n))
    return out


def _call(corr, g, points):
    """corr at genus g on points, a list of (vector, psi power)."""
    return corr(g, [v for v, _ in points], [k for _, k in points])


def _separating(corr, eta_inv, first, others, far_genus, kept):
    """sum over the splits I+J of others with I non-empty, and over alpha,
    of <first X_I e_alpha>_0 <e^alpha kept X_J>_far_genus, where
    e^alpha = sum_beta eta^{alpha beta} e_beta."""
    total = Q0
    index = range(len(others))
    for size in range(1, len(others) + 1):
        for chosen in combinations(index, size):
            left = [others[i] for i in chosen]
            right = [others[i] for i in index if i not in chosen]
            for e, e_dual in zip(identity(len(eta_inv)), eta_inv):
                near = _call(corr, 0, [first] + left + [(e, 0)])
                if near:
                    total += near * _call(corr, far_genus, [(e_dual, 0)] + kept + right)
    return total


def trr_genus0(corr, eta_inv, points):
    """Both sides of the genus-0 topological recursion relation.

    points = [(v_1, a+1), (v_2, b), (v_3, c), X...] with a+1 >= 1, and
    corr(g, vectors, psi) the theory's correlator.  Returns (lhs, rhs) of

      <tau_{a+1}(v_1) tau_b(v_2) tau_c(v_3) X>_0
        = sum_{I+J, I non-empty} sum_alpha
          <tau_a(v_1) X_I e_alpha>_0 <e^alpha tau_b(v_2) tau_c(v_3) X_J>_0.
    """
    v1, k1 = points[0]
    return _call(corr, 0, points), _separating(corr, eta_inv, (v1, k1 - 1), points[3:], 0, points[1:3])


def trr_genus1(corr, eta_inv, points):
    """The genus-1 topological recursion relation, in three parts.

    points = [(v_1, a+1), X...] with a+1 >= 1, and corr(g, vectors, psi) the
    theory's correlator.  Returns (lhs, separating, non_separating); the
    relation is lhs = separating + non_separating / 24, with

      lhs            = <tau_{a+1}(v_1) X>_1
      separating     = sum_{I+J, I non-empty} sum_alpha
                       <tau_a(v_1) X_I e_alpha>_0 <e^alpha X_J>_1
      non_separating = sum_alpha <tau_a(v_1) X e_alpha e^alpha>_0.
    """
    v1, k1 = points[0]
    first = (v1, k1 - 1)
    non_separating = sum(
        (
            _call(corr, 0, [first] + points[1:] + [(e, 0), (e_dual, 0)])
            for e, e_dual in zip(identity(len(eta_inv)), eta_inv)
        ),
        Q0,
    )
    separating = _separating(corr, eta_inv, first, points[1:], 1, [])
    return _call(corr, 1, points), separating, non_separating


def trr_cases(dim, max_dim):
    """(g, psi, basis indices) of the TRR cases of `cohft oracle trr`: genus
    0 at n >= 4 and genus 1 at n >= 1, each of dimension d = 3g-3+n with
    1 <= d <= max_dim, each psi with psi_1 >= 1 of total at most d (below d
    the class's higher degrees, and so the edge kernel, take part), and, for
    each basis vector b_i, point p carrying b_((i+p) mod dim)."""
    for g in (0, 1):
        for n in range(4 - 3 * g, max_dim + 4 - 3 * g):
            d = 3 * g - 3 + n
            for psi in product(range(d + 1), repeat=n):
                if psi[0] >= 1 and sum(psi) <= d:
                    for i in range(dim):
                        yield g, psi, tuple((i + p) % dim for p in range(n))


def multikappa_by_permutations(ks, cap):
    """kappa multi-index class by summing cycle products over all of S_m."""
    ks = list(ks)
    m = len(ks)
    terms = {}
    for perm in permutations(range(m)):
        seen = [False] * m
        key = []
        for start in range(m):
            if seen[start]:
                continue
            cyc_sum = 0
            v = start
            while not seen[v]:
                seen[v] = True
                cyc_sum += ks[v]
                v = perm[v]
            key.append(cyc_sum)
        key = tuple(sorted(key))
        terms[key] = terms.get(key, Q0) + 1
    return KappaPoly(cap, terms)


def _vertex_msum(spec, mu, cap):
    """The vertex insertion sum at one projector by the raw m-sum.

    The m-sum needs the translation series through z^{cap+1} (an exponent-a
    factor contributes kappa degree a-1), which series.translation_vector
    gives from the inverted series R^{-1} unit; its pi_mu-coordinates are
    the m-sum's input.
    """
    t = translation_vector(spec.r, spec.algebra.unit)[: cap + 2]
    return forgotten_point_msum([spec.ss.to_semisimple(c)[mu] for c in t], cap)


def vertex_factor_diff(spec, mu):
    """Closed-form vertex exponential minus the m-sum, at one projector,
    through the spec degree."""
    return spec.vertex_exp(mu) - _vertex_msum(spec, mu, spec.degree)


def _truncated_products(factors, cap):
    """(degree, choices, coefficient) for one choice from each factor, a list
    of (degree, choice, coefficient), with the degrees adding to at most
    cap; degrees are non-negative, so a partial product past cap is
    dropped."""
    out = [(0, (), Q1)]
    for options in factors:
        out = [(d + e, chosen + (x,), c * y) for d, chosen, c in out for e, x, y in options if d + e <= cap]
    return out


def brute_force_graph_sum(spec, g, n, vectors):
    """The class of the theory on Mbar_{g,n} at the vectors, as a plain
    Fraction sum over the graphs of brute_force_stable_graphs.

    Each graph weighs 1/|Aut|; each projector assignment mu prod_v
    w_mu(v)^{1-h(v)}.  Every decoration is a choice of a kernel term per
    edge, a term of the vertex m-sum per vertex and a power of R^{-1}(psi)
    v per leg; the choices are multiplied out factor by factor, truncated
    only at the degree the class has room for, and a decorated graph is
    kept when every vertex's degree is at most its dimension.  The kernel
    is the ambient series.edge_kernel moved to the projector coordinates by
    the inverse of the projector rows P: P^{-t} K P^{-1}.
    """
    alg, ss = spec.algebra, spec.ss
    cap = max(min(spec.degree, 3 * g - 3 + n), 0)
    binv = mat_inv(ss.projectors)
    kernel = {ab: mat_mul(transpose(binv), mat_mul(m, binv)) for ab, m in edge_kernel(spec.r, alg.eta).items()}
    rinv = spec.r.invert()
    legs = [[ss.to_semisimple(c) for c in rinv.apply(vec(v))] for v in vectors]
    vertex = [_vertex_msum(spec, mu, cap) for mu in range(alg.dim)]
    terms = {}
    for graph in brute_force_stable_graphs(g, n):
        nv, ne = len(graph.genera), len(graph.edges)
        if ne > cap:
            continue
        dims = [3 * h - 3 + graph.valence(v) for v, h in enumerate(graph.genera)]
        weight = Fraction(1, graph.automorphism_order())
        for assign in product(range(alg.dim), repeat=nv):
            coeff = weight
            for mu, h in zip(assign, graph.genera):
                coeff *= ss.norms[mu] ** (1 - h)
            factors = [
                [(a + b, (a, b), m[assign[u]][assign[w]]) for (a, b), m in kernel.items()] for u, w in graph.edges
            ]
            factors += [[(sum(kk), kk, c) for kk, c in vertex[mu].terms.items()] for mu in assign]
            factors += [[(e, e, c[assign[v]]) for e, c in enumerate(leg)] for v, leg in zip(graph.legs, legs)]
            for _, choices, c in _truncated_products(factors, cap - ne):
                if c == 0:
                    continue
                edge_psi, kappa, leg_psi = choices[:ne], choices[ne : ne + nv], choices[ne + nv :]
                load = [sum(kk) for kk in kappa]
                for (u, w), (a, b) in zip(graph.edges, edge_psi):
                    load[u] += a
                    load[w] += b
                for v, e in zip(graph.legs, leg_psi):
                    load[v] += e
                if all(x <= d for x, d in zip(load, dims)):
                    key = DecoratedGraph(graph, kappa, leg_psi, edge_psi)
                    terms[key] = terms.get(key, Q0) + coeff * c
    return TautExpr(g, n, cap, terms)
