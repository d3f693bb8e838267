"""Stable dual graphs of boundary strata.

A graph is a tuple of vertex genera, an assignment of the labeled legs
1..n to vertices, and a multiset of edges (loops allowed).  Graphs are kept
in a canonical form so that equality is isomorphism; automorphisms fix the
legs pointwise and may permute vertices, parallel edges and the two ends of
a loop.

Enumeration walks one-edge degenerations starting from the smooth graph:
every stable graph contracts edge by edge down to the smooth one, so the
walk is complete.  The same walk records the degeneration order used by the
special-type stratification.

A degeneration inserts a loop or splits a vertex in two.  Splits are walked
by orbits of the vertex's half edges under permutations of parallel edges
and swaps of loop ends: each leg on its own, the loops by how many move
with both ends and how many with one, the parallel edges to each neighbour
by how many move.  A split and its complement (the two halves exchanged)
give the same graph, so only one of the pair is built, and stability is
decided from the counts before any candidate is built.  Every candidate
still goes through StableGraph, whose canonical form removes the
duplicates that remain.
"""

from collections import Counter
from itertools import permutations, product
from math import factorial

from .linalg import CohftError


class UnstablePair(CohftError):
    """(g, n) has no stable curves of the kind asked for: a negative genus,
    2g-2+n <= 0, or no marked point where one is needed."""


def _vertex_profile(genera, legs, edges):
    nv = len(genera)
    legs_at = [[] for _ in range(nv)]
    for label, v in enumerate(legs, start=1):
        legs_at[v].append(label)
    deg = [0] * nv
    loops = [0] * nv
    for u, w in edges:
        if u == w:
            deg[u] += 2
            loops[u] += 1
        else:
            deg[u] += 1
            deg[w] += 1
    return [tuple(l) for l in legs_at], deg, loops


def _canonical(genera, legs, edges):
    """Lexicographically least encoding over admissible vertex relabelings.

    Vertices are first bucketed by the isomorphism invariant
    (genus, legs carried, valence, loop count); relabelings permute only
    inside buckets, arranged in bucket order.
    """
    nv = len(genera)
    legs_at, deg, loops = _vertex_profile(genera, legs, edges)
    inv = [(genera[v], legs_at[v], deg[v], loops[v]) for v in range(nv)]
    buckets = {}
    for v in range(nv):
        buckets.setdefault(inv[v], []).append(v)
    keys = sorted(buckets)
    best = None
    groups = [buckets[k] for k in keys]
    for arrangement in product(*[permutations(group) for group in groups]):
        perm = [0] * nv  # old index -> new index
        pos = 0
        for group in arrangement:
            for v in group:
                perm[v] = pos
                pos += 1
        new_legs = tuple(perm[v] for v in legs)
        new_edges = tuple(
            sorted((perm[u], perm[w]) if perm[u] <= perm[w] else (perm[w], perm[u]) for u, w in edges)
        )
        cand = (new_legs, new_edges)
        if best is None or cand < best:
            best = cand
    new_genera = tuple(k[0] for k in keys for _ in buckets[k])
    return new_genera, best[0], best[1]


class StableGraph:
    """Canonical stable graph; construct with any labeling, stored canonically."""

    __slots__ = ("genera", "legs", "edges", "_hash", "_aut_order", "_edge_images")

    def __init__(self, genera, legs, edges, _canonical_data=False):
        genera = tuple(int(x) for x in genera)
        legs = tuple(int(v) for v in legs)
        edges = tuple((int(u), int(w)) if u <= w else (int(w), int(u)) for u, w in edges)
        nv = len(genera)
        if any(g < 0 for g in genera):
            raise ValueError("negative genus")
        if any(not (0 <= v < nv) for v in legs):
            raise ValueError("leg attached to missing vertex")
        if any(not (0 <= u < nv and 0 <= w < nv) for u, w in edges):
            raise ValueError("edge attached to missing vertex")
        if not _canonical_data:
            genera, legs, edges = _canonical(genera, legs, tuple(sorted(edges)))
        self.genera = genera
        self.legs = legs
        self.edges = edges
        self._hash = hash((genera, legs, edges))
        self._aut_order = None
        self._edge_images = None
        self._validate()

    def _validate(self):
        if not self.is_connected():
            raise ValueError("graph is not connected")
        for v in range(len(self.genera)):
            if 2 * self.genera[v] - 2 + self.valence(v) <= 0:
                raise ValueError("unstable vertex %d" % v)

    def __eq__(self, other):
        return (
            isinstance(other, StableGraph)
            and self.genera == other.genera
            and self.legs == other.legs
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (len(self.edges), len(self.genera), self.genera, self.legs, self.edges)

    # -- structure ----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.genera)

    @property
    def num_legs(self):
        return len(self.legs)

    def legs_at(self, v):
        return tuple(label for label, vv in enumerate(self.legs, start=1) if vv == v)

    def loops_at(self, v):
        return sum(1 for u, w in self.edges if u == v and w == v)

    def cross_edges_at(self, v):
        return sum(1 for u, w in self.edges if (u == v) != (w == v))

    def valence(self, v):
        n = sum(1 for vv in self.legs if vv == v)
        for u, w in self.edges:
            n += (u == v) + (w == v)
        return n

    def is_connected(self):
        nv = len(self.genera)
        if nv == 0:
            return False
        seen = {0}
        frontier = [0]
        adj = [[] for _ in range(nv)]
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == nv

    def first_betti(self):
        return len(self.edges) - len(self.genera) + 1

    def total_genus(self):
        return sum(self.genera) + self.first_betti()

    def half_edges(self, v):
        """Decoration slots at v: ('leg', label) and ('edge', index, end)."""
        out = [("leg", label) for label in self.legs_at(v)]
        for i, (u, w) in enumerate(self.edges):
            if u == v:
                out.append(("edge", i, 0))
            if w == v:
                out.append(("edge", i, 1))
        return out

    def vertex_dim(self, v):
        return 3 * self.genera[v] - 3 + self.valence(v)

    def encode(self):
        legs = ",".join("(%d,%d)" % (label, v) for label, v in enumerate(self.legs, start=1))
        edges = ",".join("(%d,%d)" % e for e in self.edges)
        return "V:[%s] L:[%s] E:[%s]" % (",".join(str(g) for g in self.genera), legs, edges)

    def __repr__(self):
        return "StableGraph(%s)" % self.encode()

    # -- automorphisms -------------------------------------------------------

    def vertex_automorphisms(self):
        """Vertex permutations preserving genus, legs pointwise and edge counts."""
        nv = len(self.genera)
        legs_at, deg, loops = _vertex_profile(self.genera, self.legs, self.edges)
        inv = [(self.genera[v], legs_at[v], deg[v], loops[v]) for v in range(nv)]
        buckets = {}
        for v in range(nv):
            buckets.setdefault(inv[v], []).append(v)
        edge_count = Counter(self.edges)
        out = []
        groups = sorted(buckets.values())
        for arrangement in product(*[permutations(g) for g in groups]):
            perm = list(range(nv))
            for group, image in zip(groups, arrangement):
                for v, w in zip(group, image):
                    perm[v] = w
            mapped = Counter(
                (perm[u], perm[w]) if perm[u] <= perm[w] else (perm[w], perm[u])
                for u, w in self.edges
            )
            if mapped == edge_count:
                out.append(tuple(perm))
        return out

    def automorphism_order(self):
        """|Aut|: graph maps fixing every leg, counted on half edges.

        For a fixed vertex symmetry the parallel edges between two vertices
        may be permuted, and each loop may also swap its two ends; this is
        where the 1/2 per non-separating node lives.
        """
        if self._aut_order is not None:
            return self._aut_order
        total = 0
        for perm in self.vertex_automorphisms():
            ways = 1
            pair_mult = Counter(self.edges)
            for (u, w), m in pair_mult.items():
                if u == w:
                    ways *= factorial(m) * 2**m
                else:
                    ways *= factorial(m)
            total += ways
        self._aut_order = total
        return total

    def edge_automorphism_images(self):
        """All decoration-level automorphisms as (vertex_perm, edge_perm, flips).

        edge_perm[i] is the edge instance that edge i maps to; flips[i] says
        whether its two ends swap.  Cross-edge flips are forced by the vertex
        permutation, loop ends may always swap; parallel edges with the same
        image pair are matched in every possible way.
        """
        if self._edge_images is not None:
            return self._edge_images
        out = []
        edges = self.edges
        m = len(edges)
        by_pair = {}
        for i, pair in enumerate(edges):
            by_pair.setdefault(pair, []).append(i)
        for perm in self.vertex_automorphisms():
            # edges with the same image pair may be matched arbitrarily
            sources = {}
            for i, (u, w) in enumerate(edges):
                pu, pw = perm[u], perm[w]
                key = (pu, pw) if pu <= pw else (pw, pu)
                sources.setdefault(key, []).append(i)
            keys = sorted(sources)
            if any(len(sources[k]) != len(by_pair.get(k, ())) for k in keys):
                continue  # cannot happen for true automorphisms
            for matching in product(*[permutations(by_pair[k]) for k in keys]):
                edge_perm = [0] * m
                for key, targets in zip(keys, matching):
                    for src, dst in zip(sources[key], targets):
                        edge_perm[src] = dst
                flip_choices = []
                for i in range(m):
                    u, w = edges[i]
                    if u == w:
                        flip_choices.append((False, True))
                    else:
                        # end 0 of edge i sits at u and lands at perm[u]
                        flip_choices.append((perm[u] != edges[edge_perm[i]][0],))
                for flips in product(*flip_choices):
                    out.append((tuple(perm), tuple(edge_perm), tuple(flips)))
        self._edge_images = out
        return out


def smooth_graph(g, n):
    if g < 0:
        raise UnstablePair("negative genus")
    if 2 * g - 2 + n <= 0:
        raise UnstablePair("2g-2+n must be positive, got (%d,%d)" % (g, n))
    return StableGraph((g,), (0,) * n, ())


def one_step_degenerations(graph):
    """All stable graphs obtained by one loop insertion or one vertex split.

    A split of v into v and a new vertex, joined by a new edge, is chosen by
    orbits of the half edges at v rather than by subsets of them.  Each leg
    moves or stays on its own.  Of the loops at v, a move with both ends
    and b with one end (becoming edges between the two halves).  Of the
    parallel edges to each neighbour, c move.  Parallel edges and the two
    ends of a loop are interchangeable, so these counts name every subset
    that gives the same graph.  Exchanging the two halves maps the choice
    (g1, legs, a, b, c) to (g - g1, other legs, loops - a - b, b,
    multiplicity - c) and gives the same graph again, so only the smaller
    of the two is built.  Stability of both halves is read off the counts
    before any graph is built; each candidate is canonicalized and
    validated by StableGraph.
    """
    out = set()
    nv = graph.num_vertices
    for v in range(nv):
        gv = graph.genera[v]
        if gv >= 1:
            genera = list(graph.genera)
            genera[v] = gv - 1
            out.add(StableGraph(genera, graph.legs, graph.edges + ((v, v),)))
        # split v into v (kept) and a new vertex nv
        leg_slots = [i for i, x in enumerate(graph.legs) if x == v]
        loops = 0
        cross = {}  # neighbour -> number of parallel edges to it
        rest = []  # edges away from v
        for u, w in graph.edges:
            if u == v and w == v:
                loops += 1
            elif u == v or w == v:
                other = w if u == v else u
                cross[other] = cross.get(other, 0) + 1
            else:
                rest.append((u, w))
        neighbours = sorted(cross)
        mult = tuple(cross[w] for w in neighbours)
        half_edges = len(leg_slots) + 2 * loops + sum(mult)
        loop_choices = [(a, b) for a in range(loops + 1) for b in range(loops + 1 - a)]
        cross_choices = [
            (moved, sum(moved), tuple(m - c for m, c in zip(mult, moved)))
            for moved in product(*[range(m + 1) for m in mult])
        ]
        for leg_moves in product((0, 1), repeat=len(leg_slots)):
            leg_stays = tuple(1 - x for x in leg_moves)
            legs_moved = sum(leg_moves)
            for a, b in loop_choices:
                kept_loops = loops - a - b
                for moved, cross_moved, kept in cross_choices:
                    # half edges at the new vertex and at v, before the new edge
                    at_new = legs_moved + 2 * a + b + cross_moved
                    at_old = half_edges - at_new
                    for g1 in range(gv + 1):
                        g2 = gv - g1
                        if 2 * g1 - 1 + at_old <= 0 or 2 * g2 - 1 + at_new <= 0:
                            continue
                        if (g1, leg_moves, a, b, moved) > (g2, leg_stays, kept_loops, b, kept):
                            continue  # the complement choice builds this graph
                        genera = list(graph.genera) + [g2]
                        genera[v] = g1
                        legs = list(graph.legs)
                        for i, x in zip(leg_slots, leg_moves):
                            if x:
                                legs[i] = nv
                        edges = rest + [(nv, nv)] * a + [(v, nv)] * b + [(v, v)] * kept_loops
                        for w, c, k in zip(neighbours, moved, kept):
                            edges += [(w, nv)] * c + [(w, v)] * k
                        edges.append((v, nv))
                        out.add(StableGraph(genera, legs, edges))
    return out


_ENUM_CACHE = {}


def enumerate_stable_graphs(g, n, with_children=False):
    """All stable graphs for (g, n) up to isomorphism, sorted canonically.

    With with_children=True also returns the one-step degeneration relation
    as a dict graph -> sorted tuple of children.  Results are memoized:
    graphs are immutable and the walk is deterministic.
    """
    key = (g, n)
    if key not in _ENUM_CACHE:
        root = smooth_graph(g, n)
        seen = {root}
        frontier = [root]
        children = {}
        while frontier:
            nxt = []
            for graph in frontier:
                kids = one_step_degenerations(graph)
                children[graph] = tuple(sorted(kids, key=StableGraph.sort_key))
                for kid in kids:
                    if kid not in seen:
                        seen.add(kid)
                        nxt.append(kid)
            frontier = sorted(nxt, key=StableGraph.sort_key)
        _ENUM_CACHE[key] = (tuple(sorted(seen, key=StableGraph.sort_key)), children)
    result, children = _ENUM_CACHE[key]
    if with_children:
        return list(result), children
    return list(result)


def contract_edge(graph, edge_index):
    """Contract one edge: loops raise genus, cross edges merge vertices.

    The inverse of one degeneration step, sharing no code with the split
    walk of one_step_degenerations; tests check the walk against it.
    """
    u, w = graph.edges[edge_index]
    edges = [e for i, e in enumerate(graph.edges) if i != edge_index]
    genera = list(graph.genera)
    if u == w:
        genera[u] += 1
        return StableGraph(genera, graph.legs, edges)
    # merge w into u, drop w
    genera[u] += genera[w]
    del genera[w]

    def rename(v):
        if v == w:
            return u
        return v - 1 if v > w else v

    legs = tuple(rename(v) for v in graph.legs)
    edges = tuple((rename(a), rename(b)) for a, b in edges)
    return StableGraph(genera, legs, edges)


class SpecialType(tuple):
    """(gamma', nu', k, mu) of the component carrying the last leg.

    gamma' is the arithmetic genus of the special component including its mu
    non-separating nodes, nu' its marked points, k the nodes joining it to
    the rest of the curve.  The stratum of this type has codimension mu + k.
    """

    def __new__(cls, gamma_prime, nu_prime, k, mu):
        return super().__new__(cls, (gamma_prime, nu_prime, k, mu))

    @property
    def gamma_prime(self):
        return self[0]

    @property
    def nu_prime(self):
        return self[1]

    @property
    def k(self):
        return self[2]

    @property
    def mu(self):
        return self[3]

    @property
    def codimension(self):
        return self[2] + self[3]

    def __repr__(self):
        return "SpecialType(gamma'=%d, nu'=%d, k=%d, mu=%d)" % self


def special_type(graph, n):
    if n < 1 or graph.num_legs < n:
        raise ValueError("leg %d not present" % n)
    v = graph.legs[n - 1]
    mu = graph.loops_at(v)
    k = graph.cross_edges_at(v)
    nu = len(graph.legs_at(v))
    return SpecialType(graph.genera[v] + mu, nu, k, mu)


def _require_last_point(n):
    if n < 1:
        raise UnstablePair("special types need a last marked point")


def enumerate_special_types(g, n):
    _require_last_point(n)
    return sorted({special_type(graph, n) for graph in enumerate_stable_graphs(g, n)})


def special_order(g, n):
    """Degeneration order on special types.

    tau > tau' when some stratum of type tau' lies in the closure of one of
    type tau, i.e. some graph of type tau' is an iterated degeneration of a
    graph of type tau.  Returns (types, greater, hasse) with greater the
    full strict relation as a set of (tau, tau') pairs and hasse its
    transitive reduction.  The smooth type is the unique maximum.
    """
    _require_last_point(n)
    graphs, children = enumerate_stable_graphs(g, n, with_children=True)
    # graph-level reachability by >= 1 degenerations
    desc = {}

    def descendants(graph):
        if graph in desc:
            return desc[graph]
        out = set()
        for kid in children[graph]:
            out.add(kid)
            out |= descendants(kid)
        desc[graph] = out
        return out

    types = sorted({special_type(gr, n) for gr in graphs})
    greater = set()
    for gr in graphs:
        t = special_type(gr, n)
        for d in descendants(gr):
            t2 = special_type(d, n)
            if t2 != t:
                greater.add((t, t2))
    # transitive closure at type level
    changed = True
    while changed:
        changed = False
        for a, b in list(greater):
            for c, d in list(greater):
                if b == c and a != d and (a, d) not in greater:
                    greater.add((a, d))
                    changed = True
    for a, b in greater:
        if (b, a) in greater:
            raise RuntimeError("degeneration order is not antisymmetric")
    hasse = {
        (a, b)
        for a, b in greater
        if not any((a, c) in greater and (c, b) in greater for c in types)
    }
    return types, greater, hasse
