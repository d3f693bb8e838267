"""Stable dual graphs of boundary strata.

A graph is a tuple of vertex genera, an assignment of the labeled legs
1..n to vertices, and a multiset of edges (loops allowed).  Graphs are kept
in a canonical form so that equality is isomorphism; automorphisms fix the
legs pointwise and may permute vertices, parallel edges and the two ends of
a loop.  One search over the vertex relabelings that permute only inside
buckets of equal (genus, legs, valence, loops) gives both: the canonical
form is the least relabeled graph, and the vertex automorphisms of a
canonical graph are the relabelings that give it back.  Each vertex
automorphism extends to the half edges in every way that matches parallel
edges and flips loop ends; |Aut| is the length of that list, and the same
list canonicalizes decorations.

Every layer reads which legs and edge ends sit at a vertex from one
incidence table, built by _incidence once per graph from its canonical legs
and edges: labels[v] holds the leg labels at v in label order, ends[v] the
(edge index, end) pairs at v in edge order.  The relabeling buckets, the
stability and connectivity checks, the vertex accessors, the decorated
graph sum and the integrals read it rather than scanning legs and edges.

Enumeration walks one-edge degenerations starting from the smooth graph:
every stable graph contracts edge by edge down to the smooth one, so the
walk is complete.  Each graph is kept as one canonical instance, which the
children of every parent share, so a graph found many times holds its
table once.  The same walk records the one-step degenerations, whose type
pairs, closed transitively, give the order of the special-type
stratification.

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

from collections import namedtuple
from itertools import chain, permutations, product

from .linalg import CohftError


class UnstablePair(CohftError):
    """(g, n) has no stable curves of the kind asked for: a negative genus,
    2g-2+n <= 0, or no marked point where one is needed."""


def require_stable(g, n):
    """Raise UnstablePair unless g >= 0 and 2g-2+n > 0."""
    if g < 0:
        raise UnstablePair("negative genus")
    if 2 * g - 2 + n <= 0:
        raise UnstablePair("2g-2+n must be positive, got (%d,%d)" % (g, n))


def _incidence(nv, legs, edges):
    """The incidence table of a graph: per vertex, the leg labels in label
    order, and the (edge index, end) pairs in edge order."""
    labels = [[] for _ in range(nv)]
    for label, v in enumerate(legs, start=1):
        labels[v].append(label)
    ends = [[] for _ in range(nv)]
    for i, (u, w) in enumerate(edges):
        ends[u].append((i, 0))
        ends[w].append((i, 1))
    return tuple(map(tuple, labels)), tuple(map(tuple, ends))


def _loops(edges, ends, v):
    # end 1 of an edge at v whose end 0 sits there too closes a loop
    return sum(1 for i, end in ends[v] if end and edges[i][0] == v)


def _relabelings(genera, edges, labels, ends):
    """Each vertex relabeling, as a list old index -> new index, that
    permutes only inside the buckets of the isomorphism invariant (genus,
    legs carried, edge ends, loop count), read off the incidence table, the
    buckets placed in sorted order.

    Every isomorphism between two graphs maps buckets to equal buckets, so
    the least relabeled graph is a canonical form; on a canonical graph the
    buckets already sit in sorted order, so the relabelings that give the
    graph back are its vertex automorphisms.
    """
    nv = len(genera)
    buckets = {}
    for v in range(nv):
        key = (genera[v], labels[v], len(ends[v]), _loops(edges, ends, v))
        buckets.setdefault(key, []).append(v)
    groups = [buckets[key] for key in sorted(buckets)]
    for arrangement in product(*[permutations(group) for group in groups]):
        perm = [0] * nv
        for new, v in enumerate(chain.from_iterable(arrangement)):
            perm[v] = new
        yield perm


def _relabel(perm, legs, edges):
    return (
        tuple(perm[v] for v in legs),
        tuple(sorted((perm[u], perm[w]) if perm[u] <= perm[w] else (perm[w], perm[u]) for u, w in edges)),
    )


def _canonical(genera, legs, edges):
    """Lexicographically least (legs, edges) over the relabelings; the
    buckets are sorted with genus first, so the genera come out sorted."""
    relabelings = _relabelings(genera, edges, *_incidence(len(genera), legs, edges))
    legs, edges = min(_relabel(perm, legs, edges) for perm in relabelings)
    return tuple(sorted(genera)), legs, edges


class StableGraph:
    """Canonical stable graph; construct with any labeling, stored canonically.

    labels and ends are the incidence table of the canonical labeling:
    labels[v] the leg labels at v, ends[v] the (edge index, end) pairs at v.
    """

    __slots__ = ("genera", "legs", "edges", "labels", "ends", "_hash", "_edge_images")

    def __init__(self, genera, legs, edges):
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
        genera, legs, edges = _canonical(genera, legs, edges)
        self.genera = genera
        self.legs = legs
        self.edges = edges
        self.labels, self.ends = _incidence(nv, legs, edges)
        self._hash = hash((genera, legs, edges))
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
        return self.labels[v]

    def loops_at(self, v):
        return _loops(self.edges, self.ends, v)

    def cross_edges_at(self, v):
        return len(self.ends[v]) - 2 * self.loops_at(v)

    def valence(self, v):
        return len(self.labels[v]) + len(self.ends[v])

    def is_connected(self):
        if not self.genera:
            return False
        edges = self.edges
        seen = {0}
        frontier = [0]
        while frontier:
            for i, end in self.ends[frontier.pop()]:
                w = edges[i][1 - end]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.genera)

    def first_betti(self):
        return len(self.edges) - len(self.genera) + 1

    def total_genus(self):
        return sum(self.genera) + self.first_betti()

    def half_edges(self, v):
        """Decoration slots at v: ('leg', label) and ('edge', index, end)."""
        return [("leg", label) for label in self.labels[v]] + [("edge", i, end) for i, end in self.ends[v]]

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
        own = (self.legs, self.edges)
        return [
            tuple(perm)
            for perm in _relabelings(self.genera, self.edges, self.labels, self.ends)
            if _relabel(perm, self.legs, self.edges) == own
        ]

    def automorphism_order(self):
        """|Aut|: graph maps fixing every leg, counted on half edges.

        For a fixed vertex symmetry the parallel edges between two vertices
        may be permuted, and each loop may also swap its two ends; this is
        where the 1/2 per non-separating node lives.
        """
        return len(self.edge_automorphism_images())

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
                sources.setdefault((pu, pw) if pu <= pw else (pw, pu), []).append(i)
            keys = sorted(sources)
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
    require_stable(g, n)
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
        leg_slots = [label - 1 for label in graph.labels[v]]
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
        seen = {root: root}  # canonical graph -> the one instance kept
        frontier = [root]
        children = {}
        while frontier:
            nxt = []
            for graph in frontier:
                kids = []
                for kid in one_step_degenerations(graph):
                    known = seen.setdefault(kid, kid)
                    if known is kid:
                        nxt.append(kid)
                    kids.append(known)
                children[graph] = tuple(sorted(kids, key=StableGraph.sort_key))
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


class SpecialType(namedtuple("SpecialType", "gamma_prime nu_prime k mu")):
    """(gamma', nu', k, mu) of the component carrying the last leg.

    gamma' is the arithmetic genus of the special component including its mu
    non-separating nodes, nu' its marked points, k the nodes joining it to
    the rest of the curve.  The stratum of this type has codimension mu + k.
    """

    __slots__ = ()

    @property
    def codimension(self):
        return self.k + self.mu


def special_type(graph, n):
    if n < 1 or graph.num_legs < n:
        raise ValueError("leg %d not present" % n)
    v = graph.legs[n - 1]
    mu = graph.loops_at(v)
    k = graph.cross_edges_at(v)
    nu = len(graph.legs_at(v))
    return SpecialType(graph.genera[v] + mu, nu, k, mu)


def special_order(g, n):
    """Degeneration order on special types.

    tau > tau' when some stratum of type tau' lies in the closure of one of
    type tau, i.e. some graph of type tau' is an iterated degeneration of a
    graph of type tau.  Returns (types, greater, hasse) with greater the
    full strict relation as a set of (tau, tau') pairs and hasse its
    transitive reduction.  The smooth type is the unique maximum.
    """
    if n < 1:
        raise UnstablePair("special types need a last marked point")
    graphs, children = enumerate_stable_graphs(g, n, with_children=True)
    kind = {gr: special_type(gr, n) for gr in graphs}
    types = sorted(set(kind.values()))
    # the type pairs of one-step degenerations; every iterated degeneration
    # is a chain of these, so their transitive closure is the order
    greater = {(kind[gr], kind[kid]) for gr in graphs for kid in children[gr] if kind[gr] != kind[kid]}
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
