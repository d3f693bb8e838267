from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohft.graphs import (
    SpecialType,
    StableGraph,
    UnstablePair,
    contract_edge,
    enumerate_stable_graphs,
    one_step_degenerations,
    smooth_graph,
    special_order,
    special_type,
)
from cohft.oracles import brute_force_stable_graphs
from cohft.taut import DecoratedGraph


def test_counts_small():
    assert len(enumerate_stable_graphs(0, 3)) == 1
    assert len(enumerate_stable_graphs(1, 1)) == 2
    assert len(enumerate_stable_graphs(0, 4)) == 4
    assert len(enumerate_stable_graphs(0, 5)) == 26
    assert len(enumerate_stable_graphs(1, 2)) == 5
    # genus 0 counts continue the total-partition sequence
    assert len(enumerate_stable_graphs(0, 6)) == 236


def test_unstable_pair():
    with pytest.raises(UnstablePair):
        enumerate_stable_graphs(0, 2)
    with pytest.raises(UnstablePair):
        smooth_graph(1, 0)


def test_invariants_on_enumerated_graphs():
    for g, n in [(0, 5), (1, 2), (2, 1), (2, 0)]:
        for graph in enumerate_stable_graphs(g, n):
            assert graph.total_genus() == g
            assert graph.num_legs == n
            assert graph.is_connected()
            for v in range(graph.num_vertices):
                assert 2 * graph.genera[v] - 2 + graph.valence(v) > 0


# every stable (g, n) with 3g-3+n <= 4
SMALL_PAIRS = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1)]


def test_small_pairs_are_every_pair_up_to_dimension_4():
    pairs = [
        (g, n) for g in range(3) for n in range(8) if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 4
    ]
    assert sorted(pairs) == SMALL_PAIRS


@pytest.mark.parametrize("g,n", SMALL_PAIRS + [(2, 2), (3, 0), (2, 3)])
def test_oracle_agreement(g, n):
    assert enumerate_stable_graphs(g, n) == brute_force_stable_graphs(g, n)


@pytest.mark.parametrize("g,n", [(2, 3), (3, 1), (1, 4)])
def test_children_are_exactly_the_graphs_contracting_to_the_parent(g, n):
    # contract_edge shares no code with the split walk of one_step_degenerations
    graphs, children = enumerate_stable_graphs(g, n, with_children=True)
    parents = {graph: set() for graph in graphs}
    for child in graphs:
        for i in range(len(child.edges)):
            parents[contract_edge(child, i)].add(child)
    assert set(children) == set(graphs)
    for graph in graphs:
        kids = children[graph]
        assert list(kids) == sorted(set(kids), key=StableGraph.sort_key)
        assert set(kids) == parents[graph]


def test_automorphism_orders():
    assert smooth_graph(2, 3).automorphism_order() == 1
    loop = StableGraph((0,), (0,), ((0, 0),))
    assert loop.automorphism_order() == 2
    theta = StableGraph((0, 0), (), ((0, 1),) * 3)
    assert theta.automorphism_order() == 12
    dumbbell = StableGraph((0, 0), (), ((0, 0), (0, 1), (1, 1)))
    assert dumbbell.automorphism_order() == 8
    two_loops = StableGraph((0,), (), ((0, 0), (0, 0)))
    assert two_loops.automorphism_order() == 8
    for g, n in SMALL_PAIRS:
        for graph in enumerate_stable_graphs(g, n):
            assert graph.automorphism_order() == len(_brute_force_automorphisms(graph))


def _brute_force_automorphisms(graph):
    """Every (vertex perm, edge perm, flips) that keeps each genus, fixes
    each leg and maps edge i, its ends swapped when flips[i], onto edge
    perm[i]; tried exhaustively, reading only the graph's fields."""
    genera, legs, edges = graph.genera, graph.legs, graph.edges
    out = []
    for sigma in permutations(range(len(genera))):
        if any(genera[s] != h for s, h in zip(sigma, genera)) or any(sigma[v] != v for v in legs):
            continue
        for pi in permutations(range(len(edges))):
            for flips in product((False, True), repeat=len(edges)):
                if all(
                    edges[j] == ((sigma[w], sigma[u]) if flip else (sigma[u], sigma[w]))
                    for (u, w), j, flip in zip(edges, pi, flips)
                ):
                    out.append((sigma, pi, flips))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decorated_graph_is_invariant_under_automorphisms(data):
    g, n = data.draw(st.sampled_from(SMALL_PAIRS))
    graph = data.draw(st.sampled_from(enumerate_stable_graphs(g, n)))
    small = st.integers(0, 2)
    vertex_kappa = [data.draw(st.lists(st.integers(1, 3), max_size=2)) for _ in graph.genera]
    leg_psi = data.draw(st.lists(small, min_size=n, max_size=n))
    edge_psi = data.draw(st.lists(st.tuples(small, small), min_size=len(graph.edges), max_size=len(graph.edges)))
    key = DecoratedGraph(graph, vertex_kappa, leg_psi, edge_psi)
    for sigma, pi, flips in _brute_force_automorphisms(graph):
        kappa = [None] * graph.num_vertices
        for v, k in enumerate(vertex_kappa):
            kappa[sigma[v]] = k
        psi = [None] * len(edge_psi)
        for i, ((a, b), flip) in enumerate(zip(edge_psi, flips)):
            psi[pi[i]] = (b, a) if flip else (a, b)
        moved = DecoratedGraph(graph, kappa, leg_psi, psi)
        assert moved == key
        assert hash(moved) == hash(key)


def test_contract_loop_raises_genus():
    loop = StableGraph((0,), (0,), ((0, 0),))
    assert contract_edge(loop, 0) == smooth_graph(1, 1)


def test_contract_separating_edge():
    graph = StableGraph((0, 0), (0, 0, 1, 1), ((0, 1),))  # legs 1,2 | 3,4
    assert contract_edge(graph, 0) == smooth_graph(0, 4)


def test_iterated_contraction_reaches_smooth():
    for g, n in [(1, 2), (2, 1)]:
        for graph in enumerate_stable_graphs(g, n):
            current = graph
            steps = 0
            while current.edges:
                before = len(current.edges)
                current = contract_edge(current, 0)
                assert len(current.edges) == before - 1
                assert current.total_genus() == g
                assert current.num_legs == n
                steps += 1
            assert current == smooth_graph(g, n)
            assert steps == len(graph.edges)


def test_degenerations_inverse_to_contraction():
    for g, n in [(1, 2), (2, 1)]:
        for graph in enumerate_stable_graphs(g, n):
            for child in one_step_degenerations(graph):
                assert any(
                    contract_edge(child, i) == graph for i in range(len(child.edges))
                )


def test_special_type_examples():
    assert special_type(smooth_graph(1, 2), 2) == SpecialType(1, 2, 0, 0)
    sep = StableGraph((0, 1), (0, 0), ((0, 1),))
    assert special_type(sep, 2) == SpecialType(0, 2, 1, 0)
    irr = StableGraph((0,), (0, 0), ((0, 0),))
    assert special_type(irr, 2) == SpecialType(1, 2, 0, 1)


def test_special_type_isomorphism_invariant():
    a = StableGraph((0, 1), (0, 0), ((0, 1),))
    b = StableGraph((1, 0), (1, 1), ((1, 0),))
    assert a == b
    assert special_type(a, 2) == special_type(b, 2)


def test_special_type_counts():
    assert len(special_order(0, 3)[0]) == 1
    assert len(special_order(1, 1)[0]) == 2
    assert len(special_order(1, 2)[0]) == 4


def test_codimension_formula():
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)]:
        graphs = enumerate_stable_graphs(g, n)
        by_type = {}
        for graph in graphs:
            t = special_type(graph, n)
            v = graph.legs[n - 1]
            incident = graph.loops_at(v) + graph.cross_edges_at(v)
            by_type.setdefault(t, []).append(incident)
        for t, incidents in by_type.items():
            assert t.codimension == t.k + t.mu
            assert min(incidents) == t.codimension


def test_special_order_12():
    types, greater, hasse = special_order(1, 2)
    assert len(types) == 4
    smooth = SpecialType(1, 2, 0, 0)
    # unique maximum
    for t in types:
        if t != smooth:
            assert (smooth, t) in greater
    assert not any(b == smooth for _, b in greater)
    # a strict relation between two types of equal codimension
    equal_dim_pairs = [(a, b) for a, b in greater if a.codimension == b.codimension]
    assert (SpecialType(1, 2, 0, 1), SpecialType(0, 2, 1, 0)) in equal_dim_pairs
    # hasse diagram connects all four nodes
    touched = {t for pair in hasse for t in pair}
    assert touched == set(types)


def test_special_order_smooth_max_everywhere():
    for g, n in [(1, 1), (0, 4), (1, 3), (2, 1)]:
        types, greater, _ = special_order(g, n)
        smooth = special_type(smooth_graph(g, n), n)
        for t in types:
            if t != smooth:
                assert (smooth, t) in greater


@pytest.mark.parametrize("g,n", [(g, n) for g, n in SMALL_PAIRS if n >= 1])
def test_special_order_against_contraction_ancestry(g, n):
    # every graph's ancestors by iterated contract_edge, pairs of distinct
    # types from ancestor to descendant, closed transitively over types
    ancestors = {}

    def above(graph):
        if graph not in ancestors:
            out = set()
            for i in range(len(graph.edges)):
                parent = contract_edge(graph, i)
                out |= {parent} | above(parent)
            ancestors[graph] = out
        return ancestors[graph]

    graphs = enumerate_stable_graphs(g, n)
    types = sorted({special_type(d, n) for d in graphs})
    greater = {
        (special_type(a, n), special_type(d, n))
        for d in graphs
        for a in above(d)
        if special_type(a, n) != special_type(d, n)
    }
    for mid in types:
        greater |= {(a, d) for a, b in greater if b == mid for c, d in greater if c == mid and a != d}
    hasse = {(a, b) for a, b in greater if not any((a, c) in greater and (c, b) in greater for c in types)}
    assert special_order(g, n) == (types, greater, hasse)


def test_encoding_shape():
    graph = StableGraph((0, 1), (0, 0), ((0, 1),))
    assert graph.encode() == "V:[0,1] L:[(1,0),(2,0)] E:[(0,1)]"


def test_canonical_form_is_relabeling_invariant():
    import random

    rng = random.Random(0)
    from itertools import permutations as perms

    for g, n in [(1, 2), (2, 1), (2, 0)]:
        for graph in enumerate_stable_graphs(g, n):
            nv = graph.num_vertices
            for perm in list(perms(range(nv)))[:6]:
                genera = [0] * nv
                for v in range(nv):
                    genera[perm[v]] = graph.genera[v]
                legs = tuple(perm[v] for v in graph.legs)
                edges = tuple((perm[u], perm[w]) for u, w in graph.edges)
                assert StableGraph(genera, legs, edges) == graph


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError):
        StableGraph((1, 1), (0,), ())  # disconnected
    with pytest.raises(ValueError):
        StableGraph((0,), (0,), ())  # unstable vertex
    with pytest.raises(ValueError):
        StableGraph((1,), (3,), ())  # leg on a missing vertex


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_form_survives_relabelling_and_edge_reordering(data):
    # the orbit walk drops candidates that differ only in such labels, so
    # StableGraph must map all of them to one canonical form
    g, n = data.draw(st.sampled_from([(0, 6), (1, 4), (2, 2), (3, 0), (3, 1)]))
    graph = data.draw(st.sampled_from(enumerate_stable_graphs(g, n)))
    nv = graph.num_vertices
    perm = data.draw(st.permutations(range(nv)))
    edges = data.draw(st.permutations(graph.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    genera = [0] * nv
    for v in range(nv):
        genera[perm[v]] = graph.genera[v]
    legs = [perm[v] for v in graph.legs]
    edges = [(perm[w], perm[u]) if flip else (perm[u], perm[w]) for (u, w), flip in zip(edges, flips)]
    relabelled = StableGraph(genera, legs, edges)
    assert (relabelled.genera, relabelled.legs, relabelled.edges) == (
        graph.genera,
        graph.legs,
        graph.edges,
    )
    assert hash(relabelled) == hash(graph)
