"""Hypergraph covering/matching bounds and the graph translation."""

import itertools

import pytest

from conftest import random_coloring
from mpcover.errors import CapExceeded, InvalidParameter, Unsupported
from mpcover.graphs import BLUE, RED, EdgeColoring, bits_of, build_shape
from mpcover.ryser import (ColoredGraph, Hypergraph, color_components,
                           exact_stats, graph_to_hypergraph,
                           hypergraph_to_graph, hypergraph_to_json,
                           verify_equivalence_chain)


def graph_edges(g):
    """Recover (u, v, color) triples from the adjacency rows."""
    out = []
    for c in (RED, BLUE):
        for u in range(g.n):
            for v in bits_of(g.adj[c][u]):
                if u < v:
                    out.append((u, v, c))
    return out


def brute_tau(h):
    """Smallest vertex set meeting every edge."""
    for size in range(h.n + 1):
        for pick in itertools.combinations(range(h.n), size):
            s = set(pick)
            if all(s & e for e in h.edges):
                return size
    return h.n


def brute_nu(h):
    """Largest set of pairwise disjoint edges."""
    for size in range(len(h.edges), 0, -1):
        for pick in itertools.combinations(h.edges, size):
            if sum(len(e) for e in pick) == len(frozenset().union(*pick)):
                return size
    return 0


def brute_alpha(g):
    """Largest vertex set with no colored edge inside."""
    edges = graph_edges(g)
    for size in range(g.n, 0, -1):
        for pick in itertools.combinations(range(g.n), size):
            s = set(pick)
            if not any(u in s and v in s for u, v, _ in edges):
                return size
    return 0


def brute_tc(g):
    """Fewest monochromatic components covering every vertex."""
    comps = []
    for c in (RED, BLUE):
        comps.extend(color_components(g.n, g.adj[c]))
    full = (1 << g.n) - 1
    for size in range(1, len(comps) + 1):
        for pick in itertools.combinations(comps, size):
            union = 0
            for mask in pick:
                union |= mask
            if union == full:
                return size
    return len(comps)


def random_hypergraph(rng, r=2):
    sizes = [rng.randint(1, 3) for _ in range(r)]
    classes = []
    start = 0
    for s in sizes:
        classes.append(tuple(range(start, start + s)))
        start += s
    edges = []
    for _ in range(rng.randint(1, 6)):
        e = {rng.choice(cl) for cl in classes if rng.random() < 0.7}
        if e:
            edges.append(frozenset(e))
    if not edges:
        edges = [frozenset({0})]
    return Hypergraph(classes, edges)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_triangle_worked_example():
    # all-red K_{1,1,1}: the red triangle is one component, blue contributes
    # three singletons, so H has 1 + 3 vertices and three size-2 edges
    chi = EdgeColoring.all_same(build_shape([1, 1, 1]), RED)
    h = graph_to_hypergraph(chi)
    assert h.n == 4 and h.r == 2
    assert len(h.classes[0]) == 1 and len(h.classes[1]) == 3
    assert len(h.edges) == 3 and all(len(e) == 2 for e in h.edges)
    assert brute_tau(h) == 1 and brute_nu(h) == 1
    g = ColoredGraph.from_coloring(chi)
    assert brute_tc(g) == 1 and brute_alpha(g) == 1


def test_triangle_round_trips_to_a_triangle():
    chi = EdgeColoring.all_same(build_shape([1, 1, 1]), RED)
    h = graph_to_hypergraph(chi)
    g2 = hypergraph_to_graph(h)
    assert g2.n == 3
    # all three hyperedges share the red-component vertex pairwise
    assert sorted(graph_edges(g2)) == [(0, 1, RED), (0, 2, RED), (1, 2, RED)]


def test_single_edge_graph():
    chi = EdgeColoring.from_edges(build_shape([1, 1]), [(0, 1, BLUE)])
    h = graph_to_hypergraph(chi)
    # one blue component + two red singletons = 3 vertices, |E| = n(G) = 2
    assert h.n == 3 and len(h.edges) == 2


def test_edge_count_never_exceeds_graph_order(rng):
    for _ in range(30):
        sizes = sorted((rng.randint(1, 3) for _ in range(rng.randint(2, 4))),
                       reverse=True)
        chi = random_coloring(rng, sizes)
        h = graph_to_hypergraph(chi)
        assert len(h.edges) <= chi.n
        assert all(len(e) == 2 for e in h.edges)


def test_hypergraph_validation():
    with pytest.raises(InvalidParameter):  # 1 is missing
        Hypergraph(((0, 2),), ((0,),))
    with pytest.raises(InvalidParameter):  # empty edge
        Hypergraph(((0,), (1,)), (frozenset(),))
    with pytest.raises(InvalidParameter):  # two vertices from one class
        Hypergraph(((0, 1), (2,)), ({0, 1},))
    with pytest.raises(InvalidParameter):  # unknown vertex
        Hypergraph(((0,), (1,)), ({0, 5},))


def test_hypergraph_dedups_edges():
    h = Hypergraph(((0,), (1,)), ({1}, {0, 1}, {0, 1}))
    assert len(h.edges) == 2


def test_r3_translation_unsupported():
    h = Hypergraph(((0,), (1,), (2,)), ({0, 1, 2},))
    assert h.r == 3
    with pytest.raises(Unsupported):
        hypergraph_to_graph(h)


# ---------------------------------------------------------------------------
# exact statistics vs brute force
# ---------------------------------------------------------------------------

def test_exact_stats_match_brute_force_hypergraph(rng):
    for _ in range(40):
        h = random_hypergraph(rng, r=rng.choice((2, 3)))
        stats = exact_stats(h)
        assert stats.tau == brute_tau(h)
        assert stats.nu == brute_nu(h)


def test_exact_stats_witnesses_check_out(rng):
    for _ in range(15):
        h = random_hypergraph(rng)
        stats = exact_stats(h)
        s = set(stats.tau_witness)
        assert len(s) == stats.tau and all(s & e for e in h.edges)
        picked = [h.edges[i] for i in stats.nu_witness]
        assert len(picked) == stats.nu
        assert sum(len(e) for e in picked) == len(set().union(*picked) if picked
                                                  else set())


def test_exact_stats_match_brute_force_graph(rng):
    for _ in range(25):
        chi = random_coloring(rng, [2, 2, 1])
        g = ColoredGraph.from_coloring(chi)
        stats = exact_stats(g)
        assert stats.tc == brute_tc(g)
        assert stats.alpha == brute_alpha(g)


def test_caps_guard_the_exponential_oracles():
    classes = (tuple(range(9)), tuple(range(9, 18)))
    edges = tuple(frozenset({i, 9 + i}) for i in range(9))
    h = Hypergraph(classes, edges)
    with pytest.raises(CapExceeded):
        exact_stats(h, cap_vertices=10)
    assert exact_stats(h, cap_vertices=18).tau == 9


# ---------------------------------------------------------------------------
# the inequality chain
# ---------------------------------------------------------------------------

def test_chain_on_every_k111_coloring():
    shape = build_shape([1, 1, 1])
    for bits in range(1 << shape.m):
        g = ColoredGraph.from_coloring(EdgeColoring(shape, bits))
        report = verify_equivalence_chain(g)
        assert all(step["ok"] for step in report), (bits, report)


def test_chain_on_every_k22_coloring():
    shape = build_shape([2, 2])
    for bits in range(1 << shape.m):
        g = ColoredGraph.from_coloring(EdgeColoring(shape, bits))
        report = verify_equivalence_chain(g)
        assert all(step["ok"] for step in report), (bits, report)


def test_chain_names_both_directions(rng):
    g = ColoredGraph.from_coloring(random_coloring(rng, [2, 2]))
    names = [step["inequality"] for step in verify_equivalence_chain(g)]
    assert "tc(G) <= tau(H_from_G)" in names
    assert "nu(H_from_G) <= alpha(G)" in names
    h = random_hypergraph(rng)
    names = [step["inequality"] for step in verify_equivalence_chain(h)]
    assert "tau(H) <= tc(G_from_H)" in names
    assert "alpha(G_from_H) <= nu(H)" in names


def test_chain_from_the_hypergraph_side(rng):
    checked_konig = 0
    for _ in range(60):
        h = random_hypergraph(rng)
        report = verify_equivalence_chain(h)
        assert all(step["ok"] for step in report), report
        if any(s["inequality"].startswith("tau(H) == nu(H)") for s in report):
            checked_konig += 1
    assert checked_konig > 0


def test_konig_on_forced_bipartite_instances(rng):
    # all edges size 2 across two classes: tau == nu must hold
    for _ in range(30):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        classes = (tuple(range(na)), tuple(range(na, na + nb)))
        pairs = [(i, na + j) for i in range(na) for j in range(nb)]
        rng.shuffle(pairs)
        edges = tuple(frozenset(p) for p in pairs[:rng.randint(1, len(pairs))])
        stats = exact_stats(Hypergraph(classes, edges))
        assert stats.tau == stats.nu


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip(rng):
    h = Hypergraph([[2, 0], [1, 3]], [{3, 0}, {1, 2}, {0}, {0, 3}])
    assert hypergraph_to_json(h) == {"classes": [[0, 2], [1, 3]],
                                     "edges": [[0], [0, 3], [1, 2]]}
    for _ in range(10):
        h = random_hypergraph(rng)
        obj = hypergraph_to_json(h)
        h2 = Hypergraph(obj["classes"], obj["edges"])
        assert h2.classes == h.classes and h2.edges == h.edges
