from __future__ import annotations

import random

import pytest

from graphmon import (
    GraphError,
    bfs_distances,
    build_graph,
    closed_neighborhood,
    components,
    diameter,
    fractal_cubic_network,
    induced_subgraph,
    is_connected,
)
import graphmon.core
from graphmon.core import UNREACHABLE, prune

from _helpers import (
    all_pairs_diameter,
    all_pairs_distances,
    distance_sphere,
    neighbors_of_set,
    random_connected_graph,
    random_graph,
)


def bfs_by_levels(g, source):
    """Second BFS written with frontier sets instead of a queue."""
    dist = [UNREACHABLE] * g.n
    frontier = {source}
    d = 0
    while frontier:
        for v in frontier:
            dist[v] = d
        frontier = {u for v in frontier for u in g.neighbors(v) if dist[u] == UNREACHABLE}
        d += 1
    return dist


def test_build_graph_preserves_label_order():
    g = build_graph(["b", "a", "c"], [("a", "b"), ("b", "c")])
    assert g.labels == ("b", "a", "c")
    assert g.index("a") == 1
    assert g.n == 3 and g.m == 2


def test_build_graph_collapses_duplicate_edges():
    g = build_graph(["x", "y"], [("x", "y"), ("y", "x"), ("x", "y")])
    assert g.m == 1


def test_build_graph_rejects_duplicate_label():
    with pytest.raises(GraphError, match="dup"):
        build_graph(["dup", "dup"], [])


def test_build_graph_rejects_unknown_endpoint():
    with pytest.raises(GraphError, match="zz"):
        build_graph(["a", "b"], [("a", "zz")])


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphError, match="a"):
        build_graph(["a"], [("a", "a")])


def test_index_rejects_unknown_label(c4):
    with pytest.raises(GraphError):
        c4.index("banana")


def test_check_vertex_bounds(c4):
    with pytest.raises(GraphError):
        c4.check_vertex(4)
    with pytest.raises(GraphError):
        c4.check_vertex(-1)
    with pytest.raises(GraphError):
        c4.check_vertex_set([0, 9])


def test_edges_sorted_and_symmetric(c4):
    edges = list(c4.edges())
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)
    assert len(edges) == c4.m
    for u, v in edges:
        assert u in c4.neighbors(v) and v in c4.neighbors(u)


def test_adjacency_symmetry_random():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 30), rng.random())
        for v in range(g.n):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_bfs_matches_level_set_implementation():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 40), rng.uniform(0.02, 0.4))
        src = rng.randrange(g.n)
        assert bfs_distances(g, src) == bfs_by_levels(g, src)


def test_bfs_source_and_neighbors(c4):
    dist = bfs_distances(c4, 0)
    assert dist[0] == 0
    assert dist[c4.index("01")] == 1
    assert dist[c4.index("10")] == 1
    assert dist[c4.index("11")] == 2


def test_distance_matrix_properties():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 60), rng.uniform(0.05, 0.3))
        dm = all_pairs_distances(g)
        for u in range(g.n):
            assert dm.get(u, u) == 0
            for v in range(u + 1, g.n):
                assert dm.get(u, v) == dm.get(v, u)
        assert dm.is_connected() == is_connected(g)
        if dm.is_connected():
            assert dm.max_finite() == diameter(g)


def test_unreachable_distance():
    g = build_graph(["a", "b", "c"], [("a", "b")])
    assert bfs_distances(g, 0)[2] == UNREACHABLE
    assert diameter(g) is None


def test_open_neighborhood_radius(c4):
    assert distance_sphere(c4, 0, 1) == c4.neighbors(0)
    assert distance_sphere(c4, 0, 2) == frozenset({c4.index("11")})
    with pytest.raises(GraphError):
        distance_sphere(c4, 0, 0)


def test_open_neighborhood_matches_bfs_ring():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 25), rng.uniform(0.1, 0.4))
        v = rng.randrange(g.n)
        dist = bfs_distances(g, v)
        assert g.neighbors(v) == frozenset(u for u in range(g.n) if dist[u] == 1)


def test_set_neighborhood_identities(c4):
    s = {0, 3}
    assert closed_neighborhood(c4, s) == neighbors_of_set(c4, s) | frozenset(s)
    assert closed_neighborhood(c4, []) == frozenset()


def test_components_sorted_by_min_member():
    g = build_graph(["e", "d", "c", "b", "a"], [("e", "c"), ("d", "a")])
    comps = components(g)
    assert comps == [[0, 2], [1, 4], [3]]
    assert not is_connected(g)


def test_diameter_small_cases(c4, path4):
    assert diameter(c4) == 2
    assert diameter(path4) == 3
    assert diameter(build_graph(["only"], [])) == 0
    assert diameter(build_graph([], [])) == 0


def _labelled(n, edges):
    labels = [f"v{i}" for i in range(n)]
    return build_graph(labels, [(labels[a], labels[b]) for a, b in edges])


def test_diameter_matches_all_pairs():
    rng = random.Random(59)
    graphs = [_labelled(0, []), _labelled(1, []), _labelled(2, [])]
    for n in range(2, 12):
        graphs.append(_labelled(n, [(i, i + 1) for i in range(n - 1)]))
        graphs.append(_labelled(n, [(i, (i + 1) % n) for i in range(n)]))
        complete = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(_labelled(n, complete))
        graphs.append(_labelled(n, complete[:-1]))
    for _ in range(60):
        n = rng.randint(1, 40)
        graphs.append(_labelled(n, [(rng.randrange(i), i) for i in range(1, n)]))
        graphs.append(random_connected_graph(rng, n, rng.uniform(0.0, 0.3)))
        graphs.append(random_graph(rng, n, rng.uniform(0.02, 0.4)))
    assert any(diameter(g) is None for g in graphs)
    for g in graphs:
        assert diameter(g) == all_pairs_diameter(g)


@pytest.mark.parametrize("d", range(7))
def test_diameter_of_fcn_takes_few_searches(d, monkeypatch):
    g = fractal_cubic_network(d)
    calls = []

    def counting(graph, source):
        calls.append(source)
        return bfs_distances(graph, source)

    monkeypatch.setattr(graphmon.core, "bfs_distances", counting)
    assert diameter(g) == 2 ** (d + 2) - 2
    assert len(calls) <= 8


def test_induced_subgraph_keeps_internal_edges(path4):
    sub, old_ids = induced_subgraph(path4, [0, 1, 3])
    assert old_ids == [0, 1, 3]
    assert sub.labels == ("a", "b", "d")
    assert list(sub.edges()) == [(0, 1)]


def test_induced_subgraph_random_consistency():
    rng = random.Random(47)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 20), rng.uniform(0.1, 0.5))
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        sub, old_ids = induced_subgraph(g, keep)
        assert old_ids == keep
        for a in range(sub.n):
            for b in range(a + 1, sub.n):
                assert (b in sub.neighbors(a)) == (old_ids[b] in g.neighbors(old_ids[a]))


def test_graph_equality_and_hash(c4):
    twin = build_graph(
        ["00", "01", "10", "11"],
        [("00", "01"), ("01", "11"), ("11", "10"), ("10", "00")],
    )
    assert twin == c4
    assert hash(twin) == hash(c4)
    assert build_graph(["00"], []) != c4


def test_prune_drops_in_id_order_and_keeps_one_member():
    # In id order 1 goes, then 2 stays (3 alone fails), then 3 goes;
    # in reverse order 3 and then 2 would go instead.
    assert prune({3, 1, 2}, lambda rest: bool(rest & {1, 2}), floor=1) == frozenset({2})
    assert prune(range(4), lambda rest: True, floor=1) == frozenset({3})
    assert prune((), lambda rest: True, floor=1) == frozenset()


def test_prune_stops_at_the_floor_without_asking():
    asked = []

    def keeps(rest):
        asked.append(rest)
        return True

    # The lowest ids go until floor members are left, then nothing is asked.
    assert prune(range(6), keeps, floor=4) == frozenset({2, 3, 4, 5})
    assert asked == [frozenset(range(1, 6)), frozenset(range(2, 6))]
    asked.clear()
    assert prune({7, 8, 9}, keeps, floor=3) == frozenset({7, 8, 9})
    assert asked == []
    # A refused member stays and the pass goes on to the next one.
    assert prune(range(5), lambda rest: 0 in rest, floor=2) == frozenset({0, 4})
    # A floor above the set's size keeps it whole.
    assert prune({1, 2}, keeps, floor=5) == frozenset({1, 2})
