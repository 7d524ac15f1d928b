from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmon import (
    GraphError,
    are_closed_twins,
    are_open_twins,
    build_graph,
    fractal_cubic_network,
    twin_partition,
    twin_report,
)

from _helpers import all_pairs_distances, random_graph, with_planted_twins


def complete_graph(k):
    labels = [f"k{i}" for i in range(k)]
    return build_graph(
        labels, [(labels[i], labels[j]) for i in range(k) for j in range(i + 1, k)]
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fcn_open_twin_census(d):
    g = fractal_cubic_network(d)
    part = twin_partition(g)
    assert len(part.open_classes) == 4**d
    assert part.closed_classes == ()
    for cls in part.open_classes:
        assert len(cls) == 2
        a, b = sorted(g.labels[v] for v in cls)
        assert a[:-2] == b[:-2]
        assert {a[-2:], b[-2:]} == {"01", "10"}


def test_path_endpoints_are_open_twins():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    part = twin_partition(g)
    assert [sorted(cls) for cls in part.open_classes] == [[0, 2]]
    assert part.closed_classes == ()


def test_triangle_is_one_closed_class():
    part = twin_partition(complete_graph(3))
    assert part.open_classes == ()
    assert [sorted(cls) for cls in part.closed_classes] == [[0, 1, 2]]


def test_star_leaves_form_open_class():
    g = build_graph(["hub", "l1", "l2", "l3"], [("hub", "l1"), ("hub", "l2"), ("hub", "l3")])
    part = twin_partition(g)
    assert [sorted(cls) for cls in part.open_classes] == [[1, 2, 3]]


def test_c4_twin_classes(c4):
    part = twin_partition(c4)
    assert [sorted(cls) for cls in part.open_classes] == [[0, 3], [1, 2]]
    assert part.closed_classes == ()


def test_open_classes_are_independent_and_closed_are_cliques():
    rng = random.Random(13)
    for _ in range(40):
        g = with_planted_twins(rng, random_graph(rng, rng.randint(2, 9), rng.random()), 3)
        part = twin_partition(g)
        for cls in part.open_classes:
            members = sorted(cls)
            assert not any(
                g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1 :]
            )
        for cls in part.closed_classes:
            members = sorted(cls)
            assert all(
                g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1 :]
            )
        flat_open = [v for cls in part.open_classes for v in cls]
        flat_closed = [v for cls in part.closed_classes for v in cls]
        assert len(flat_open) == len(set(flat_open))
        assert len(flat_closed) == len(set(flat_closed))


def test_pairwise_predicates_match_partition():
    rng = random.Random(29)
    for _ in range(25):
        g = with_planted_twins(rng, random_graph(rng, rng.randint(2, 8), rng.random()), 2)
        part = twin_partition(g)
        open_pairs = {
            (u, v)
            for cls in part.open_classes
            for u in cls
            for v in cls
            if u < v
        }
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert are_open_twins(g, u, v) == ((u, v) in open_pairs)


def test_are_open_twins_examples(fcn1, c4):
    assert are_open_twins(fcn1, fcn1.index("0001"), fcn1.index("0010"))
    assert not are_open_twins(fcn1, fcn1.index("0001"), fcn1.index("0101"))
    assert not are_open_twins(c4, c4.index("00"), c4.index("01"))


def test_are_closed_twins_examples(c4):
    k3 = complete_graph(3)
    assert are_closed_twins(k3, 0, 2)
    assert not are_closed_twins(c4, 0, 3)


def test_same_vertex_is_rejected(c4):
    with pytest.raises(GraphError):
        are_open_twins(c4, 1, 1)
    with pytest.raises(GraphError):
        are_closed_twins(c4, 2, 2)


def test_twin_distance_identity_on_fcn(fcn1):
    dist = all_pairs_distances(fcn1)
    for cls in twin_partition(fcn1).open_classes:
        u, v = sorted(cls)
        for w in range(fcn1.n):
            if w not in (u, v):
                assert dist.get(w, u) == dist.get(w, v)


def test_twin_report_uses_labels(c4):
    report = twin_report(c4)
    assert report == {"open": [["00", "11"], ["01", "10"]], "closed": []}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 10),
    p=st.floats(0.0, 1.0),
    copies=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_twin_kinds_are_disjoint(n, p, copies, seed):
    rng = random.Random(seed)
    g = with_planted_twins(rng, random_graph(rng, n, p), copies)
    part = twin_partition(g)
    in_open = set().union(*part.open_classes)
    in_closed = set().union(*part.closed_classes)
    assert not in_open & in_closed
    assert sum(map(len, part.open_classes)) == len(in_open)
    assert sum(map(len, part.closed_classes)) == len(in_closed)
