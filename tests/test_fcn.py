from __future__ import annotations

from itertools import combinations

import pytest

from graphmon import (
    GraphError,
    LimitExceeded,
    canonical_partition,
    canonical_power_dominating_set,
    closed_neighborhood,
    diameter,
    fractal_cubic_network,
    is_connected,
    open_neighborhood_of_set,
)

from _helpers import all_pairs_distances

# n = 4^(d+1); m follows m(d) = 4*m(d-1) + 4 from m(0) = 4
EXPECTED_CENSUS = [(4, 4), (16, 20), (64, 84), (256, 340), (1024, 1364), (4096, 5460)]


def edge_labels(g):
    return {(g.labels[u], g.labels[v]) for u, v in g.edges()}


def test_census_through_dimension_five():
    for d, (n, m) in enumerate(EXPECTED_CENSUS):
        g = fractal_cubic_network(d)
        assert (g.n, g.m) == (n, m)
        assert g.n == 4 ** (d + 1)


def test_edge_recursion_holds():
    ms = [fractal_cubic_network(d).m for d in range(5)]
    for d in range(1, 5):
        assert ms[d] == 4 * ms[d - 1] + 4


def test_labels_are_sorted_fixed_width_bit_strings():
    for d in (0, 1, 2):
        g = fractal_cubic_network(d)
        width = 2 * d + 2
        assert g.labels == tuple(sorted(g.labels))
        assert all(len(lab) == width and set(lab) <= {"0", "1"} for lab in g.labels)


def test_dimension_zero_is_the_four_cycle():
    g = fractal_cubic_network(0)
    assert edge_labels(g) == {("00", "01"), ("01", "11"), ("10", "11"), ("00", "10")}


def test_dimension_one_cross_edges():
    g = fractal_cubic_network(1)
    cross = {(a, b) for a, b in edge_labels(g) if a[:2] != b[:2]}
    assert cross == {
        ("0011", "1011"),
        ("1011", "1111"),
        ("0111", "1111"),
        ("0011", "0111"),
    }


def test_dimension_one_base_squares():
    g = fractal_cubic_network(1)
    for q in ("00", "01", "10", "11"):
        square = {(q + a, q + b) for a, b in (("00", "01"), ("01", "11"), ("10", "11"), ("00", "10"))}
        assert square <= edge_labels(g)


def test_dimension_two_cross_cycles_per_level():
    g = fractal_cubic_network(2)
    edges = edge_labels(g)
    # level 2 joins the four d=1 copies through suffix "1100"
    top = {("001100", "101100"), ("101100", "111100"), ("011100", "111100"), ("001100", "011100")}
    assert top <= edges
    # level 1 joins the four squares inside each copy through suffix "11"
    for q in ("00", "01", "10", "11"):
        inner = {
            (q + "0011", q + "1011"),
            (q + "1011", q + "1111"),
            (q + "0111", q + "1111"),
            (q + "0011", q + "0111"),
        }
        assert inner <= edges
    # exactly 4 + 16 cross edges exist beyond the base squares
    cross = {(a, b) for a, b in edges if a[:4] != b[:4]}
    assert len(cross) == 20


def test_degree_profile_dimension_one(fcn1):
    histogram: dict[int, int] = {}
    for v in range(fcn1.n):
        histogram[fcn1.degree(v)] = histogram.get(fcn1.degree(v), 0) + 1
    assert histogram == {2: 12, 4: 4}


def test_connected_and_diameter(fcn1, fcn2):
    assert is_connected(fcn1) and is_connected(fcn2)
    assert diameter(fcn1) == 6


def test_canonical_partition_splits_vertices(fcn1):
    part = canonical_partition(1)
    assert part.seeds | part.forced | part.covered == frozenset(range(fcn1.n))
    assert len(part.seeds) == len(part.forced) == 4
    assert {fcn1.labels[v][-2:] for v in part.seeds} == {"01"}
    assert {fcn1.labels[v][-2:] for v in part.forced} == {"10"}
    assert {fcn1.labels[v][-2:] for v in part.covered} == {"00", "11"}


@pytest.mark.parametrize("d", [1, 2])
def test_structural_claims(d):
    g = fractal_cubic_network(d)
    seeds, forced, covered = canonical_partition(d)
    assert closed_neighborhood(g, seeds) == seeds | covered
    assert open_neighborhood_of_set(g, forced) == covered
    independent = seeds | forced
    assert not any(g.has_edge(u, v) for u in independent for v in independent if u < v)
    assert all(g.degree(v) == 2 for v in forced)
    dist = all_pairs_distances(g)
    assert all(dist.get(u, v) >= 3 for u, v in combinations(sorted(forced), 2))


def test_canonical_pds_ids(fcn1):
    assert canonical_power_dominating_set(0) == frozenset({0})
    a1 = canonical_power_dominating_set(1)
    assert a1 == frozenset({1, 5, 9, 13})
    assert {fcn1.labels[v] for v in a1} == {"0001", "0101", "1001", "1101"}


def test_dimension_bounds():
    with pytest.raises(GraphError):
        fractal_cubic_network(-1)
    with pytest.raises(LimitExceeded, match="8"):
        fractal_cubic_network(9)
    assert fractal_cubic_network(3, max_dimension=3).n == 256
    with pytest.raises(GraphError):
        canonical_partition(0)
