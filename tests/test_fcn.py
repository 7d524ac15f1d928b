from __future__ import annotations

import random
from itertools import combinations

import pytest

from graphmon import (
    GraphError,
    LimitExceeded,
    build_graph,
    canonical_power_dominating_set,
    closed_neighborhood,
    diameter,
    fractal_cubic_network,
    induced_subgraph,
    is_connected,
)

from _helpers import (
    all_pairs_distances,
    assert_sorted_tuple_layout,
    fcn_reference,
    neighbors_of_set,
    residue_classes,
    traced_mib,
)

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
    seeds, forced, covered = residue_classes(1)
    assert seeds | forced | covered == frozenset(range(fcn1.n))
    assert len(seeds) == len(forced) == 4
    assert seeds == canonical_power_dominating_set(1)
    assert {fcn1.labels[v][-2:] for v in seeds} == {"01"}
    assert {fcn1.labels[v][-2:] for v in forced} == {"10"}
    assert {fcn1.labels[v][-2:] for v in covered} == {"00", "11"}


@pytest.mark.parametrize("d", [1, 2])
def test_structural_claims(d):
    g = fractal_cubic_network(d)
    seeds, forced, covered = residue_classes(d)
    assert closed_neighborhood(g, seeds) == seeds | covered
    assert neighbors_of_set(g, forced) == covered
    independent = seeds | forced
    assert not any(v in g.neighbors(u) for u in independent for v in independent if u < v)
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
    assert len(canonical_power_dominating_set(8)) == 4**8
    with pytest.raises(LimitExceeded, match="8"):
        canonical_power_dominating_set(9)
    with pytest.raises(GraphError):
        canonical_power_dominating_set(-1)


def test_generating_fcn6_keeps_and_peaks_below_the_frozenset_layout():
    # One frozenset per neighbourhood kept 6.75 MiB and peaked at 6.93 MiB.
    # Sorted tuples of shared ids keep 2.69 MiB and peak at 3.23 MiB on
    # CPython 3.11; the peak is the appended lists, which a ratio to the
    # shrunken graph would read as a regression.
    kept, peak = traced_mib(lambda: fractal_cubic_network(6))
    assert kept <= 3.5
    assert peak <= 6.93


def test_generating_fcn7_keeps_and_peaks_below_the_appended_lists():
    # Appending to one list per vertex and sorting each into a tuple kept
    # 10.89 MiB and peaked at 13.09 MiB in the suite on CPython 3.11.
    # Strided slices keep 9.90 MiB, as opposite corners of an inner cycle
    # share one tuple, and peak at 10.93 MiB.
    kept, peak = traced_mib(lambda: fractal_cubic_network(7))
    assert kept <= 10.8
    assert peak <= 13.0


@pytest.mark.parametrize("d", range(9))
def test_generator_matches_the_cycle_by_cycle_reference(d):
    g, want = fractal_cubic_network(d), fcn_reference(d)
    assert g.labels == want.labels
    assert g._adj == want._adj
    assert g == want and hash(g) == hash(want)
    assert_sorted_tuple_layout(g)
    if g.n > 256:
        # ids above 256 are not cached by CPython, so only sharing one
        # list of ids keeps a single int object per vertex
        assert len({id(x) for t in g._adj for x in t}) == g.n


def test_generated_layout_matches_build_graph():
    rng = random.Random(48)
    for d in range(5):
        g = fractal_cubic_network(d)
        assert_sorted_tuple_layout(g)
        edges = [(g.labels[u], g.labels[v]) for u, v in g.edges()]
        rng.shuffle(edges)
        built = build_graph(g.labels, edges)
        assert built == g and hash(built) == hash(g)
        assert_sorted_tuple_layout(induced_subgraph(g, rng.sample(range(g.n), g.n // 2))[0])
