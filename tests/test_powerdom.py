from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmon.oracle
import graphmon.powerdom
from graphmon import (
    GraphError,
    Propagation,
    brute_force,
    build_graph,
    canonical_power_dominating_set,
    closed_neighborhood,
    fractal_cubic_network,
    greedy_power_dominating_set,
    is_connected,
    is_power_dominating_set,
    monitoring_closure,
    power_domination_bounds,
    trace_to_text,
    twin_lower_bound,
    twin_partition,
)

from graphmon.oracle import _naive_closure
from graphmon.powerdom import _force, _unforce

from _helpers import (
    assert_valid_trace,
    count_calls,
    greedy_power_dominating_set_reference,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    random_seed_set,
    random_tree_plus_chords,
    residue_classes,
    with_planted_twins,
)


def test_c4_single_seed_trace(c4):
    trace = monitoring_closure(c4, [c4.index("00")])
    assert [c4.labels[v] for v in trace.dominated] == ["00", "01", "10"]
    assert trace.propagated == (Propagation(c4.index("11"), c4.index("01"), 1),)
    assert trace.final == frozenset(range(4))
    assert_valid_trace(c4, [0], trace)


def test_c4_trace_text(c4):
    trace = monitoring_closure(c4, [0])
    assert trace_to_text(c4, trace) == "DOM 00\nDOM 01\nDOM 10\nPROP 11 FROM 01 STEP 1\n"


def test_empty_seeds_monitor_nothing(c4):
    trace = monitoring_closure(c4, [])
    assert trace.final == frozenset()
    assert trace.dominated == () and trace.propagated == ()


def test_invalid_seed_rejected(c4):
    with pytest.raises(GraphError):
        monitoring_closure(c4, [7])
    with pytest.raises(GraphError):
        is_power_dominating_set(c4, [0, -1])


def test_pds_check_agrees_with_the_oracle_engine():
    # Random graphs and seed sets, plus paths and 3 x k grids seeded at
    # one end, whose forcing chains run the length of the graph.
    rng = random.Random(53)
    cases = []
    for _ in range(400):
        make = random_connected_graph if rng.random() < 0.5 else random_graph
        g = make(rng, rng.randint(1, 16), rng.uniform(0.05, 0.5))
        cases.append((g, random_seed_set(rng, g, 0, max(1, g.n // 3))))
    for k in range(1, 61):
        path = path_graph(k)
        cases.append((path, [0]))
        cases.append((path, random_seed_set(rng, path, 0, 2)))
        grid = grid_graph(3, k)
        cases.append((grid, [0]))
        cases.append((grid, [rng.randrange(3) * k]))
    outcomes = set()
    for g, seeds in cases:
        expected = len(_naive_closure(g, seeds)) == g.n
        assert is_power_dominating_set(g, seeds) == expected, (g.labels, seeds)
        outcomes.add(expected)
    assert len(cases) >= 500 and outcomes == {True, False}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 14),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_forcing_from_a_partial_fixpoint_matches_from_scratch(n, p, seed, data):
    g = random_graph(random.Random(seed), n, p)
    big = data.draw(st.sets(st.integers(0, n - 1)))
    small = data.draw(st.sets(st.sampled_from(sorted(big)))) if big else set()
    adj = tuple(g.neighbors(v) for v in range(n))
    monitored = bytearray(n)
    unmon = [len(a) for a in adj]
    _force(adj, monitored, unmon, closed_neighborhood(g, small))
    assert {v for v in range(n) if monitored[v]} == monitoring_closure(g, small).final
    before = (bytes(monitored), list(unmon))
    added = _force(adj, monitored, unmon, closed_neighborhood(g, big))
    assert {v for v in range(n) if monitored[v]} == monitoring_closure(g, big).final
    assert unmon == [sum(1 for u in adj[v] if not monitored[u]) for v in range(n)]
    # Grow by N[v] as a tuple, as the greedy does; it may hold monitored
    # vertices. len(added) is the greedy's gain, so each newly monitored
    # vertex must be listed exactly once.
    extra = data.draw(st.integers(0, n - 1))
    old = monitoring_closure(g, big).final
    more = _force(adj, monitored, unmon, (extra, *adj[extra]))
    assert sorted(more) == sorted(monitoring_closure(g, big | {extra}).final - old)
    assert unmon == [sum(1 for u in adj[v] if not monitored[u]) for v in range(n)]
    _unforce(adj, monitored, unmon, more)
    assert {v for v in range(n) if monitored[v]} == old
    _unforce(adj, monitored, unmon, added)
    assert (bytes(monitored), unmon) == before


def test_canonical_seeds_monitor_fcn1_in_one_round(fcn1):
    seeds = canonical_power_dominating_set(1)
    trace = monitoring_closure(fcn1, seeds)
    assert trace.final == frozenset(range(fcn1.n))
    assert max(p.step for p in trace.propagated) == 1
    _, forced, covered = residue_classes(1)
    assert {p.vertex for p in trace.propagated} == forced
    assert set(trace.dominated) == seeds | covered
    assert_valid_trace(fcn1, seeds, trace)


def test_single_forced_vertex_is_not_a_pds(fcn1):
    for label in ("0010", "0110", "1010", "1110"):
        seeds = [fcn1.index(label)]
        assert not is_power_dominating_set(fcn1, seeds)
        assert len(monitoring_closure(fcn1, seeds).final) < fcn1.n


def test_every_superset_of_a_pds_is_a_pds(c4):
    assert is_power_dominating_set(c4, [0])
    assert is_power_dominating_set(c4, [0, 2])
    assert is_power_dominating_set(c4, range(4))


def test_traces_replay_on_random_graphs():
    rng = random.Random(37)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 14), rng.uniform(0.05, 0.6))
        seeds = set(rng.sample(range(g.n), rng.randint(0, g.n // 2)))
        assert_valid_trace(g, seeds, monitoring_closure(g, seeds))


def test_twin_lower_bound_c4(c4):
    packing = twin_lower_bound(c4)
    assert len(packing) == 1
    assert sorted(packing[0]) in ([0, 3], [1, 2])


@pytest.mark.parametrize("d,expected,method", [(1, 4, "exact"), (2, 16, "exact"), (3, 64, "greedy")])
def test_twin_lower_bound_fcn(monkeypatch, d, expected, method):
    # method names the search that runs. The greedy packing meets each
    # class's closed neighbourhood once with the vertices it occupies; the
    # branch and bound also meets every pair of them for its conflict graph.
    meets = []

    class Territory(frozenset):
        def __and__(self, other):
            meets.append(other)
            return super().__and__(other)

    original = graphmon.powerdom.closed_neighborhood
    monkeypatch.setattr(
        graphmon.powerdom, "closed_neighborhood", lambda g, vs: Territory(original(g, vs))
    )
    g = fractal_cubic_network(d)
    classes = twin_partition(g).open_classes
    assert twin_lower_bound(g) == classes
    assert len(classes) == expected
    assert (len(meets) > expected) == (method == "exact")


def test_twin_lower_bound_without_open_classes():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert twin_lower_bound(g) == ()


def test_twin_lower_bound_star():
    g = build_graph(["hub", "x", "y", "z"], [("hub", "x"), ("hub", "y"), ("hub", "z")])
    assert twin_lower_bound(g) == (frozenset({1, 2, 3}),)


def test_greedy_never_beats_exact_selection(monkeypatch):
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.6))
        monkeypatch.setattr(graphmon.powerdom, "EXACT_CLASS_LIMIT", 20)
        exact = twin_lower_bound(g)
        monkeypatch.setattr(graphmon.powerdom, "EXACT_CLASS_LIMIT", 0)
        greedy = twin_lower_bound(g)
        assert len(greedy) <= len(exact)


def test_twin_lower_bound_improves_on_the_greedy_packing(monkeypatch):
    # Of the open classes {0, 1}, {2, 3} and {6, 7}, the first meets both
    # others in its closed neighbourhood, and they are disjoint. So the
    # greedy packing in class order takes the first alone, and the branch
    # and bound replaces it by the other two.
    labels = [f"v{i}" for i in range(9)]
    edges = [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (5, 6), (5, 7), (2, 8), (3, 8)]
    g = build_graph(labels, [(labels[a], labels[b]) for a, b in edges])
    monkeypatch.setattr(graphmon.powerdom, "EXACT_CLASS_LIMIT", 0)
    assert twin_lower_bound(g) == (frozenset({0, 1}),)
    monkeypatch.setattr(graphmon.powerdom, "EXACT_CLASS_LIMIT", 20)
    assert twin_lower_bound(g) == (frozenset({2, 3}), frozenset({6, 7}))


def test_bounds_on_c4(c4):
    b = power_domination_bounds(c4)
    assert (b.lower, b.upper) == (1, 1)
    assert b.lower_method == b.upper_method == "exact-oracle"
    assert is_power_dominating_set(c4, b.certificate)


def test_bounds_exact_on_fcn1(fcn1):
    b = power_domination_bounds(fcn1)
    assert (b.lower, b.upper) == (4, 4)
    assert len(b.certificate) == 4
    assert is_power_dominating_set(fcn1, b.certificate)


def test_bounds_with_canonical_hint_on_fcn2(fcn2):
    hint = canonical_power_dominating_set(2)
    b = power_domination_bounds(fcn2, hint=hint)
    assert (b.lower, b.upper) == (16, 16)
    assert b.lower_method == "lemma2-lower"
    assert b.upper_method == "hint-certificate"
    assert b.certificate == hint


def test_bounds_without_hint_on_fcn2(fcn2):
    # greedy seeds one vertex per twin pair, which already monitors
    # everything here, so it meets the lower bound without help
    b = power_domination_bounds(fcn2)
    assert (b.lower, b.upper) == (16, 16)
    assert b.upper_method == "greedy"
    assert is_power_dominating_set(fcn2, b.certificate)
    assert len(b.certificate) == b.upper


def test_bounds_sum_over_components(c4):
    labels = ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"]
    cycle = [("0", "1"), ("1", "3"), ("3", "2"), ("2", "0")]
    edges = [(f"a{x}", f"a{y}") for x, y in cycle] + [(f"b{x}", f"b{y}") for x, y in cycle]
    g = build_graph(labels, edges)
    b = power_domination_bounds(g)
    assert (b.lower, b.upper) == (2, 2)
    assert b.lower_method == b.upper_method == "componentwise"
    assert is_power_dominating_set(g, b.certificate)


def test_isolated_vertex_needs_its_own_seed():
    g = build_graph(["a", "b", "lone"], [("a", "b")])
    b = power_domination_bounds(g)
    assert (b.lower, b.upper) == (2, 2)
    assert g.index("lone") in b.certificate


def test_empty_graph_bounds():
    b = power_domination_bounds(build_graph([], []))
    assert (b.lower, b.upper) == (0, 0)
    assert b.certificate == frozenset()


def test_greedy_pds_is_valid_and_deterministic():
    rng = random.Random(43)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 18), rng.uniform(0.1, 0.4))
        cert = power_domination_bounds(g, exact_limit=0).certificate
        assert is_power_dominating_set(g, cert)
        assert cert <= greedy_power_dominating_set(g)
        assert power_domination_bounds(g, exact_limit=0).certificate == cert


def test_greedy_pds_matches_the_plain_loop():
    # Sparse graphs from 10 to 40 vertices, so that the twin seeds rarely
    # monitor everything and the add loop runs for several steps. The
    # section prunes the greedy construction as the plain loop prunes its own.
    rng = random.Random(71)
    most_added = 0
    for case in range(36):
        g = random_connected_graph(rng, rng.randint(10, 40), rng.uniform(0.0, 0.08))
        if case % 2:
            g = with_planted_twins(rng, g, rng.randint(1, 4))
        cert = power_domination_bounds(g, exact_limit=0).certificate
        assert cert == greedy_power_dominating_set_reference(g)
        twin_seeds = {min(c) for c in twin_partition(g).open_classes}
        most_added = max(most_added, len(cert - twin_seeds))
    assert most_added >= 3


def test_greedy_pds_scores_only_candidates_that_can_gain(monkeypatch):
    # A candidate v with N[v] all monitored gains 0 and is not scored. The
    # count includes the section's removal pass, one _force per member tried.
    g = random_tree_plus_chords(random.Random(1), 160, 80)
    calls = count_calls(monkeypatch, graphmon.powerdom, "_force")
    cert = power_domination_bounds(g).certificate
    assert len(calls) == 854
    assert cert == greedy_power_dominating_set_reference(g)


def test_greedy_gamma_p_section_packs_the_twin_classes_once(monkeypatch):
    # The section's lower bound is also the floor of its removal pass.
    g = random_tree_plus_chords(random.Random(1), 160, 80)
    packings = count_calls(monkeypatch, graphmon.powerdom, "twin_lower_bound")
    b = power_domination_bounds(g)
    assert (b.upper_method, len(packings)) == ("greedy", 1)


def test_greedy_pds_builds_no_trace(monkeypatch):
    rng = random.Random(79)
    graphs = [
        random_connected_graph(rng, rng.randint(10, 40), rng.uniform(0.0, 0.08)) for _ in range(8)
    ]
    certs = [power_domination_bounds(g, exact_limit=0).certificate for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("the greedy gamma_p section built a trace")

    monkeypatch.setattr(graphmon.powerdom, "monitoring_closure", refuse)
    assert [power_domination_bounds(g, exact_limit=0).certificate for g in graphs] == certs


def test_edgeless_graph_needs_every_vertex():
    g = build_graph(["a", "b", "c"], [])
    assert greedy_power_dominating_set(g) == frozenset(range(3))
    assert power_domination_bounds(g).upper == 3


def test_exact_bounds_do_not_use_the_oracle(monkeypatch, c4, fcn1):
    # The oracle is the independent cross-check of the exact path, so the
    # exact path must solve these without it.
    def refuse(*args, **kwargs):
        raise AssertionError("power_domination_bounds called the oracle")

    monkeypatch.setattr(graphmon.oracle, "brute_force", refuse)
    split = build_graph(["a", "b", "lone"], [("a", "b")])
    for g, optimum in ((c4, 1), (fcn1, 4), (split, 2)):
        b = power_domination_bounds(g)
        assert (b.lower, b.upper) == (optimum, optimum)
        assert is_power_dominating_set(g, b.certificate)


def test_exact_bounds_agree_with_the_oracle():
    rng = random.Random(47)
    seen_split = seen_connected = 0
    for i in range(60):
        make = random_connected_graph if i % 2 else random_graph
        g = make(rng, rng.randint(1, 10), rng.uniform(0.1, 0.5))
        b = power_domination_bounds(g)
        ref = brute_force(g, "gamma_p")
        assert b.lower == b.upper == ref.optimum
        if is_connected(g):
            seen_connected += 1
            assert b.upper_method == "exact-oracle"
            assert (b.certificate, b.subsets_examined) == (ref.certificate, ref.subsets_examined)
        else:
            # Solved per component: the certificate is the union of each
            # component's first one, and no single search count applies.
            seen_split += 1
            assert b.upper_method == "componentwise"
            assert is_power_dominating_set(g, b.certificate)
    assert seen_split and seen_connected
