from __future__ import annotations

import random

import pytest

import graphmon.oracle
from graphmon import (
    GraphError,
    Propagation,
    brute_force,
    build_graph,
    canonical_partition,
    canonical_power_dominating_set,
    fractal_cubic_network,
    greedy_power_dominating_set,
    is_connected,
    is_power_dominating_set,
    monitoring_closure,
    power_domination_bounds,
    trace_to_json,
    trace_to_text,
    twin_lower_bound,
)

from _helpers import assert_valid_trace, random_connected_graph, random_graph


def test_c4_single_seed_trace(c4):
    trace = monitoring_closure(c4, [c4.index("00")])
    assert [c4.labels[v] for v in trace.dominated] == ["00", "01", "10"]
    assert trace.propagated == (Propagation(c4.index("11"), c4.index("01"), 1),)
    assert trace.final == frozenset(range(4))
    assert_valid_trace(c4, [0], trace)


def test_c4_trace_text(c4):
    trace = monitoring_closure(c4, [0])
    assert trace_to_text(c4, trace) == "DOM 00\nDOM 01\nDOM 10\nPROP 11 FROM 01 STEP 1\n"


def test_c4_trace_json(c4):
    payload = trace_to_json(c4, monitoring_closure(c4, [0]))
    assert payload == {
        "events": [
            {"type": "dominated", "vertex": "00"},
            {"type": "dominated", "vertex": "01"},
            {"type": "dominated", "vertex": "10"},
            {"type": "propagated", "vertex": "11", "from": "01", "step": 1},
        ],
        "final": ["00", "01", "10", "11"],
    }


def test_empty_seeds_monitor_nothing(c4):
    trace = monitoring_closure(c4, [])
    assert trace.final == frozenset()
    assert trace.dominated == () and trace.propagated == ()


def test_invalid_seed_rejected(c4):
    with pytest.raises(GraphError):
        monitoring_closure(c4, [7])


def test_canonical_seeds_monitor_fcn1_in_one_round(fcn1):
    seeds = canonical_power_dominating_set(1)
    trace = monitoring_closure(fcn1, seeds)
    assert trace.final == frozenset(range(fcn1.n))
    assert max(p.step for p in trace.propagated) == 1
    part = canonical_partition(1)
    assert {p.vertex for p in trace.propagated} == part.forced
    assert set(trace.dominated) == part.seeds | part.covered
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
    result = twin_lower_bound(c4)
    assert result.bound == 1
    assert result.method == "exact"
    assert len(result.classes) == 1
    assert sorted(result.classes[0]) in ([0, 3], [1, 2])


@pytest.mark.parametrize("d,expected,method", [(1, 4, "exact"), (2, 16, "exact"), (3, 64, "greedy")])
def test_twin_lower_bound_fcn(d, expected, method):
    result = twin_lower_bound(fractal_cubic_network(d))
    assert result.bound == expected
    assert result.method == method
    assert len(result.classes) == expected


def test_twin_lower_bound_without_open_classes():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    result = twin_lower_bound(g)
    assert result.bound == 0 and result.classes == () and result.method == "exact"


def test_twin_lower_bound_star():
    g = build_graph(["hub", "x", "y", "z"], [("hub", "x"), ("hub", "y"), ("hub", "z")])
    assert twin_lower_bound(g).bound == 1


def test_greedy_never_beats_exact_selection():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.6))
        exact = twin_lower_bound(g, exact_class_limit=20)
        greedy = twin_lower_bound(g, exact_class_limit=0)
        assert greedy.method in ("greedy", "exact")
        assert greedy.bound <= exact.bound


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
        cert = greedy_power_dominating_set(g)
        assert is_power_dominating_set(g, cert)
        assert greedy_power_dominating_set(g) == cert


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
