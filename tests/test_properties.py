from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from graphmon import (
    brute_force,
    greedy_resolving_set,
    is_power_dominating_set,
    is_resolving_set,
    metric_dimension,
    metric_dimension_bounds,
    monitoring_closure,
    power_domination_bounds,
    resolving_power_domination_bounds,
)
from graphmon.resolving import CERTIFICATE_CHECKS

from _helpers import (
    greedy_resolving_set_reference,
    random_connected_graph,
    random_graph,
    random_seed_set,
    random_tree_plus_chords,
    run_distance_identity_suite,
    run_idempotence_suite,
    run_twin_contact_suite,
    run_monotonicity_suite,
    run_order_independence_suite,
    run_sandwich_suite,
    run_twin_bound_suite,
    with_planted_twins,
)


def test_monotonicity():
    assert run_monotonicity_suite(seed=101, cases=500) == []


def test_order_independence():
    assert run_order_independence_suite(seed=102, graphs=60, orders=10) == []


def test_idempotence():
    assert run_idempotence_suite(seed=103, cases=500) == []


def test_minimal_solutions_touch_every_twin_territory():
    assert run_twin_contact_suite(seed=104, cases=500) == []


def test_twin_bound_never_exceeds_optimum():
    assert run_twin_bound_suite(seed=105, cases=500) == []


def test_monitor_count_sandwich():
    assert run_sandwich_suite(seed=106, cases=500, big_cases=20) == []


def test_twin_distance_identity():
    assert run_distance_identity_suite(seed=107, cases=500) == []


def test_metric_dimension_agrees_with_oracle():
    rng = random.Random(108)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.7))
        value, basis = metric_dimension(g)
        oracle = brute_force(g, "dim")
        assert value == oracle.optimum
        assert frozenset(basis) == oracle.certificate


def test_metric_dimension_agrees_with_oracle_on_planted_twins():
    # The exact-small shape at its low end: a tree with as many chords as
    # vertices, then one to three twin copies, 10 to 18 vertices in all.
    rng = random.Random(112)
    for _ in range(40):
        copies = rng.randint(1, 3)
        base = rng.randint(10, 18) - copies
        g = with_planted_twins(rng, random_tree_plus_chords(rng, base, base), copies)
        value, basis = metric_dimension(g)
        oracle = brute_force(g, "dim")
        assert (value, frozenset(basis)) == (oracle.optimum, oracle.certificate)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 10),
    p=st.floats(0.0, 0.6),
    copies=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_greedy_certificates_are_one_minimal_above_their_lower_bound(n, p, copies, seed):
    # Monitoring and resolving are both kept by supersets, so a set that
    # prune left above its floor loses the property with any one member.
    rng = random.Random(seed)
    g = with_planted_twins(rng, random_connected_graph(rng, n, p), copies)
    power = power_domination_bounds(g, exact_limit=0)
    resolving = metric_dimension_bounds(g, exact_limit=0)
    eta = resolving_power_domination_bounds(g, power, resolving, exact_limit=0)
    for key, b in (("gamma_p", power), ("dim", resolving), ("eta_p", eta)):
        check = CERTIFICATE_CHECKS[key]
        assert check(g, b.certificate)
        assert len(b.certificate) == b.upper >= b.lower
        if b.upper > b.lower:
            assert not any(check(g, b.certificate - {v}) for v in b.certificate)
    assert resolving.certificate == greedy_resolving_set_reference(g)
    assert resolving.certificate <= greedy_resolving_set(g)


def test_pds_superset_property():
    rng = random.Random(109)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6))
        pds = power_domination_bounds(g, exact_limit=0).certificate
        assert is_power_dominating_set(g, pds)
        extra = set(pds) | random_seed_set(rng, g, high=3)
        assert is_power_dominating_set(g, extra)


def test_resolving_superset_property():
    rng = random.Random(110)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.6))
        k, basis = metric_dimension(g)
        assert is_resolving_set(g, basis)[0]
        extra = sorted(set(basis) | random_seed_set(rng, g, high=3))
        assert is_resolving_set(g, extra)[0]


def test_closure_final_contains_seeds():
    rng = random.Random(111)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6))
        seeds = random_seed_set(rng, g)
        trace = monitoring_closure(g, seeds)
        assert seeds <= set(trace.final)
