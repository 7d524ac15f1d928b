"""End-to-end acceptance checks with explicit budgets.

Each test prints one [acceptance] verdict line (run pytest -s to see
them all) and fails if either the claim or its time budget is missed.
Exhaustive searches run at dimension 1 (16 vertices); the larger
networks are covered by certificate verification, which is exact there
because the twin-territory lower bound meets the certificate size.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from graphmon import (
    bfs_distances,
    brute_force,
    canonical_power_dominating_set,
    closed_neighborhood,
    fractal_cubic_network,
    greedy_resolving_set,
    is_power_dominating_set,
    is_resolving_power_dominating,
    is_resolving_set,
    metric_dimension,
    metric_dimension_bounds,
    monitoring_closure,
    power_domination_bounds,
    twin_lower_bound,
    twin_partition,
    twin_resolving_lower_bound,
)
from graphmon.oracle import _naive_closure
from graphmon.report import SECTIONS, build_report, verify_report

from _helpers import (
    neighbors_of_set,
    path_graph,
    random_tree_plus_chords,
    residue_classes,
    run_distance_identity_suite,
    run_idempotence_suite,
    run_twin_contact_suite,
    run_monotonicity_suite,
    run_order_independence_suite,
    run_sandwich_suite,
    run_twin_bound_suite,
)


def verdict(claim: str, ok: bool, elapsed: float, budget: float) -> bool:
    ok = ok and elapsed <= budget
    print(f"[acceptance] {claim} ({elapsed:.2f}s of {budget:g}s): {'PASS' if ok else 'FAIL'}")
    return ok


def test_smallest_monitoring_seed_count_dim1():
    start = time.perf_counter()
    g = fractal_cubic_network(1)
    everything = set(range(g.n))
    stalled = all(
        _naive_closure(g, seeds) != everything
        for k in range(4)
        for seeds in combinations(range(g.n), k)
    )
    canonical = canonical_power_dominating_set(1)
    ok = (
        stalled
        and len(canonical) == 4
        and _naive_closure(g, canonical) == everything
        and set(monitoring_closure(g, canonical).final) == everything
        and brute_force(g, "gamma_p").optimum == 4
    )
    ok = verdict(
        "gamma_p of the 16-vertex network is 4, every smaller seed set stalls",
        ok,
        time.perf_counter() - start,
        5.0,
    )
    assert ok


def test_certified_monitoring_optimum_dim2():
    start = time.perf_counter()
    g = fractal_cubic_network(2)
    packing = twin_lower_bound(g)
    territories = [closed_neighborhood(g, cls) for cls in packing]
    disjoint = all(
        a.isdisjoint(b) for a, b in combinations(territories, 2)
    )
    canonical = canonical_power_dominating_set(2)
    ok = (
        packing == twin_partition(g).open_classes
        and len(territories) == 16
        and disjoint
        and len(canonical) == 16
        and is_power_dominating_set(g, canonical)
    )
    ok = verdict(
        "gamma_p of the 64-vertex network is certified 16 (disjoint territories + certificate)",
        ok,
        time.perf_counter() - start,
        1.0,
    )
    assert ok


def test_twin_census_small_dimensions():
    start = time.perf_counter()
    ok = True
    for d in (1, 2, 3):
        part = twin_partition(fractal_cubic_network(d))
        ok = ok and len(part.open_classes) == 4**d
        ok = ok and all(len(cls) == 2 for cls in part.open_classes)
        ok = ok and part.closed_classes == ()
    ok = verdict(
        "twin census: 4^d open pairs and no closed classes at d = 1, 2, 3",
        ok,
        time.perf_counter() - start,
        5.0,
    )
    assert ok


def test_smallest_resolving_set_dim1():
    start = time.perf_counter()
    g = fractal_cubic_network(1)
    triples = list(combinations(range(g.n), 3))
    none_resolve = all(not is_resolving_set(g, t)[0] for t in triples)
    value, basis = metric_dimension(g)
    ok = (
        len(triples) == 560
        and none_resolve
        and value == 4
        and is_resolving_set(g, basis)[0]
    )
    ok = verdict(
        "metric dimension of the 16-vertex network is 4, all 560 triples fail",
        ok,
        time.perf_counter() - start,
        10.0,
    )
    assert ok


def test_smallest_resolving_monitoring_set_dim1():
    start = time.perf_counter()
    g = fractal_cubic_network(1)
    lower = max(metric_dimension(g)[0], brute_force(g, "gamma_p").optimum)
    found = next(
        (
            subset
            for subset in combinations(range(g.n), 4)
            if is_resolving_power_dominating(g, subset)
        ),
        None,
    )
    ok = lower == 4 and found is not None
    ok = verdict(
        "eta_p of the 16-vertex network is 4 (lower bound met by an explicit 4-set)",
        ok,
        time.perf_counter() - start,
        60.0,
    )
    assert ok


def test_structural_claims_dims_1_and_2():
    start = time.perf_counter()
    ok = True
    for d in (1, 2):
        g = fractal_cubic_network(d)
        seeds, degree_two, covered = residue_classes(d)
        ok = ok and seeds == canonical_power_dominating_set(d)
        ok = ok and closed_neighborhood(g, seeds) == seeds | covered
        ok = ok and neighbors_of_set(g, degree_two) == covered
        independent = seeds | degree_two
        ok = ok and all(
            v not in g.neighbors(u) for u, v in combinations(sorted(independent), 2)
        )
        ok = ok and all(g.degree(v) == 2 for v in degree_two)
        for v in degree_two:
            dist = bfs_distances(g, v)
            ok = ok and all(dist[w] >= 3 for w in degree_two if w != v)
    ok = verdict(
        "structural claims at d = 1, 2: seed/degree-2/covered split behaves as constructed",
        ok,
        time.perf_counter() - start,
        5.0,
    )
    assert ok


def test_vertex_and_edge_census_through_dim5():
    start = time.perf_counter()
    expected_m = [4, 20, 84, 340, 1364, 5460]
    ok = True
    for d in range(6):
        g = fractal_cubic_network(d)
        ok = ok and g.n == 4 ** (d + 1)
        ok = ok and g.m == expected_m[d]
    ok = verdict(
        "vertex count 4^(d+1) and edge counts 4, 20, 84, 340, 1364, 5460 for d <= 5",
        ok,
        time.perf_counter() - start,
        10.0,
    )
    assert ok


def test_randomized_property_suites():
    start = time.perf_counter()
    failures = {
        "monotonicity": run_monotonicity_suite(seed=201, cases=500),
        "order-independence": run_order_independence_suite(seed=202, graphs=60, orders=10),
        "idempotence": run_idempotence_suite(seed=203, cases=500),
        "twin-territory predicate": run_twin_contact_suite(seed=204, cases=500),
        "twin bound vs optimum": run_twin_bound_suite(seed=205, cases=500),
        "monitor-count sandwich": run_sandwich_suite(seed=206, cases=500),
        "twin distance identity": run_distance_identity_suite(seed=207, cases=500),
    }
    bad = {name: hits for name, hits in failures.items() if hits}
    ok = verdict(
        "randomized property suites (7 suites, 500+ cases each) found no counterexample",
        not bad,
        time.perf_counter() - start,
        60.0,
    )
    assert ok, bad


def test_certified_optima_scale_to_larger_networks():
    start = time.perf_counter()
    ok = True
    for d in (3, 4):
        g = fractal_cubic_network(d)
        canonical = canonical_power_dominating_set(d)
        territories = [
            closed_neighborhood(g, cls) for cls in twin_partition(g).open_classes
        ]
        ok = ok and len(territories) == 4**d
        ok = ok and all(a.isdisjoint(b) for a, b in combinations(territories, 2))
        ok = ok and len(canonical) == 4**d
        ok = ok and twin_resolving_lower_bound(g) == 4**d
        ok = ok and is_resolving_power_dominating(g, canonical)
    ok = verdict(
        "certified gamma_p = eta_p = 4^d at d = 3, 4 (disjoint territories + one certificate)",
        ok,
        time.perf_counter() - start,
        30.0,
    )
    assert ok


def test_full_reports_certify_larger_networks():
    start = time.perf_counter()
    ok = True
    for d in (5, 6):
        g = fractal_cubic_network(d)
        report = build_report(g, hint=canonical_power_dominating_set(d))
        ok = ok and all(report[key]["lower"] == report[key]["upper"] == 4**d for key in SECTIONS)
        ok = ok and verify_report(g, report) == []
        # A basis one seed short leaves a twin pair unresolved; the
        # failing check must stay as cheap as the passing one.
        report["dim"]["basis"] = report["dim"]["basis"][1:]
        ok = ok and "dim: basis does not resolve the graph" in verify_report(g, report)
    ok = verdict(
        "full reports certify gamma_p = dim = eta_p = 4^d at d = 5, 6, verify with no"
        " problems, and a basis one seed short is rejected",
        ok,
        time.perf_counter() - start,
        20.0,
    )
    assert ok


def test_unhinted_full_report_on_fcn6():
    g = fractal_cubic_network(6)
    start = time.perf_counter()
    report = build_report(g)
    problems = verify_report(g, report)
    elapsed = time.perf_counter() - start
    ok = all(report[key]["lower"] == report[key]["upper"] == 4**6 for key in SECTIONS)
    canonical = sorted(g.labels[v] for v in canonical_power_dominating_set(6))
    ok = ok and all(report[key][field] == canonical for key, (field, _) in SECTIONS.items())
    ok = ok and problems == []
    ok = verdict(
        "unhinted full report on FCN(6) certifies 4096 = 4096 in every section, with the"
        " canonical set as every certificate, and verifies with no problems",
        ok,
        elapsed,
        2.0,
    )
    assert ok


def test_greedy_pds_on_a_sparse_graph():
    g = random_tree_plus_chords(random.Random(1), 400, 200)
    start = time.perf_counter()
    b = power_domination_bounds(g, exact_limit=0)
    elapsed = time.perf_counter() - start
    ok = b.upper_method == "greedy" and len(_naive_closure(g, b.certificate)) == g.n
    ok = verdict(
        "greedy PDS on a random tree + n/2 chords at n = 400, pruned by the gamma_p"
        " section, power-dominates",
        ok,
        elapsed,
        2.0,
    )
    assert ok


def test_pds_check_on_a_long_path():
    g = path_graph(4000)
    start = time.perf_counter()
    ok = is_power_dominating_set(g, [0]) and not is_power_dominating_set(g, [])
    ok = verdict(
        "PDS check on a 4,000-vertex path: one end seed monitors it, no seed does not",
        ok,
        time.perf_counter() - start,
        0.1,
    )
    assert ok


def test_unhinted_dim_bounds_on_fcn5():
    g = fractal_cubic_network(5)
    start = time.perf_counter()
    b = metric_dimension_bounds(g)
    elapsed = time.perf_counter() - start
    ok = b.lower == b.upper == 4**5 and b.certificate == canonical_power_dominating_set(5)
    ok = verdict(
        "unhinted dim bounds on FCN(5) read 1024 = 1024 with the canonical basis",
        ok,
        elapsed,
        1.0,
    )
    assert ok


def test_greedy_resolving_set_on_a_sparse_graph():
    g = random_tree_plus_chords(random.Random(1), 400, 200)
    start = time.perf_counter()
    b = metric_dimension_bounds(g, exact_limit=0)
    elapsed = time.perf_counter() - start
    landmarks = b.certificate
    ok = b.upper_method == "greedy" and is_resolving_set(g, landmarks)[0]
    ok = ok and len(landmarks) >= twin_resolving_lower_bound(g) and landmarks <= greedy_resolving_set(g)
    ok = verdict(
        "greedy resolving set on a random tree + n/2 chords at n = 400, pruned by the dim"
        " section, resolves",
        ok,
        elapsed,
        1.0,
    )
    assert ok
