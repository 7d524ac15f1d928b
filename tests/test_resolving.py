from __future__ import annotations

import random

import pytest

from graphmon import (
    GraphError,
    LimitExceeded,
    build_graph,
    canonical_power_dominating_set,
    codes_to_csv,
    distance_codes,
    fractal_cubic_network,
    greedy_power_dominating_set,
    greedy_resolving_set,
    is_resolving_power_dominating,
    is_resolving_set,
    metric_dimension,
    metric_dimension_bounds,
    power_domination_bounds,
    resolving_power_domination_bounds,
    twin_lower_bound,
    twin_partition,
    twin_resolving_lower_bound,
)

from _helpers import (
    eta_p_exact_reference,
    greedy_resolving_set_reference,
    greedy_union_reference,
    random_connected_graph,
    resolving_set_reference,
    with_planted_twins,
)


def two_triangles():
    return build_graph(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")],
    )


def test_codes_on_c4(c4):
    assert distance_codes(c4, [c4.index("00"), c4.index("01")]) == [
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
    ]


def test_codes_follow_landmark_order(c4):
    forward = distance_codes(c4, [0, 1])
    swapped = distance_codes(c4, [1, 0])
    assert swapped == [(b, a) for a, b in forward]


def test_codes_reject_disconnected():
    with pytest.raises(GraphError, match="2 components"):
        distance_codes(two_triangles(), [0])


def test_codes_reject_bad_landmark(c4):
    with pytest.raises(GraphError):
        distance_codes(c4, [9])


def test_full_vertex_set_resolves(fcn1):
    ok, witness = is_resolving_set(fcn1, range(fcn1.n))
    assert ok and witness is None


def test_single_landmark_on_c4_fails_with_witness(c4):
    ok, witness = is_resolving_set(c4, [c4.index("00")])
    assert not ok
    assert witness == (c4.index("01"), c4.index("10"))


def test_two_landmarks_resolve_c4(c4):
    assert is_resolving_set(c4, [0, 1]) == (True, None)


def test_missing_twin_pair_is_unresolved(fcn1):
    # landmarks that skip the twin pair 0001/0010 entirely cannot split it
    landmarks = [fcn1.index(lbl) for lbl in ("0000", "0101", "1001", "1101")]
    ok, witness = is_resolving_set(fcn1, landmarks)
    assert not ok and witness is not None
    codes = distance_codes(fcn1, landmarks)
    assert codes[witness[0]] == codes[witness[1]]
    twins = (fcn1.index("0001"), fcn1.index("0010"))
    assert codes[twins[0]] == codes[twins[1]]


def test_empty_landmarks():
    single = build_graph(["v"], [])
    assert is_resolving_set(single, []) == (True, None)
    pair = build_graph(["v", "w"], [("v", "w")])
    ok, witness = is_resolving_set(pair, [])
    assert not ok and witness == (0, 1)


def test_is_resolving_set_matches_tuple_codes():
    rng = random.Random(71)
    for n in range(1, 15):
        for _ in range(12):
            g = random_connected_graph(rng, n, rng.uniform(0.1, 0.6))
            few = set(rng.sample(range(n), rng.randint(1, min(3, n))))
            many = set(rng.sample(range(n), rng.randint(1, n)))
            for marks in (set(), few, many):
                assert is_resolving_set(g, marks) == resolving_set_reference(g, marks)


def test_metric_dimension_c4(c4):
    assert metric_dimension(c4) == (2, (0, 1))


def test_metric_dimension_path(path4):
    value, basis = metric_dimension(path4)
    assert value == 1
    assert basis == (0,)


def test_metric_dimension_fcn1(fcn1):
    value, basis = metric_dimension(fcn1)
    assert value == 4
    assert is_resolving_set(fcn1, basis)[0]
    assert basis == (1, 5, 9, 13)


def test_metric_dimension_limit(fcn2):
    with pytest.raises(LimitExceeded, match="bounds"):
        metric_dimension(fcn2, limit=24)


def test_metric_dimension_rejects_disconnected():
    with pytest.raises(GraphError):
        metric_dimension(two_triangles())


def test_twin_resolving_lower_bound_examples(c4, fcn1, fcn2, path4):
    assert twin_resolving_lower_bound(c4) == 2
    assert twin_resolving_lower_bound(path4) == 0
    assert twin_resolving_lower_bound(fcn1) == 4
    assert twin_resolving_lower_bound(fcn2) == 16
    k4 = build_graph(["a", "b", "c", "d"], [
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"),
    ])
    assert twin_resolving_lower_bound(k4) == 3


def test_resolving_sets_hit_every_twin_pair(fcn1, fcn2):
    for g in (fcn1, fcn2):
        landmarks = greedy_resolving_set(g)
        assert is_resolving_set(g, landmarks)[0]
        for cls in twin_partition(g).open_classes:
            assert landmarks & cls, "a resolving set must touch each twin pair"


def test_greedy_resolving_on_random_graphs():
    rng = random.Random(53)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(1, 16), rng.uniform(0.15, 0.5))
        landmarks = greedy_resolving_set(g)
        assert is_resolving_set(g, landmarks)[0]
        assert len(landmarks) >= twin_resolving_lower_bound(g)
        assert greedy_resolving_set(g) == landmarks


def test_greedy_resolving_matches_naive_removal_pass():
    rng = random.Random(61)
    for _ in range(60):
        base = random_connected_graph(rng, rng.randint(2, 14), rng.uniform(0.1, 0.5))
        g = with_planted_twins(rng, base, rng.randint(0, 5))
        assert greedy_resolving_set(g) == greedy_resolving_set_reference(g)


def test_greedy_union_matches_naive_pruning():
    rng = random.Random(67)
    for case in range(80):
        base = random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5))
        g = with_planted_twins(rng, base, rng.randint(1, 5))
        # Half the cases seed the union with a monitoring set that holds the
        # largest member of every open twin class: the image of the greedy
        # one under the automorphism swapping each class's ends.
        hint = None
        if case % 2:
            swap = {}
            for cls in twin_partition(g).open_classes:
                swap[min(cls)], swap[max(cls)] = max(cls), min(cls)
            hint = {swap.get(v, v) for v in greedy_power_dominating_set(g)}
        power = power_domination_bounds(g, exact_limit=0, hint=hint)
        b = resolving_power_domination_bounds(g, exact_limit=0, hint=hint, power_bounds=power)
        if b.upper_method == "hint-certificate":
            continue
        assert b.upper_method == "greedy-union"
        assert b.certificate == greedy_union_reference(g, power.certificate)


def test_codes_csv(c4):
    assert codes_to_csv(c4, [0, 1]) == (
        "vertex,00,01\n00,0,1\n01,1,0\n10,1,2\n11,2,1\n"
    )


def test_rpds_examples(fcn1, c4):
    assert is_resolving_power_dominating(fcn1, canonical_power_dominating_set(1))
    assert not is_resolving_power_dominating(c4, [c4.index("00")])
    assert is_resolving_power_dominating(c4, [0, 1])
    assert is_resolving_power_dominating(c4, range(4))


def test_rpds_rejects_disconnected():
    with pytest.raises(GraphError):
        is_resolving_power_dominating(two_triangles(), [0, 3])


def test_eta_bounds_c4(c4):
    b = resolving_power_domination_bounds(c4)
    assert (b.lower, b.upper) == (2, 2)
    assert b.certificate == frozenset({0, 1})
    assert b.lower_method == b.upper_method == "exact-search"


def test_eta_bounds_fcn1(fcn1):
    b = resolving_power_domination_bounds(fcn1)
    assert (b.lower, b.upper) == (4, 4)
    assert is_resolving_power_dominating(fcn1, b.certificate)


def test_eta_bounds_fcn2_with_hint(fcn2):
    hint = canonical_power_dominating_set(2)
    b = resolving_power_domination_bounds(fcn2, hint=hint)
    assert (b.lower, b.upper) == (16, 16)
    assert b.certificate == hint
    assert b.lower_method == "sandwich-lower"
    assert b.upper_method == "hint-certificate"


def test_eta_bounds_fcn2_without_hint(fcn2):
    b = resolving_power_domination_bounds(fcn2)
    assert (b.lower, b.upper) == (16, 16)
    assert b.upper_method == "greedy-union"
    assert is_resolving_power_dominating(fcn2, b.certificate)
    assert len(b.certificate) == b.upper


def test_eta_p_exact_matches_naive_search():
    rng = random.Random(73)
    for _ in range(40):
        base = random_connected_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.5))
        g = with_planted_twins(rng, base, rng.randint(0, 4))
        b = resolving_power_domination_bounds(g)
        assert b.upper_method == "exact-search"
        start = max(1, twin_resolving_lower_bound(g), power_domination_bounds(g).lower)
        assert (b.lower, b.certificate, b.subsets_examined) == eta_p_exact_reference(g, start)


def test_eta_rejects_disconnected():
    with pytest.raises(GraphError):
        resolving_power_domination_bounds(two_triangles())


def test_metric_dimension_bounds_exact_and_greedy(c4, fcn2):
    exact = metric_dimension_bounds(c4)
    assert (exact.lower, exact.upper) == (2, 2)
    assert exact.lower_method == "exact-search"
    wide = metric_dimension_bounds(fcn2)
    assert wide.lower == 16
    assert wide.lower_method == "twin-lower"
    assert wide.upper_method == "greedy"
    assert is_resolving_set(fcn2, wide.certificate)[0]


def test_metric_dimension_bounds_hint(fcn2):
    hint = canonical_power_dominating_set(2)
    b = metric_dimension_bounds(fcn2, hint=hint)
    assert (b.lower, b.upper) == (16, 16)
    assert b.certificate == frozenset(hint)
    assert (b.lower_method, b.upper_method) == ("twin-lower", "hint-certificate")
    missing_twin = sorted(hint)[1:]
    fallback = metric_dimension_bounds(fcn2, hint=missing_twin)
    assert fallback.upper_method == "greedy"
    assert fallback == metric_dimension_bounds(fcn2)


def test_metric_dimension_bounds_fcn4_without_hint():
    b = metric_dimension_bounds(fractal_cubic_network(4))
    assert (b.lower, b.upper) == (256, 256)
    assert b.upper_method == "greedy"


def test_twin_lower_bound_consistency(fcn1):
    # the landmark bound and the monitoring bound coincide on this family
    assert twin_resolving_lower_bound(fcn1) == twin_lower_bound(fcn1).bound == 4
