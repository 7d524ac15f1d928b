from __future__ import annotations

import random
from collections import Counter
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmon.core
import graphmon.resolving
from graphmon import (
    Bounds,
    GraphError,
    LimitExceeded,
    bfs_distances,
    build_graph,
    canonical_power_dominating_set,
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
    all_pairs_distances,
    count_calls,
    eta_p_exact_reference,
    greedy_resolving_set_reference,
    greedy_union_reference,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree_plus_chords,
    resolving_set_reference,
    with_planted_twins,
)


def two_triangles():
    return build_graph(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")],
    )


TINY = {
    "empty": build_graph([], []),
    "K1": build_graph(["v"], []),
    "K2": build_graph(["v", "w"], [("v", "w")]),
    "two isolated vertices": build_graph(["v", "w"], []),
}
NOTHING = Bounds(0, 0, frozenset(), "exact-search", "exact-search")
# name -> (no landmarks, all landmarks, greedy resolving, greedy monitoring,
#          twin packing, dim bounds, eta_p bounds); GraphError where raised
TINY_ANSWERS = {
    "empty": (
        (True, None), (True, None), frozenset(), frozenset(),
        (), NOTHING,
        Bounds(0, 0, frozenset(), "exact-search", "exact-search", 1),
    ),
    "K1": (
        (True, None), (True, None), frozenset(), frozenset({0}),
        (), NOTHING,
        Bounds(1, 1, frozenset({0}), "exact-search", "exact-search", 1),
    ),
    "K2": (
        (False, (0, 1)), (True, None), frozenset({0}), frozenset({0}),
        (),
        Bounds(1, 1, frozenset({0}), "exact-search", "exact-search"),
        Bounds(1, 1, frozenset({0}), "exact-search", "exact-search", 1),
    ),
    "two isolated vertices": (
        GraphError, GraphError, GraphError, frozenset({0, 1}),
        (frozenset({0, 1}),), GraphError, GraphError,
    ),
}


def _answer(call):
    try:
        return call()
    except GraphError:
        return GraphError


@pytest.mark.parametrize("name", TINY)
def test_tiny_graph_answers(name):
    g = TINY[name]
    calls = (
        lambda: is_resolving_set(g, []),
        lambda: is_resolving_set(g, range(g.n)),
        lambda: greedy_resolving_set(g),
        lambda: greedy_power_dominating_set(g),
        lambda: twin_lower_bound(g),
        lambda: metric_dimension_bounds(g),
        lambda: resolving_power_domination_bounds(
            g, power_domination_bounds(g), metric_dimension_bounds(g)
        ),
    )
    assert tuple(_answer(call) for call in calls) == TINY_ANSWERS[name]


def test_codes_reject_disconnected():
    with pytest.raises(GraphError, match="distance coding requires a connected graph, found 2"):
        is_resolving_set(two_triangles(), [0])


def test_codes_reject_bad_landmark(c4):
    with pytest.raises(GraphError, match="vertex id 9 out of range"):
        is_resolving_set(c4, [9])


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
    dist = all_pairs_distances(fcn1)
    code = lambda v: [dist.get(l, v) for l in landmarks]
    assert code(witness[0]) == code(witness[1])
    twins = (fcn1.index("0001"), fcn1.index("0010"))
    assert code(twins[0]) == code(twins[1])


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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 11),
    p=st.floats(0.0, 0.7),
    copies=st.integers(0, 3),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_tuple_reference(n, p, copies, share, seed):
    # Up to 14 vertices; with_planted_twins adds open or closed twins.
    rng = random.Random(seed)
    g = with_planted_twins(rng, random_connected_graph(rng, n, p), copies)
    marks = {v for v in range(g.n) if rng.random() < share}
    assert is_resolving_set(g, marks) == resolving_set_reference(g, marks)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 12),
    p=st.floats(0.0, 0.7),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_kernel_matches_tuple_reference(n, p, share, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, p)
    row = [bfs_distances(g, v) for v in range(n)].__getitem__
    marks = tuple(v for v in range(n) if rng.random() < share)
    for landmarks in ((), marks, frozenset(marks)):
        want = resolving_set_reference(g, landmarks)[0]
        assert graphmon.resolving._resolves(row, landmarks, n) == want


@pytest.mark.parametrize("name", ["empty", "K1", "K2"])
@pytest.mark.parametrize("kind", [tuple, frozenset])
def test_row_kernel_resolves_at_most_one_vertex_with_no_landmarks(name, kind):
    g = TINY[name]
    row = [bfs_distances(g, v) for v in range(g.n)].__getitem__
    want = resolving_set_reference(g, ())[0]
    assert graphmon.resolving._resolves(row, kind(), g.n) == want == (g.n <= 1)
    assert graphmon.resolving._resolves(row, kind(range(g.n)), g.n)


def cycle(n):
    labels = [f"c{i:02d}" for i in range(n)]
    return build_graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
def test_kernel_matches_tuple_reference_on_even_cycles(n):
    # One landmark leaves mirror pairs colliding until the antipode,
    # the last level, is reached; two adjacent ones resolve.
    g = cycle(n)
    for marks in [{v} for v in range(n)] + [{0, v} for v in range(1, n)]:
        assert is_resolving_set(g, marks) == resolving_set_reference(g, marks)
    assert is_resolving_set(g, {0}) == (False, (1, n - 1))
    assert is_resolving_set(g, {0, 1}) == (True, None)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_canonical_set_one_seed_short_leaves_its_twin_pair(d):
    # Vertex 1 ("0..01") is a seed; dropped, it and its open twin 2
    # ("0..10") share every distance, and theirs is the smallest code.
    g = fractal_cubic_network(d)
    canonical = canonical_power_dominating_set(d)
    assert is_resolving_set(g, canonical) == (True, None)
    assert is_resolving_set(g, canonical - {1}) == (False, (1, 2))


def test_residue_collisions_leave_the_answer_exact(monkeypatch):
    # Modulo 2 nearly every arrival mask collides with another, so the
    # classes stay coarse and the whole codes at the end decide.
    monkeypatch.setattr(graphmon.resolving, "_SPREAD", 2)
    rng = random.Random(79)
    for _ in range(150):
        base = random_connected_graph(rng, rng.randint(2, 11), rng.uniform(0.1, 0.6))
        g = with_planted_twins(rng, base, rng.randint(0, 3))
        marks = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        assert is_resolving_set(g, marks) == resolving_set_reference(g, marks)


def test_mask_memory_cap(monkeypatch, fcn2):
    # 64 vertices, 16 landmarks, three mask arrays: 64 * 16 * 3 bits = 384 bytes.
    canonical = canonical_power_dominating_set(2)
    monkeypatch.setattr(graphmon.resolving, "MASK_MEMORY_LIMIT", 384)
    assert is_resolving_set(fcn2, canonical) == (True, None)
    monkeypatch.setattr(graphmon.resolving, "MASK_MEMORY_LIMIT", 383)
    with pytest.raises(LimitExceeded, match="16 landmarks on 64 vertices"):
        is_resolving_set(fcn2, canonical)


def test_mask_memory_cap_comes_before_the_connectivity_check(monkeypatch):
    monkeypatch.setattr(graphmon.resolving, "MASK_MEMORY_LIMIT", 1)
    with pytest.raises(LimitExceeded, match="1 landmarks on 6 vertices"):
        is_resolving_set(two_triangles(), [0])


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
        landmarks = metric_dimension_bounds(g, exact_limit=0).certificate
        assert is_resolving_set(g, landmarks)[0]
        for cls in twin_partition(g).open_classes:
            assert landmarks & cls, "a resolving set must touch each twin pair"


def test_greedy_resolving_on_random_graphs():
    rng = random.Random(53)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(1, 16), rng.uniform(0.15, 0.5))
        construction = greedy_resolving_set(g)
        landmarks = metric_dimension_bounds(g, exact_limit=0).certificate
        for s in (construction, landmarks):
            assert is_resolving_set(g, s)[0]
            assert len(s) >= twin_resolving_lower_bound(g)
        assert landmarks <= construction
        assert greedy_resolving_set(g) == construction


def test_greedy_resolving_matches_naive_removal_pass():
    rng = random.Random(61)
    for _ in range(60):
        base = random_connected_graph(rng, rng.randint(2, 14), rng.uniform(0.1, 0.5))
        g = with_planted_twins(rng, base, rng.randint(0, 5))
        assert metric_dimension_bounds(g, exact_limit=0).certificate == greedy_resolving_set_reference(g)


@pytest.mark.parametrize("twins", [0, 6])
@pytest.mark.parametrize("n", [40, 80, 120, 160, 200])
def test_greedy_resolving_matches_reference_on_sparse_graphs(n, twins):
    # Tree + chord graphs mix classes kept as pair masks with classes too
    # large for them; planted twins add seeds that split the first class.
    rng = random.Random(83 * n + twins)
    for _ in range(3):
        g = random_tree_plus_chords(rng, n, rng.randint(0, n // 2))
        if twins:
            g = with_planted_twins(rng, g, rng.randint(1, twins))
        assert metric_dimension_bounds(g, exact_limit=0).certificate == greedy_resolving_set_reference(g)


TWIN_FREE = {
    "path40": path_graph(40),
    "grid3x14": grid_graph(3, 14),
    "grid5x6": grid_graph(5, 6),
    "cycle25": cycle(25),
    "cycle40": cycle(40),
    # After the corner, the 18-vertex antidiagonal stays too large for
    # pair masks while the shorter ones become pairs.
    "grid18x18": grid_graph(18, 18),
}


@pytest.mark.parametrize("name", TWIN_FREE)
def test_greedy_resolving_matches_reference_on_twin_free_graphs(name):
    # No twin seeds: one class of all n vertices is counted per candidate
    # until a pick splits it into classes small enough for pair masks.
    g = TWIN_FREE[name]
    assert twin_resolving_lower_bound(g) == 0
    assert metric_dimension_bounds(g, exact_limit=0).certificate == greedy_resolving_set_reference(g)


def test_greedy_resolving_builds_no_rows_when_the_twin_seeds_resolve(monkeypatch):
    # The seeds' collision classes, empty on FCN, start the add loop.
    rows = count_calls(monkeypatch, graphmon.resolving, "bfs_distances")
    collisions = count_calls(monkeypatch, graphmon.resolving, "_collisions")
    before_removal = []
    original = graphmon.resolving.prune

    def recording(kept, keeps, floor):
        before_removal.append((len(rows), len(collisions)))
        return original(kept, keeps, floor)

    monkeypatch.setattr(graphmon.resolving, "prune", recording)
    landmarks = metric_dimension_bounds(fractal_cubic_network(3)).certificate
    assert landmarks == canonical_power_dominating_set(3)
    assert before_removal == [(0, 1)]


def _rows_between_collisions_and_removal(monkeypatch, g):
    """The dim section's greedy certificate of g, and the bfs_distances
    calls its greedy makes after the kernel's collision classes and
    before the section's removal pass."""
    rows = count_calls(monkeypatch, graphmon.resolving, "bfs_distances")
    marks = []
    collisions, prune = graphmon.resolving._collisions, graphmon.resolving.prune

    def marking_collisions(*args):
        found = collisions(*args)
        marks.append(len(rows))
        return found

    def marking_prune(kept, keeps, floor):
        marks.append(len(rows))
        return prune(kept, keeps, floor)

    monkeypatch.setattr(graphmon.resolving, "_collisions", marking_collisions)
    monkeypatch.setattr(graphmon.resolving, "prune", marking_prune)
    landmarks = metric_dimension_bounds(g, exact_limit=0).certificate
    start, end = marks
    return landmarks, end - start


def test_greedy_resolving_sweeps_the_first_classes_from_one_row(monkeypatch):
    # Every first class fits pair masks and one member's row bounds the
    # sweep within its levels, so that row is the only one built (a loop
    # building the masks from rows makes 116 calls).
    g = random_tree_plus_chords(random.Random(0), 160, 80)
    expected = greedy_resolving_set_reference(g)
    landmarks, rows = _rows_between_collisions_and_removal(monkeypatch, g)
    assert landmarks == expected
    assert rows == 1


def test_greedy_resolving_builds_rows_where_the_sweep_could_run_long(monkeypatch):
    # The first classes have 8 members, so the sweep may take 4 levels;
    # one member's row cannot bound it that low, and each member's row
    # is built instead, that one's only once.
    g = random_tree_plus_chords(random.Random(2), 160, 80)
    expected = greedy_resolving_set_reference(g)
    landmarks, rows = _rows_between_collisions_and_removal(monkeypatch, g)
    assert landmarks == expected
    assert rows == 8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([None, path_graph(40), cycle(40)]),
    n=st.integers(2, 24),
    p=st.floats(0.0, 0.4),
    pair_count=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_masks_match_row_masks(shape, n, p, pair_count, seed):
    # Random connected graphs, and a path and a cycle of 40, on which
    # the sweep runs for many levels.
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, p) if shape is None else shape
    pairs = [tuple(rng.sample(range(g.n), 2)) for _ in range(pair_count)]
    masks = graphmon.resolving._sweep_masks(g, pairs)
    assert masks == [
        int.from_bytes(bytes(map(eq, bfs_distances(g, a), bfs_distances(g, b))), "little")
        for a, b in pairs
    ]


def _complete(n):
    labels = [str(v) for v in range(n)]
    return build_graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]])


def _wheel(n):
    """Hub 0 joined to a cycle on 1 .. n - 1."""
    labels = [str(v) for v in range(n)]
    rim = labels[1:]
    return build_graph(labels, [("0", v) for v in rim] + list(zip(rim, rim[1:] + rim[:1])))


def _first_masks_rows(monkeypatch, g, classes, large=()):
    """The first masks of the classes, checked against their rows, and
    the bfs_distances calls made for them."""
    rows = count_calls(monkeypatch, graphmon.resolving, "bfs_distances")
    masks = graphmon.resolving._first_masks(g, classes, list(large))
    assert masks == graphmon.resolving._row_masks(classes, lambda v: bfs_distances(g, v))
    return len(rows)


def test_first_masks_sweep_only_within_half_the_members_levels(monkeypatch):
    # In a complete graph, member 0's row bounds the sweep at ecc(0) +
    # d(0, 1) = 2 levels: 3 members allow 1 level, 4 allow 2.
    g = _complete(8)
    assert _first_masks_rows(monkeypatch, g, [[0, 1, 2]]) == 3
    assert _first_masks_rows(monkeypatch, g, [[0, 1], [2, 3]]) == 1
    # Path ends 0 and 1: the bound is 39 + 1 levels, far above 1.
    assert _first_masks_rows(monkeypatch, path_graph(40), [[0, 1]]) == 2


def test_first_masks_build_rows_where_they_take_less_memory(monkeypatch):
    # From the hub of a wheel the sweep needs two levels. Row-built
    # masks of two pairs peak at both masks and the second class's two
    # rows, 2 + 16 n-byte units, so the balls (n / 4 units) fit up to
    # n = 72.
    pairs = [[0, 1], [2, 3]]
    assert _first_masks_rows(monkeypatch, _wheel(72), pairs) == 1
    assert _first_masks_rows(monkeypatch, _wheel(73), pairs) == 4
    # The first count adds the rows of a large class of 18: 2 + 144.
    large = [list(range(4, 22))]
    assert _first_masks_rows(monkeypatch, _wheel(584), pairs, large) == 1
    assert _first_masks_rows(monkeypatch, _wheel(585), pairs, large) == 4


def test_pair_masks_take_classes_up_to_the_row_bound():
    # C(s, 2) masks of n bytes fit while C(s, 2) <= min(n, 8 s).
    fits = graphmon.resolving._pairs_fit
    assert fits(2, 1) and fits(3, 3) and not fits(3, 2)
    assert fits(6, 15) and not fits(6, 14)
    assert fits(17, 136) and fits(17, 10**6) and not fits(17, 135)
    assert not fits(18, 10**6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 12),
    pair_count=st.integers(0, 40) | st.integers(256, 600),
    full=st.booleans(),
    large_count=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_fewest_collisions_matches_a_plain_count(n, pair_count, full, large_count, seed):
    # Random pair masks, random member rows for the large classes, and a
    # random candidate set; few distinct values make ties common. With
    # full, some bytes are set in every mask, so over 255 masks set them
    # more often than one byte of a sum can count.
    rng = random.Random(seed)
    as_int = lambda flags: int.from_bytes(bytes(flags), "little")
    odds = [1.0 if full and rng.random() < 0.3 else 0.5 for _ in range(n)]
    pairs = [as_int(rng.random() < p for p in odds) for _ in range(pair_count)]
    large = [
        [[rng.randrange(3) for _ in range(n)] for _ in range(rng.randint(2, 6))]
        for _ in range(large_count)
    ]
    candidates = [w for w in range(n) if rng.random() < 0.7] or [n - 1]

    def colliding(w):
        total = sum(m >> 8 * w & 1 for m in pairs)
        for rows in large:
            total += sum(c * (c - 1) // 2 for c in Counter(row[w] for row in rows).values())
        return total

    pick = graphmon.resolving._fewest_collisions(n, candidates, pairs, large)
    assert pick == min(candidates, key=colliding)


def test_twins_kept_allows_one_vertex_out_per_class(c4):
    # C4 has the open twin classes {00, 11} and {01, 10}.
    twins_kept = graphmon.resolving._twins_kept(twin_partition(c4))
    assert twins_kept(frozenset(range(4)))
    assert twins_kept(frozenset({c4.index("00"), c4.index("01")}))
    assert not twins_kept(frozenset({c4.index("01"), c4.index("10")}))
    # The exact searches ask it of tuples.
    assert twins_kept((c4.index("00"), c4.index("01")))
    assert not twins_kept((c4.index("01"), c4.index("10")))


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
            greedy = power_domination_bounds(g, exact_limit=0).certificate
            hint = {swap.get(v, v) for v in greedy}
        power = power_domination_bounds(g, exact_limit=0, hint=hint)
        resolving = metric_dimension_bounds(g, exact_limit=0, hint=hint)
        b = resolving_power_domination_bounds(g, power, resolving, exact_limit=0)
        assert b.lower == max(power.lower, resolving.lower)
        assert b.upper_method == "greedy-union"
        assert resolving.upper_method == "greedy"
        assert resolving.certificate == greedy_resolving_set_reference(g)
        union = resolving.certificate | power.certificate
        assert b.certificate == greedy_union_reference(g, union)


def test_rpds_examples(fcn1, c4):
    assert is_resolving_power_dominating(fcn1, canonical_power_dominating_set(1))
    assert not is_resolving_power_dominating(c4, [c4.index("00")])
    assert is_resolving_power_dominating(c4, [0, 1])
    assert is_resolving_power_dominating(c4, range(4))


def test_rpds_rejects_disconnected():
    with pytest.raises(GraphError):
        is_resolving_power_dominating(two_triangles(), [0, 3])


def test_rpds_asks_connectivity_once(monkeypatch, fcn2):
    # The resolving check, asked first, is the only connectivity check.
    calls = count_calls(monkeypatch, graphmon.core, "components")
    assert is_resolving_power_dominating(fcn2, canonical_power_dominating_set(2))
    assert len(calls) == 1


def test_greedy_resolving_rejects_disconnected():
    with pytest.raises(GraphError, match="requires a connected graph, found 2"):
        greedy_resolving_set(two_triangles())


@pytest.mark.parametrize("exact_limit", [graphmon.resolving.ETA_P_EXACT_LIMIT, 0])
def test_eta_bounds_build_one_resolving_test(monkeypatch, c4, exact_limit):
    # The exact search and the union prune both ask the one test.
    power = power_domination_bounds(c4, exact_limit=exact_limit)
    resolving = metric_dimension_bounds(c4, exact_limit=exact_limit)
    tests = count_calls(monkeypatch, graphmon.resolving, "_resolving_test")
    b = resolving_power_domination_bounds(c4, power, resolving, exact_limit=exact_limit)
    assert len(tests) == 1
    assert b.upper_method == ("exact-search" if exact_limit else "greedy-union")


def test_eta_bounds_c4(c4):
    b = resolving_power_domination_bounds(
        c4, power_domination_bounds(c4), metric_dimension_bounds(c4)
    )
    assert (b.lower, b.upper) == (2, 2)
    assert b.certificate == frozenset({0, 1})
    assert b.lower_method == b.upper_method == "exact-search"


def test_eta_bounds_fcn1(fcn1):
    b = resolving_power_domination_bounds(
        fcn1, power_domination_bounds(fcn1), metric_dimension_bounds(fcn1)
    )
    assert (b.lower, b.upper) == (4, 4)
    assert is_resolving_power_dominating(fcn1, b.certificate)


def test_eta_bounds_fcn2_with_hint(fcn2):
    hint = canonical_power_dominating_set(2)
    power = power_domination_bounds(fcn2, hint=hint)
    b = resolving_power_domination_bounds(fcn2, power, metric_dimension_bounds(fcn2, hint=hint))
    assert (b.lower, b.upper) == (16, 16)
    assert b.certificate == hint
    assert b.lower_method == "sandwich-lower"
    assert b.upper_method == "greedy-union"


def test_eta_bounds_fcn2_without_hint(fcn2):
    b = resolving_power_domination_bounds(
        fcn2, power_domination_bounds(fcn2), metric_dimension_bounds(fcn2)
    )
    assert (b.lower, b.upper) == (16, 16)
    assert b.upper_method == "greedy-union"
    assert is_resolving_power_dominating(fcn2, b.certificate)
    assert len(b.certificate) == b.upper


def test_eta_bounds_take_a_shared_hint_unchecked(fcn2, monkeypatch):
    hint = canonical_power_dominating_set(2)
    power = power_domination_bounds(fcn2, hint=hint)
    resolving = metric_dimension_bounds(fcn2, hint=hint)

    def unexpected(*args):
        raise AssertionError("the hint was checked again")

    monkeypatch.setattr(graphmon.resolving, "is_resolving_set", unexpected)
    monkeypatch.setattr(graphmon.resolving, "is_power_dominating_set", unexpected)
    # The union is already at the lower bound, so not even the twin check runs.
    monkeypatch.setattr(graphmon.resolving, "twin_partition", unexpected)
    b = resolving_power_domination_bounds(fcn2, power, resolving)
    assert (b.lower, b.upper, b.certificate) == (16, 16, hint)
    assert b.upper_method == "greedy-union"


def test_eta_bounds_prune_two_different_hint_certificates(fcn2):
    hint = canonical_power_dominating_set(2)
    extra = min(set(range(fcn2.n)) - hint)
    power = power_domination_bounds(fcn2, hint=hint)
    resolving = metric_dimension_bounds(fcn2, hint=hint | {extra})
    assert resolving.upper_method == "hint-certificate"
    b = resolving_power_domination_bounds(fcn2, power, resolving)
    assert b.upper_method == "greedy-union"
    assert b.certificate == greedy_union_reference(fcn2, hint | {extra})
    assert b.upper == 16


def test_eta_bounds_prune_a_shared_hint_above_the_lower_bound(fcn2):
    canonical = canonical_power_dominating_set(2)
    hint = canonical | {min(set(range(fcn2.n)) - canonical)}
    power = power_domination_bounds(fcn2, hint=hint)
    resolving = metric_dimension_bounds(fcn2, hint=hint)
    assert power.certificate == resolving.certificate == hint
    b = resolving_power_domination_bounds(fcn2, power, resolving)
    assert b.upper_method == "greedy-union"
    assert b.certificate == greedy_union_reference(fcn2, hint)
    assert b.upper == 16


def test_eta_union_starts_from_a_resolving_hint():
    # {v01, v06} resolves this graph but monitors only five of its vertices,
    # so the union joins the hint with the greedy monitoring set.
    g = build_graph(
        ["v00", "v01", "v02", "v03", "v04", "v05", "v06"],
        [("v00", "v01"), ("v00", "v02"), ("v00", "v03"), ("v03", "v04"), ("v03", "v05"),
         ("v04", "v05"), ("v05", "v06")],
    )
    hint = {g.index("v01"), g.index("v06")}
    power = power_domination_bounds(g, exact_limit=0, hint=hint)
    resolving = metric_dimension_bounds(g, exact_limit=0, hint=hint)
    assert (power.upper_method, resolving.upper_method) == ("greedy", "hint-certificate")
    b = resolving_power_domination_bounds(g, power, resolving, exact_limit=0)
    assert b.upper_method == "greedy-union"
    assert b.certificate == greedy_union_reference(g, hint | power.certificate)
    assert is_resolving_power_dominating(g, b.certificate)


def test_eta_p_exact_matches_naive_search():
    rng = random.Random(73)
    for _ in range(40):
        base = random_connected_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.5))
        g = with_planted_twins(rng, base, rng.randint(0, 4))
        power = power_domination_bounds(g)
        resolving = metric_dimension_bounds(g)
        b = resolving_power_domination_bounds(g, power, resolving)
        assert b.upper_method == "exact-search"
        start = max(power.lower, resolving.lower)
        assert (b.lower, b.certificate, b.subsets_examined) == eta_p_exact_reference(g, start)


def test_eta_rejects_disconnected():
    with pytest.raises(GraphError):
        g = two_triangles()
        resolving_power_domination_bounds(g, power_domination_bounds(g), metric_dimension_bounds(g))


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
    assert twin_resolving_lower_bound(fcn1) == len(twin_lower_bound(fcn1)) == 4
