"""Shared test utilities: seeded graph generators, an independent
propagation engine, trace replay, the randomized property suites, and
plain reference versions of library paths (all-pairs distances and
diameter, the greedy passes without the twin-lemma skip).

The suites live here so the property tests and the acceptance gate can
run the same logic on different seeds. Every suite returns a list of
violation descriptions; passing means the list is empty.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from graphmon import (
    Graph,
    GraphError,
    bfs_distances,
    brute_force,
    build_graph,
    closed_neighborhood,
    greedy_power_dominating_set,
    is_connected,
    is_power_dominating_set,
    is_resolving_power_dominating,
    is_resolving_set,
    metric_dimension,
    monitoring_closure,
    open_neighborhood_of_set,
    power_domination_bounds,
    resolving_power_domination_bounds,
    twin_lower_bound,
    twin_partition,
)
from graphmon.core import UNREACHABLE


class DistanceMatrix:
    """All-pairs hop distances; entries are UNREACHABLE across components."""

    __slots__ = ("dist",)

    def __init__(self, dist: list[list[int]]):
        self.dist = dist

    def get(self, u: int, v: int) -> int:
        return self.dist[u][v]

    def is_connected(self) -> bool:
        return all(d != UNREACHABLE for row in self.dist for d in row)

    def max_finite(self) -> int:
        return max((d for row in self.dist for d in row), default=0)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    return DistanceMatrix([bfs_distances(g, u) for u in range(g.n)])


def all_pairs_diameter(g: Graph) -> int | None:
    """Reference diameter from a BFS at every vertex; None when disconnected."""
    dm = all_pairs_distances(g)
    return dm.max_finite() if dm.is_connected() else None


def distance_sphere(g: Graph, v: int, r: int) -> frozenset[int]:
    """Vertices at distance exactly r from v (r=1 is the adjacency set)."""
    g.check_vertex(v)
    if r < 1:
        raise GraphError(f"radius must be >= 1, got {r}")
    return frozenset(u for u, d in enumerate(bfs_distances(g, v)) if d == r)


def greedy_resolving_set_reference(g: Graph) -> frozenset[int]:
    """The greedy resolving construction with a naive removal pass: every
    landmark is tried with a full is_resolving_set call, twin or not."""
    n = g.n
    if n <= 1:
        return frozenset()
    part = twin_partition(g)
    chosen: set[int] = set()
    for cls in part.open_classes + part.closed_classes:
        chosen.update(sorted(cls)[:-1])
    rows = [bfs_distances(g, v) for v in range(n)]
    while True:
        buckets: dict[tuple[int, ...], list[int]] = {}
        for v in range(n):
            buckets.setdefault(tuple(rows[l][v] for l in sorted(chosen)), []).append(v)
        groups = [vs for vs in buckets.values() if len(vs) >= 2]
        if not groups:
            break
        # pairs left colliding after adding v; the first v with fewest wins
        def colliding(v: int) -> int:
            return sum(
                sum(c * (c - 1) // 2 for c in Counter(rows[v][u] for u in vs).values())
                for vs in groups
            )

        chosen.add(min((v for v in range(n) if v not in chosen), key=colliding))
    for v in sorted(chosen):
        if len(chosen) > 1 and is_resolving_set(g, chosen - {v})[0]:
            chosen.discard(v)
    return frozenset(chosen)


def greedy_union_reference(g: Graph, power_certificate) -> frozenset[int]:
    """The greedy-union eta_p certificate with a naive pruning pass."""
    base = set(greedy_resolving_set_reference(g)) | set(power_certificate)
    for v in sorted(base):
        if len(base) > 1 and is_resolving_power_dominating(g, base - {v}):
            base.discard(v)
    return frozenset(base)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    labels = [f"v{i:02d}" for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return build_graph(labels, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    labels = [f"v{i:02d}" for i in range(n)]
    edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((labels[i], labels[j]))
    return build_graph(labels, edges)


def with_planted_twins(rng: random.Random, g: Graph, copies: int) -> Graph:
    """Append twin copies of random vertices: open twins duplicate an
    adjacency set, closed twins additionally attach to the original."""
    labels = list(g.labels)
    edges = [(labels[u], labels[v]) for u, v in g.edges()]
    for k in range(copies):
        v = rng.randrange(g.n)
        twin = f"t{k:02d}"
        labels.append(twin)
        for u in g.neighbors(v):
            edges.append((twin, g.labels[u]))
        if rng.random() < 0.5:
            edges.append((twin, g.labels[v]))
    return build_graph(labels, edges)


def random_seed_set(rng: random.Random, g: Graph, low: int = 0, high: int | None = None) -> set[int]:
    if g.n == 0:
        return set()
    top = g.n if high is None else min(high, g.n)
    k = rng.randint(low, top)
    return set(rng.sample(range(g.n), k))


def closure_random_order(g: Graph, seeds, rng: random.Random) -> frozenset[int]:
    """Independent propagation engine: asynchronous, random processing order."""
    monitored = set(closed_neighborhood(g, seeds))
    while True:
        candidates = []
        for x in monitored:
            unseen = [u for u in g.neighbors(x) if u not in monitored]
            if len(unseen) == 1:
                candidates.append(unseen[0])
        if not candidates:
            return frozenset(monitored)
        monitored.add(rng.choice(candidates))


def assert_valid_trace(g: Graph, seeds, trace) -> None:
    """Replay a trace against the graph and check every recorded event."""
    seed_set = set(seeds)
    assert set(trace.dominated) == set(closed_neighborhood(g, seed_set))
    assert list(trace.dominated) == sorted(trace.dominated)
    seen = set(trace.dominated)
    assert len(seen) == len(trace.dominated)
    steps = sorted({p.step for p in trace.propagated})
    assert steps == list(range(1, len(steps) + 1))
    monitored = set(trace.dominated)
    for step in steps:
        batch = [p for p in trace.propagated if p.step == step]
        for p in batch:
            assert p.source in monitored, "propagation from an unmonitored vertex"
            unseen = {u for u in g.neighbors(p.source) if u not in monitored}
            assert unseen == {p.vertex}, "source did not have exactly one unmonitored neighbor"
            assert p.vertex not in seen, "vertex recorded twice"
        for p in batch:
            monitored.add(p.vertex)
            seen.add(p.vertex)
    assert frozenset(monitored) == trace.final


def _twin_contact_holds(g: Graph, pds: set[int]) -> bool:
    for cls in twin_partition(g).open_classes:
        reach = open_neighborhood_of_set(g, cls)
        if pds & reach:
            continue
        if len(pds & cls) >= len(cls) - 1:
            continue
        return False
    return True


def run_monotonicity_suite(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    bad = []
    for i in range(cases):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.05, 0.5))
        small = random_seed_set(rng, g, 0, g.n // 2)
        extra = random_seed_set(rng, g, 0, g.n // 2)
        big = small | extra
        if not monitoring_closure(g, small).final <= monitoring_closure(g, big).final:
            bad.append(f"case {i}: closure not monotone")
    return bad


def run_order_independence_suite(seed: int, graphs: int, orders: int) -> list[str]:
    rng = random.Random(seed)
    bad = []
    for i in range(graphs):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.6))
        seeds = random_seed_set(rng, g, 0, max(1, g.n // 3))
        reference = monitoring_closure(g, seeds).final
        for j in range(orders):
            if closure_random_order(g, seeds, rng) != reference:
                bad.append(f"case {i}.{j}: random-order closure diverged")
    return bad


def propagation_rescan(g: Graph, monitored) -> frozenset[int]:
    """Run only the propagation stage over an already-monitored set."""
    done = set(monitored)
    changed = True
    while changed:
        changed = False
        for x in list(done):
            unseen = [u for u in g.neighbors(x) if u not in done]
            if len(unseen) == 1:
                done.add(unseen[0])
                changed = True
    return frozenset(done)


def run_idempotence_suite(seed: int, cases: int) -> list[str]:
    """The closure's final set is a true fixpoint of propagation.

    Replaying the propagation stage over the final set must add nothing.
    Reseeding the whole closure is a different operation (the domination
    stage applies again and can grow a stalled set), so the full-closure
    stability check only applies once everything is monitored.
    """
    rng = random.Random(seed)
    bad = []
    for i in range(cases):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.6))
        final = monitoring_closure(g, random_seed_set(rng, g, 0, g.n // 2)).final
        if propagation_rescan(g, final) != final:
            bad.append(f"case {i}: propagation reopened a finished closure")
        if len(final) == g.n and monitoring_closure(g, final).final != final:
            bad.append(f"case {i}: complete closure is not stable under reseeding")
    return bad


def run_twin_contact_suite(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    bad = []
    for i in range(cases):
        base = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.6))
        g = with_planted_twins(rng, base, rng.randint(1, 4))
        pds = set(greedy_power_dominating_set(g))
        if not is_power_dominating_set(g, pds):
            bad.append(f"case {i}: greedy certificate is not a PDS")
            continue
        if not _twin_contact_holds(g, pds):
            bad.append(f"case {i}: greedy PDS violates the twin-class predicate")
        if g.n <= 10:
            exact = set(brute_force(g, "gamma_p").certificate)
            if not _twin_contact_holds(g, exact):
                bad.append(f"case {i}: optimal PDS violates the twin-class predicate")
    return bad


def run_twin_bound_suite(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    bad = []
    for i in range(cases):
        base = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.6))
        g = with_planted_twins(rng, base, rng.randint(0, 4))
        bound = twin_lower_bound(g).bound
        optimum = brute_force(g, "gamma_p").optimum
        if bound > optimum:
            bad.append(f"case {i}: twin bound {bound} exceeds optimum {optimum}")
    return bad


def run_sandwich_suite(seed: int, cases: int, big_cases: int = 20) -> list[str]:
    rng = random.Random(seed)
    bad = []
    sizes = [rng.randint(4, 12) for _ in range(cases - big_cases)]
    sizes += [rng.randint(13, 16) for _ in range(big_cases)]
    for i, n in enumerate(sizes):
        g = random_connected_graph(rng, n, rng.uniform(0.1, 0.5))
        gamma_p = brute_force(g, "gamma_p").optimum
        dim = metric_dimension(g)[0]
        eta = resolving_power_domination_bounds(g, exact_limit=16).upper
        if not (max(dim, gamma_p) <= eta <= dim + gamma_p):
            bad.append(f"case {i}: sandwich failed, dim={dim} gamma_p={gamma_p} eta={eta}")
    return bad


def run_distance_identity_suite(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    bad = []
    for i in range(cases):
        base = random_graph(rng, rng.randint(2, 9), rng.uniform(0.15, 0.6))
        g = with_planted_twins(rng, base, rng.randint(1, 4))
        part = twin_partition(g)
        dist = all_pairs_distances(g)
        for cls in part.open_classes + part.closed_classes:
            for u, v in combinations(sorted(cls), 2):
                for w in range(g.n):
                    if w in (u, v):
                        continue
                    if dist.get(w, u) != dist.get(w, v):
                        bad.append(f"case {i}: twins {u},{v} differ in distance from {w}")
    return bad
