"""Shared test utilities: seeded graph generators, an independent
propagation engine, trace replay, the randomized property suites, and
plain reference versions of library paths (the graph builder, the
cycle-by-cycle FCN(d) construction, all-pairs distances and diameter,
the resolving check, the exact eta_p search, the greedy constructions
with their own plain removal loops), and a memory probe.

The suites live here so the property tests and the acceptance gate can
run the same logic on different seeds. Every suite returns a list of
violation descriptions; passing means the list is empty.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from itertools import combinations

from graphmon import (
    Graph,
    GraphError,
    bfs_distances,
    brute_force,
    build_graph,
    closed_neighborhood,
    is_power_dominating_set,
    is_resolving_power_dominating,
    is_resolving_set,
    metric_dimension_bounds,
    monitoring_closure,
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


def neighbors_of_set(g: Graph, s) -> frozenset[int]:
    """Union of the members' adjacency sets (members not implicitly included)."""
    return frozenset().union(*(g.neighbors(v) for v in s))


def residue_classes(d: int) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split V(FCN(d)) by id mod 4, i.e. by label suffix: seeds ("01"),
    degree-2 vertices forced by propagation ("10") and the vertices the
    seeds dominate directly ("00" and "11")."""
    n = 4 ** (d + 1)
    seeds = frozenset(range(1, n, 4))
    degree_two = frozenset(range(2, n, 4))
    covered = frozenset(v for v in range(n) if v % 4 in (0, 3))
    return seeds, degree_two, covered


def resolving_set_reference(g: Graph, landmarks) -> tuple[bool, tuple[int, int] | None]:
    """is_resolving_set from per-vertex tuple codes: the witness is the
    smallest colliding code's two smallest vertex ids."""
    dist = all_pairs_distances(g)
    marks = sorted(set(landmarks))
    holders: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        holders.setdefault(tuple(dist.get(l, v) for l in marks), []).append(v)
    clashes = [vs for _, vs in sorted(holders.items()) if len(vs) >= 2]
    return (False, (clashes[0][0], clashes[0][1])) if clashes else (True, None)


def eta_p_exact_reference(g: Graph, start: int) -> tuple[int, frozenset[int], int]:
    """Smallest set that resolves and power-dominates, by size from start
    and then lexicographically: (size, set, subsets examined)."""
    dist = all_pairs_distances(g)
    examined = 0
    for k in range(start, g.n + 1):
        for subset in combinations(range(g.n), k):
            examined += 1
            codes = {tuple(dist.get(l, v) for l in subset) for v in range(g.n)}
            if len(codes) == g.n and is_power_dominating_set(g, subset):
                return k, frozenset(subset), examined
    raise ValueError("no set qualifies, so the graph is not connected")


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


def greedy_power_dominating_set_reference(g: Graph) -> frozenset[int]:
    """The greedy power-dominating construction as a plain loop: a strict
    `>` scan for the largest closure, the winner's closure computed again,
    and its own removal pass. Every closure, the removal pass's too, is a
    traced monitoring_closure, so the library's forcing engine is not
    used."""
    seeds = {min(c) for c in twin_partition(g).open_classes}
    reached = monitoring_closure(g, seeds).final
    while len(reached) < g.n:
        best_v = -1
        best_gain = -1
        for v in range(g.n):
            if v in seeds:
                continue
            gain = len(monitoring_closure(g, seeds | {v}).final)
            if gain > best_gain:
                best_v, best_gain = v, gain
        seeds.add(best_v)
        reached = monitoring_closure(g, seeds).final
    for v in sorted(seeds):
        if len(seeds) > 1 and len(monitoring_closure(g, seeds - {v}).final) == g.n:
            seeds.discard(v)
    return frozenset(seeds)


def greedy_union_reference(g: Graph, union) -> frozenset[int]:
    """The greedy-union eta_p certificate: the union of the dim and gamma_p
    certificates with a naive pruning pass."""
    base = set(union)
    for v in sorted(base):
        if len(base) > 1 and is_resolving_power_dominating(g, base - {v}):
            base.discard(v)
    return frozenset(base)


def build_graph_reference(labels, edges) -> Graph:
    """build_graph as a plain loop: every neighbour set stays alive until
    all of them are copied into sorted tuples."""
    index: dict[str, int] = {}
    for lab in labels:
        if lab in index:
            raise GraphError(f"duplicate label {lab!r}")
        index[lab] = len(index)
    adj: list[set[int]] = [set() for _ in index]
    for a, b in edges:
        if a not in index:
            raise GraphError(f"unknown endpoint {a!r} in edge ({a!r}, {b!r})")
        if b not in index:
            raise GraphError(f"unknown endpoint {b!r} in edge ({a!r}, {b!r})")
        if a == b:
            raise GraphError(f"self-loop on {a!r}")
        u, v = index[a], index[b]
        adj[u].add(v)
        adj[v].add(u)
    return Graph(tuple(index), tuple(tuple(sorted(s)) for s in adj))


def fcn_reference(d: int) -> Graph:
    """FCN(d) laid down cycle by cycle from the recursive definition: the
    inner 4-cycle 00-01-11-10 for every 2d-bit prefix, then the cross
    4-cycles level by level on the special vertices prefix+"11"+0...0,
    with one format call per label."""
    width = 2 * d + 2
    n = 1 << width
    labels = tuple(format(v, f"0{width}b") for v in range(n))
    adj: list[list[int]] = [[] for _ in range(n)]

    def add_cycle(base: int, shift: int) -> None:
        # 4-cycle on base | (pattern << shift) over the two-bit patterns
        for a, b in ((0, 1), (1, 3), (3, 2), (2, 0)):
            u = base | (a << shift)
            v = base | (b << shift)
            adj[u].append(v)
            adj[v].append(u)

    for prefix in range(n >> 2):
        add_cycle(prefix << 2, 0)
    for level in range(1, d + 1):
        suffix = 0b11 << (2 * level - 2)
        for prefix in range(1 << (2 * (d - level))):
            add_cycle((prefix << (2 * level + 2)) | suffix, 2 * level)
    return Graph(labels, tuple(tuple(sorted(s)) for s in adj))


def assert_sorted_tuple_layout(g: Graph) -> None:
    """Each neighbourhood is a tuple of int ids in ascending order, the
    adjacency is symmetric with no self-loop, and neighbors() hands out a
    frozenset of the same ids."""
    for v, nbrs in enumerate(g._adj):
        assert type(nbrs) is tuple and all(type(u) is int for u in nbrs), v
        assert list(nbrs) == sorted(set(nbrs)), v
        assert v not in nbrs and all(v in g._adj[u] for u in nbrs), v
        got = g.neighbors(v)
        assert type(got) is frozenset and got == frozenset(nbrs), v


def traced_mib(build) -> tuple[float, float]:
    """MiB that build()'s result keeps and the peak while it ran, both
    under tracemalloc."""
    tracemalloc.start()
    try:
        result = build()  # alive while the sizes are read
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return kept / 2**20, peak / 2**20


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so each call's arguments are appended to the
    returned list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


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


def random_tree_plus_chords(rng: random.Random, n: int, chords: int) -> Graph:
    """Random recursive tree on n vertices plus `chords` distinct non-tree
    edges: almost no twins, so twin seeding settles little."""
    labels = [f"v{i:02d}" for i in range(n)]
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + chords:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return build_graph(labels, [(labels[a], labels[b]) for a, b in sorted(edges)])


def path_graph(n: int) -> Graph:
    labels = [f"p{i}" for i in range(n)]
    return build_graph(labels, zip(labels, labels[1:]))


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex r * cols + c is row r, column c."""
    lab = lambda r, c: f"r{r}c{c}"
    labels = [lab(r, c) for r in range(rows) for c in range(cols)]
    edges = [(lab(r, c), lab(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(lab(r, c), lab(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return build_graph(labels, edges)


def with_planted_twins(rng: random.Random, g: Graph, copies: int) -> Graph:
    """Append twin copies of random vertices: an open twin takes its
    original's neighbours in the graph built so far, a closed twin also
    attaches to the original. A vertex copied again gets a copy of the
    same kind as its first, so every copy stays a twin of its original.
    Each copy draws its original, then a kind, whether it uses it or not."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    kinds: dict[int, bool] = {}
    for _ in range(copies):
        v = rng.randrange(g.n)
        closed = kinds.setdefault(v, rng.random() < 0.5)
        twin = len(adj)
        adj.append(adj[v] | {v} if closed else set(adj[v]))
        for u in adj[twin]:
            adj[u].add(twin)
    labels = [*g.labels, *(f"t{k:02d}" for k in range(copies))]
    return build_graph(labels, [(labels[u], labels[w]) for u, nbrs in enumerate(adj) for w in nbrs if u < w])


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
        reach = neighbors_of_set(g, cls)
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
        pds = set(power_domination_bounds(g, exact_limit=0).certificate)
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
    """twin_lower_bound's packing: sets of two or more open twins with
    pairwise disjoint closed neighbourhoods, no more of them than gamma_p."""
    rng = random.Random(seed)
    bad = []
    for i in range(cases):
        base = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.6))
        g = with_planted_twins(rng, base, rng.randint(0, 4))
        packing = twin_lower_bound(g)
        if any(len(cls) < 2 or len({g.neighbors(v) for v in cls}) > 1 for cls in packing):
            bad.append(f"case {i}: a packed class is not a set of open twins")
        territories = [closed_neighborhood(g, cls) for cls in packing]
        if any(not a.isdisjoint(b) for a, b in combinations(territories, 2)):
            bad.append(f"case {i}: packed classes share a closed neighbourhood vertex")
        optimum = brute_force(g, "gamma_p").optimum
        if len(packing) > optimum:
            bad.append(f"case {i}: twin bound {len(packing)} exceeds optimum {optimum}")
    return bad


def run_sandwich_suite(seed: int, cases: int, big_cases: int = 20) -> list[str]:
    rng = random.Random(seed)
    bad = []
    sizes = [rng.randint(4, 12) for _ in range(cases - big_cases)]
    sizes += [rng.randint(13, 16) for _ in range(big_cases)]
    for i, n in enumerate(sizes):
        g = random_connected_graph(rng, n, rng.uniform(0.1, 0.5))
        gamma_p = brute_force(g, "gamma_p").optimum
        resolving = metric_dimension_bounds(g)
        dim = resolving.upper
        eta = resolving_power_domination_bounds(
            g, power_domination_bounds(g), resolving, exact_limit=16
        ).upper
        if not (max(dim, gamma_p) <= eta <= dim + gamma_p):
            bad.append(f"case {i}: sandwich failed, dim={dim} gamma_p={gamma_p} eta={eta}")
        # The search starts at max(dim, gamma_p), so the oracle, which
        # starts at 0, checks the lower side independently.
        if n <= 12 and eta != brute_force(g, "eta_p").optimum:
            bad.append(f"case {i}: eta={eta} is not the oracle's optimum")
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
