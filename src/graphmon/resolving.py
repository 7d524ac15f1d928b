"""Distance codes, resolving sets, and resolving power domination.

A set of landmarks resolves a connected graph when every vertex gets a
distinct vector of distances to the landmarks. Combining that with the
monitoring requirement from :mod:`graphmon.powerdom` gives resolving
power domination: one vertex set that both pins down locations and
monitors the whole graph.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Sequence

from .core import (
    EXACT_LIMIT,
    Bounds,
    Graph,
    GraphError,
    LimitExceeded,
    VertexSet,
    bfs_distances,
    components,
    is_connected,
    prune,
    smallest_subset,
)
from .powerdom import is_power_dominating_set
from .twins import TwinPartition, twin_partition

# The combined resolving-and-monitoring search space grows the fastest,
# so its exhaustive search gets a lower vertex cap.
ETA_P_EXACT_LIMIT = 16


def _require_connected(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise GraphError(f"{what} requires a connected graph, found {len(components(g))} components")


def _codes(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Per-vertex codes from one BFS row per landmark, in row order."""
    return list(zip(*rows)) if rows else [()] * n


def _resolves(rows, marks: Iterable[int], n: int) -> bool:
    """Whether marks resolve all n vertices; rows[l] is the BFS row of landmark l."""
    return len(set(_codes([rows[l] for l in marks], n))) == n


def _twins_kept(part: TwinPartition) -> Callable[[VertexSet], bool]:
    """Whether a set leaves at most one vertex of each twin class out.

    Twins outside a landmark set share every distance code, so a set that
    fails this never resolves (the twin lemma); checked first, it spares
    the dearer checks.
    """
    classes = part.open_classes + part.closed_classes
    return lambda rest: all(len(c - rest) <= 1 for c in classes)


def is_resolving_set(g: Graph, landmarks: Iterable[int]) -> tuple[bool, tuple[int, int] | None]:
    """Whether the landmarks give every vertex a distinct code.

    Returns (True, None) or (False, witness) where the witness is the
    first colliding vertex pair in code order.
    """
    marks = sorted(g.check_vertex_set(landmarks))
    _require_connected(g, "distance coding")
    codes = _codes([bfs_distances(g, v) for v in marks], g.n)
    order = sorted(range(g.n), key=lambda v: (codes[v], v))
    for a, b in zip(order, order[1:]):
        if codes[a] == codes[b]:
            return False, (min(a, b), max(a, b))
    return True, None


def twin_resolving_lower_bound(g: Graph) -> int:
    """Every resolving set misses at most one vertex of each twin class,
    so the class sizes force this many landmarks."""
    part = twin_partition(g)
    return sum(len(c) - 1 for c in part.open_classes + part.closed_classes)


def metric_dimension(g: Graph, limit: int = EXACT_LIMIT) -> tuple[int, tuple[int, ...]]:
    """Exact metric dimension with a lexicographically first basis.

    Searches subset sizes upward starting from the twin lower bound,
    which no resolving set can beat. Graphs above the vertex limit are
    rejected; use metric_dimension_bounds for those.
    """
    if g.n > limit:
        raise LimitExceeded(
            f"exact metric dimension is capped at {limit} vertices, got {g.n};"
            " use metric_dimension_bounds instead"
        )
    _require_connected(g, "metric dimension")
    n = g.n
    rows = [bfs_distances(g, v) for v in range(n)]
    basis, _ = smallest_subset(n, twin_resolving_lower_bound(g), lambda s: _resolves(rows, s, n))
    return len(basis), basis


def greedy_resolving_set(g: Graph) -> VertexSet:
    """Deterministic heuristic resolving set.

    Seeds all but the largest member of every twin class (those picks
    are forced anyway), then repeatedly adds the vertex separating the
    most still-colliding pairs, then drops redundant landmarks.
    """
    _require_connected(g, "greedy resolving construction")
    n = g.n
    part = twin_partition(g)
    chosen: set[int] = set()
    for cls in part.open_classes + part.closed_classes:
        chosen.update(sorted(cls)[:-1])
    rows: dict[int, list[int]] = {}

    def row(v: int) -> list[int]:
        if v not in rows:
            rows[v] = bfs_distances(g, v)
        return rows[v]

    while True:
        buckets: dict[tuple[int, ...], list[int]] = {}
        for v, code in enumerate(_codes([row(l) for l in sorted(chosen)], n)):
            buckets.setdefault(code, []).append(v)
        grouped = [(i, u) for i, vs in enumerate(buckets.values()) if len(vs) >= 2 for u in vs]
        if not grouped:
            break

        def colliding(v: int) -> int:
            """Pairs within a group that v's distances still leave equal."""
            rv = row(v)
            sizes = Counter((i, rv[u]) for i, u in grouped)
            return sum(c * (c - 1) // 2 for c in sizes.values())

        # min keeps the first, so the smallest id, among equal counts
        chosen.add(min((v for v in range(n) if v not in chosen), key=colliding))
    # Every landmark's row is cached by now.
    twins_kept = _twins_kept(part)
    return prune(chosen, lambda rest: twins_kept(rest) and _resolves(rows, rest, n))


def metric_dimension_bounds(
    g: Graph, exact_limit: int = EXACT_LIMIT, hint: Iterable[int] | None = None
) -> Bounds:
    """Exact value when the graph is small enough; otherwise the twin lower
    bound and a verified upper certificate (the hint when it resolves, the
    greedy construction otherwise). The certificate is the basis."""
    _require_connected(g, "metric dimension")
    if g.n <= exact_limit:
        value, basis = metric_dimension(g, limit=exact_limit)
        return Bounds(value, value, frozenset(basis), "exact-search", "exact-search")
    twin_lb = twin_resolving_lower_bound(g)
    lower = max(1, twin_lb)
    method = "twin-lower" if twin_lb >= 1 else "trivial-lower"
    if hint is not None:
        hint_set = g.check_vertex_set(hint)
        if is_resolving_set(g, hint_set)[0]:
            return Bounds(lower, len(hint_set), hint_set, method, "hint-certificate")
    basis = greedy_resolving_set(g)
    return Bounds(lower, len(basis), basis, method, "greedy")


def is_resolving_power_dominating(g: Graph, seeds: Iterable[int]) -> bool:
    """Whether the set is simultaneously resolving and power dominating."""
    members = g.check_vertex_set(seeds)
    _require_connected(g, "resolving power domination")
    return is_power_dominating_set(g, members) and is_resolving_set(g, members)[0]


def resolving_power_domination_bounds(
    g: Graph,
    power: Bounds,
    exact_limit: int = ETA_P_EXACT_LIMIT,
    hint: Iterable[int] | None = None,
) -> Bounds:
    """Best-known bounds on the resolving power domination number.

    The lower bound is the larger of the twin landmark bound and the
    power domination lower bound, both of which the combined invariant
    must respect. Small graphs are solved exactly by searching subset
    sizes upward from that bound; larger ones get a verified certificate
    from the hint or from pruning the union of the greedy resolving set
    and the power domination certificate.

    power is what power_domination_bounds returns for this graph and hint:
    its lower bound joins the sandwich, and its certificate joins the union.
    """
    _require_connected(g, "resolving power domination")
    n = g.n
    if n == 0:
        return Bounds(0, 0, frozenset(), "exact-search", "exact-search")
    lower = max(1, twin_resolving_lower_bound(g), power.lower)

    if n <= exact_limit:
        rows = [bfs_distances(g, v) for v in range(n)]
        best, examined = smallest_subset(
            n, lower, lambda s: _resolves(rows, s, n) and is_power_dominating_set(g, s)
        )
        k = len(best)
        return Bounds(k, k, frozenset(best), "exact-search", "exact-search", examined)

    if hint is not None:
        hint_set = g.check_vertex_set(hint)
        if is_resolving_power_dominating(g, hint_set):
            return Bounds(lower, len(hint_set), hint_set, "sandwich-lower", "hint-certificate")
    base = greedy_resolving_set(g) | power.certificate
    rows = {v: bfs_distances(g, v) for v in base}
    twins_kept = _twins_kept(twin_partition(g))
    cert = prune(
        base,
        lambda rest: twins_kept(rest) and is_power_dominating_set(g, rest) and _resolves(rows, rest, n),
    )
    return Bounds(lower, len(cert), cert, "sandwich-lower", "greedy-union")


# The library check for each kind of certificate, keyed by report section.
# Each entry looks its check up by name at call time, so a wrapper later
# installed on the module attribute sees every call.
CERTIFICATE_CHECKS: dict[str, Callable[[Graph, Iterable[int]], bool]] = {
    "gamma_p": lambda g, ids: is_power_dominating_set(g, ids),
    "dim": lambda g, ids: is_resolving_set(g, ids)[0],
    "eta_p": lambda g, ids: is_resolving_power_dominating(g, ids),
}
