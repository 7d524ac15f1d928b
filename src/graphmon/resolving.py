"""Distance codes, resolving sets, and resolving power domination.

A set of landmarks resolves a connected graph when every vertex gets a
distinct vector of distances to the landmarks. Combining that with the
monitoring requirement from :mod:`graphmon.powerdom` gives resolving
power domination: one vertex set that both pins down locations and
monitors the whole graph.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Iterable, Sequence

from .core import (
    Bounds,
    Graph,
    GraphError,
    LimitExceeded,
    VertexSet,
    bfs_distances,
    components,
    is_connected,
    smallest_subset,
)
from .powerdom import is_power_dominating_set, power_domination_bounds
from .twins import TwinPartition, twin_partition


def _require_connected(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise GraphError(f"{what} requires a connected graph, found {len(components(g))} components")


def _codes(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Per-vertex codes from one BFS row per landmark, in row order."""
    return list(zip(*rows)) if rows else [()] * n


def _resolves(rows, marks: Iterable[int], n: int) -> bool:
    """Whether marks resolve all n vertices; rows[l] is the BFS row of landmark l."""
    return len(set(_codes([rows[l] for l in marks], n))) == n


def _prune(kept: set[int], part: TwinPartition, keeps: Callable[[set[int]], bool]) -> None:
    """Drop members of kept in id order while keeps accepts the rest.

    A drop that would leave a vertex and one of its twins out is skipped
    unasked: twins outside a landmark set share every distance code, so
    such a set never resolves (the twin lemma).
    """
    twin_class = {v: cls for cls in part.open_classes + part.closed_classes for v in cls}
    for v in sorted(kept):
        twin_out = any(u != v and u not in kept for u in twin_class.get(v, ()))
        if len(kept) > 1 and not twin_out and keeps(kept - {v}):
            kept.discard(v)


def distance_codes(g: Graph, landmarks: Sequence[int]) -> list[tuple[int, ...]]:
    """Distance vector of every vertex to the landmarks, in landmark order."""
    _require_connected(g, "distance coding")
    marks = list(landmarks)
    for v in marks:
        g.check_vertex(v)
    return _codes([bfs_distances(g, v) for v in marks], g.n)


def is_resolving_set(g: Graph, landmarks: Iterable[int]) -> tuple[bool, tuple[int, int] | None]:
    """Whether the landmarks give every vertex a distinct code.

    Returns (True, None) or (False, witness) where the witness is the
    first colliding vertex pair in code order.
    """
    marks = sorted(g.check_vertex_set(landmarks))
    if g.n <= 1:
        return True, None
    codes = distance_codes(g, marks)
    order = sorted(range(g.n), key=lambda v: (codes[v], v))
    for a, b in zip(order, order[1:]):
        if codes[a] == codes[b]:
            return False, (min(a, b), max(a, b))
    return True, None


def codes_to_csv(g: Graph, landmarks: Sequence[int]) -> str:
    """Code table as CSV: header names the landmarks, one row per vertex."""
    codes = distance_codes(g, landmarks)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["vertex"] + [g.labels[l] for l in landmarks])
    for v in range(g.n):
        writer.writerow([g.labels[v]] + list(codes[v]))
    return out.getvalue()


def twin_resolving_lower_bound(g: Graph) -> int:
    """Every resolving set misses at most one vertex of each twin class,
    so the class sizes force this many landmarks."""
    part = twin_partition(g)
    return sum(len(c) - 1 for c in part.open_classes + part.closed_classes)


def metric_dimension(g: Graph, limit: int = 24) -> tuple[int, tuple[int, ...]]:
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
    if n <= 1:
        return 0, ()
    rows = [bfs_distances(g, v) for v in range(n)]
    start = max(1, twin_resolving_lower_bound(g))
    basis, _ = smallest_subset(n, start, lambda s: _resolves(rows, s, n))
    return len(basis), basis


def greedy_resolving_set(g: Graph) -> VertexSet:
    """Deterministic heuristic resolving set.

    Seeds all but the largest member of every twin class (those picks
    are forced anyway), then repeatedly adds the vertex separating the
    most still-colliding pairs, then drops redundant landmarks.
    """
    _require_connected(g, "greedy resolving construction")
    n = g.n
    if n <= 1:
        return frozenset()
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
        groups = [vs for vs in buckets.values() if len(vs) >= 2]
        if not groups:
            break
        best_v = -1
        best_gain = 0
        for v in range(n):
            if v in chosen:
                continue
            rv = row(v)
            gain = 0
            for vs in groups:
                sizes: dict[int, int] = {}
                for u in vs:
                    sizes[rv[u]] = sizes.get(rv[u], 0) + 1
                whole = len(vs)
                gain += whole * (whole - 1) // 2
                gain -= sum(c * (c - 1) // 2 for c in sizes.values())
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen.add(best_v)
    # Every landmark's row is cached by now.
    _prune(chosen, part, lambda rest: _resolves(rows, rest, n))
    return frozenset(chosen)


def metric_dimension_bounds(
    g: Graph, exact_limit: int = 24, hint: Iterable[int] | None = None
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
    exact_limit: int = 16,
    hint: Iterable[int] | None = None,
    power_bounds: Bounds | None = None,
) -> Bounds:
    """Best-known bounds on the resolving power domination number.

    The lower bound is the larger of the twin landmark bound and the
    power domination lower bound, both of which the combined invariant
    must respect. Small graphs are solved exactly by searching subset
    sizes upward from that bound; larger ones get a verified certificate
    from the hint or from pruning the union of the greedy resolving set
    and the power domination certificate.

    power_bounds, when given, must be what power_domination_bounds returns
    for this graph and hint; it saves recomputing them. Without it they
    are computed with that function's default exact limit.
    """
    _require_connected(g, "resolving power domination")
    n = g.n
    if n == 0:
        return Bounds(0, 0, frozenset(), "exact-search", "exact-search")
    gp = power_bounds if power_bounds is not None else power_domination_bounds(g, hint=hint)
    lower = max(1, twin_resolving_lower_bound(g), gp.lower)

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
    part = twin_partition(g)
    base = set(greedy_resolving_set(g)) | set(gp.certificate)
    rows = {v: bfs_distances(g, v) for v in base}
    _prune(base, part, lambda rest: is_power_dominating_set(g, rest) and _resolves(rows, rest, n))
    return Bounds(lower, len(base), frozenset(base), "sandwich-lower", "greedy-union")
