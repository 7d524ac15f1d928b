"""Monitoring closure and power-domination bounds.

A seed set monitors the graph in two phases: the domination phase marks
the seeds' closed neighborhood, then the propagation phase repeatedly
forces the unique unmonitored neighbor of any monitored vertex that has
exactly one. The closure is confluent, so the final monitored set does
not depend on processing order; traces record the canonical order
(ascending vertex id, synchronous rounds) for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import (
    Bounds,
    Graph,
    VertexSet,
    closed_neighborhood,
    components,
    induced_subgraph,
    smallest_subset,
)
from .twins import twin_partition


class Propagation(NamedTuple):
    vertex: int
    source: int
    step: int


@dataclass(frozen=True)
class PropagationTrace:
    """Domination events, propagation events, and the closure they produce."""

    dominated: tuple[int, ...]
    propagated: tuple[Propagation, ...]
    final: VertexSet


def monitoring_closure(g: Graph, seeds: Iterable[int]) -> PropagationTrace:
    """Run domination then propagation rounds to their unique fixpoint.

    Each round forces, for every monitored vertex with exactly one
    unmonitored neighbor, that neighbor; all forcings of a round apply
    simultaneously. The recorded witness for a forced vertex is its
    smallest-id forcer, and vertices within a round are recorded in
    ascending id, so traces are deterministic.
    """
    members = g.check_vertex_set(seeds)
    n = g.n
    adj = g._adj
    monitored = bytearray(n)
    dominated = sorted(closed_neighborhood(g, members))
    for v in dominated:
        monitored[v] = 1
    unmon = [sum(1 for u in adj[v] if not monitored[u]) for v in range(n)]

    propagated: list[Propagation] = []
    step = 0
    while True:
        forced: dict[int, int] = {}
        for x in range(n):
            if monitored[x] and unmon[x] == 1:
                y = next(u for u in adj[x] if not monitored[u])
                forced.setdefault(y, x)
        if not forced:
            break
        step += 1
        targets = sorted(forced)
        for y in targets:
            propagated.append(Propagation(y, forced[y], step))
            monitored[y] = 1
        for y in targets:
            for z in adj[y]:
                unmon[z] -= 1
    final = frozenset(v for v in range(n) if monitored[v])
    return PropagationTrace(tuple(dominated), tuple(propagated), final)


def is_power_dominating_set(g: Graph, seeds: Iterable[int]) -> bool:
    return len(monitoring_closure(g, seeds).final) == g.n


@dataclass(frozen=True)
class TwinClassBound:
    """Lower bound witness: open twin classes with pairwise disjoint closed
    class neighborhoods. Any power-dominating set must intersect each
    class's closed neighborhood, so their count bounds the optimum."""

    bound: int
    classes: tuple[VertexSet, ...]
    method: str  # "exact" or "greedy"


def twin_lower_bound(g: Graph, exact_class_limit: int = 20) -> TwinClassBound:
    """Largest selectable family of open twin classes whose closed
    neighborhoods are pairwise disjoint.

    Exact (branch and bound over the class conflict graph) up to
    exact_class_limit classes, greedy beyond that.
    """
    classes = twin_partition(g).open_classes
    k = len(classes)
    if k == 0:
        return TwinClassBound(0, (), "exact")
    territories = [closed_neighborhood(g, c) for c in classes]

    def greedy() -> tuple[int, int]:
        taken_mask = 0
        occupied: set[int] = set()
        for i in range(k):
            if not (territories[i] & occupied):
                taken_mask |= 1 << i
                occupied |= territories[i]
        return taken_mask.bit_count(), taken_mask

    if k > exact_class_limit:
        count, mask = greedy()
        chosen = tuple(classes[i] for i in range(k) if mask >> i & 1)
        return TwinClassBound(count, chosen, "greedy")

    conflict = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if territories[i] & territories[j]:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i

    best_count, best_mask = greedy()

    def dfs(avail: int, count: int, mask: int) -> None:
        nonlocal best_count, best_mask
        if count + avail.bit_count() <= best_count:
            return
        if avail == 0:
            best_count, best_mask = count, mask
            return
        low = avail & -avail
        i = low.bit_length() - 1
        dfs(avail & ~low & ~conflict[i], count + 1, mask | low)
        dfs(avail & ~low, count, mask)

    dfs((1 << k) - 1, 0, 0)
    chosen = tuple(classes[i] for i in range(k) if best_mask >> i & 1)
    return TwinClassBound(best_count, chosen, "exact")


def greedy_power_dominating_set(g: Graph) -> VertexSet:
    """Deterministic heuristic PDS: one seed per open twin class, then
    maximum-closure-gain additions, then a removal pass."""
    if g.n == 0:
        return frozenset()
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
        if len(seeds) > 1 and is_power_dominating_set(g, seeds - {v}):
            seeds.discard(v)
    return frozenset(seeds)


def power_domination_bounds(
    g: Graph,
    exact_limit: int = 24,
    hint: Iterable[int] | None = None,
) -> Bounds:
    """Best-known bounds on the power domination number, with certificate.

    Connected graphs up to exact_limit vertices are solved exactly by
    trying every subset by size from 0 up, then in lexicographic order
    (tagged exact-oracle); larger ones get the twin-class lower bound and a
    verified upper certificate (the hint when it power-dominates, the
    greedy construction otherwise). Disconnected graphs are handled per
    component and summed.
    """
    if g.n == 0:
        return Bounds(0, 0, frozenset(), "exact-oracle", "exact-oracle")

    comps = components(g)
    if len(comps) > 1:
        lower = upper = 0
        certificate: set[int] = set()
        for comp in comps:
            sub, old_ids = induced_subgraph(g, comp)
            res = power_domination_bounds(sub, exact_limit=exact_limit)
            lower += res.lower
            upper += res.upper
            certificate.update(old_ids[v] for v in res.certificate)
        return Bounds(lower, upper, frozenset(certificate), "componentwise", "componentwise")

    if g.n <= exact_limit:
        best, examined = smallest_subset(g.n, 0, lambda s: is_power_dominating_set(g, s))
        k = len(best)
        return Bounds(k, k, frozenset(best), "exact-oracle", "exact-oracle", examined)

    tlb = twin_lower_bound(g)
    lower = max(1, tlb.bound)
    lower_method = "lemma2-lower" if tlb.bound >= 1 else "trivial-lower"
    if hint is not None:
        hint_set = g.check_vertex_set(hint)
        if is_power_dominating_set(g, hint_set):
            return Bounds(lower, len(hint_set), hint_set, lower_method, "hint-certificate")
    cert = greedy_power_dominating_set(g)
    return Bounds(lower, len(cert), cert, lower_method, "greedy")


def trace_to_text(g: Graph, trace: PropagationTrace) -> str:
    """Line format: DOM lines in id order, then PROP y FROM x STEP t lines."""
    lines = [f"DOM {g.labels[v]}" for v in trace.dominated]
    lines.extend(
        f"PROP {g.labels[p.vertex]} FROM {g.labels[p.source]} STEP {p.step}"
        for p in trace.propagated
    )
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_json(g: Graph, trace: PropagationTrace) -> dict:
    events: list[dict] = [{"type": "dominated", "vertex": g.labels[v]} for v in trace.dominated]
    events.extend(
        {
            "type": "propagated",
            "vertex": g.labels[p.vertex],
            "from": g.labels[p.source],
            "step": p.step,
        }
        for p in trace.propagated
    )
    return {"events": events, "final": [g.labels[v] for v in sorted(trace.final)]}
