"""Monitoring closure and power-domination bounds.

A seed set monitors the graph in two phases: the domination phase marks
the seeds' closed neighborhood, then the propagation phase repeatedly
forces the unique unmonitored neighbor of any monitored vertex that has
exactly one. The closure is confluent, so the final monitored set does
not depend on processing order; traces record the canonical order
(ascending vertex id, synchronous rounds) for reproducibility.

Only monitoring_closure builds a trace. Every yes/no question goes
through _force, a worklist engine that builds none: it grows a
fixpoint, given as a monitored flag and an unmonitored-neighbor count
per vertex, by a set of newly monitored vertices, and revisits only
the neighbors of vertices it monitors; _unforce takes the growth back.
Forcing is monotone and idempotent, so growing closure(S) by N[v]
gives closure(S + v). is_power_dominating_set runs the engine from
scratch, and the greedy keeps one fixpoint across its add steps,
scoring each candidate that has an unmonitored vertex in its closed
neighborhood by one grow-and-undo.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

from .core import (
    EXACT_LIMIT,
    Adjacency,
    Bounds,
    Graph,
    VertexSet,
    closed_neighborhood,
    components,
    induced_subgraph,
    prune,
    smallest_subset,
)
from .formats import join_lines
from .twins import twin_partition

EXACT_CLASS_LIMIT = 20


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
    dominated = sorted(closed_neighborhood(g, seeds))  # validates the seeds
    n = g.n
    adj = g._adj
    monitored = bytearray(n)
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


def _force(
    adj: Adjacency, monitored: bytearray, unmon: list[int], start: Iterable[int]
) -> list[int]:
    """Monitor start and force to the new fixpoint; return the vertices
    this monitored. monitored and unmon (each vertex's count of
    unmonitored neighbors) must describe a fixpoint on entry."""
    added: list[int] = []
    # queue holds vertices to monitor: start, then each vertex forced by
    # one that is monitored with a single unmonitored neighbor, checked
    # when it is monitored and when its count drops to one.
    queue = [*start]
    for w in queue:
        if monitored[w]:
            continue
        monitored[w] = 1
        added.append(w)
        for x in adj[w]:
            left = unmon[x] - 1
            unmon[x] = left
            if left == 1 and monitored[x]:
                for y in adj[x]:
                    if not monitored[y]:
                        queue.append(y)
                        break
        if unmon[w] == 1:
            for y in adj[w]:
                if not monitored[y]:
                    queue.append(y)
                    break
    return added


def _unforce(
    adj: Adjacency, monitored: bytearray, unmon: list[int], added: list[int]
) -> None:
    """Undo the _force call that returned added."""
    for w in added:
        monitored[w] = 0
        for u in adj[w]:
            unmon[u] += 1


def is_power_dominating_set(g: Graph, seeds: Iterable[int]) -> bool:
    """Whether the seeds' closure monitors every vertex; builds no trace."""
    adj = g._adj
    start = closed_neighborhood(g, seeds)  # validates the seeds
    return len(_force(adj, bytearray(g.n), [len(a) for a in adj], start)) == g.n


def twin_lower_bound(g: Graph) -> tuple[VertexSet, ...]:
    """Open twin classes whose closed neighborhoods are pairwise disjoint.

    A power-dominating set meets the closed neighborhood of every open
    twin class (Lemma 2; each class is a fort), so the number of classes
    packed bounds gamma_p from below. The classes are packed greedily in
    class order; up to EXACT_CLASS_LIMIT classes a branch and bound over
    the class conflict graph then improves that packing to a largest one.
    """
    classes = twin_partition(g).open_classes
    k = len(classes)
    territories = [closed_neighborhood(g, c) for c in classes]
    best_mask = 0
    occupied: set[int] = set()
    for i in range(k):
        if not (territories[i] & occupied):
            best_mask |= 1 << i
            occupied |= territories[i]

    if k <= EXACT_CLASS_LIMIT:
        conflict = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if territories[i] & territories[j]:
                    conflict[i] |= 1 << j
                    conflict[j] |= 1 << i
        best_count = best_mask.bit_count()

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
    return tuple(classes[i] for i in range(k) if best_mask >> i & 1)


def greedy_power_dominating_set(g: Graph) -> VertexSet:
    """Deterministic heuristic PDS: one seed per open twin class, then
    maximum-closure-gain additions. It has no removal pass of its own;
    power_domination_bounds prunes it down to its lower bound."""
    adj = g._adj
    monitored = bytearray(g.n)
    unmon = [len(a) for a in adj]
    seeds = {min(c) for c in twin_partition(g).open_classes}
    reached = len(_force(adj, monitored, unmon, closed_neighborhood(g, seeds)))

    def gain(v: int) -> int:
        added = _force(adj, monitored, unmon, (v, *adj[v]))
        _unforce(adj, monitored, unmon, added)
        return len(added)

    while reached < g.n:
        # A candidate whose closed neighborhood is all monitored gains 0,
        # while an unmonitored vertex gains at least 1, so only the others
        # are scored; max keeps the first, so the smallest id, among equal
        # gains.
        candidates = (v for v in range(g.n) if (unmon[v] or not monitored[v]) and v not in seeds)
        best_v = max(candidates, key=gain)
        seeds.add(best_v)
        reached += len(_force(adj, monitored, unmon, (best_v, *adj[best_v])))
    return frozenset(seeds)


def power_domination_bounds(
    g: Graph,
    exact_limit: int = EXACT_LIMIT,
    hint: Iterable[int] | None = None,
) -> Bounds:
    """Best-known bounds on the power domination number, with certificate.

    Disconnected graphs are handled per component and summed. A connected
    graph up to exact_limit vertices gets the first power-dominating subset
    by size from 0 up, then in lexicographic order (tagged exact-oracle); a
    larger one gets the twin-class packing's lower bound and the hint when
    it power-dominates, else the greedy construction pruned no further than
    that bound. One predicate, keeps, asks all three questions.
    """
    hint_set = None if hint is None else g.check_vertex_set(hint)
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

    def keeps(s: Iterable[int]) -> bool:
        return is_power_dominating_set(g, s)

    if g.n <= exact_limit:
        best, examined = smallest_subset(g.n, 0, keeps)
        k = len(best)
        return Bounds(k, k, frozenset(best), "exact-oracle", "exact-oracle", examined)

    packing = twin_lower_bound(g)
    # Every vertex set monitors the empty graph; any other needs a vertex.
    lower = max(min(1, g.n), len(packing))
    lower_method = "lemma2-lower" if packing else "trivial-lower"
    if hint_set is not None and keeps(hint_set):
        return Bounds(lower, len(hint_set), hint_set, lower_method, "hint-certificate")
    cert = prune(greedy_power_dominating_set(g), keeps, lower)
    return Bounds(lower, len(cert), cert, lower_method, "greedy")


def trace_to_text(g: Graph, trace: PropagationTrace) -> str:
    """Line format: DOM lines in id order, then PROP y FROM x STEP t lines."""
    labels = g.labels
    dom = (f"DOM {labels[v]}" for v in trace.dominated)
    prop = (f"PROP {labels[p.vertex]} FROM {labels[p.source]} STEP {p.step}" for p in trace.propagated)
    return join_lines(chain(dom, prop))

