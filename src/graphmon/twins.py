"""Detection of open/closed twin vertices and maximal twin classes."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, GraphError, VertexSet


@dataclass(frozen=True)
class TwinPartition:
    """Maximal twin classes of size >= 2, each sorted by smallest member."""

    open_classes: tuple[VertexSet, ...]
    closed_classes: tuple[VertexSet, ...]


def _group_by_neighborhood(keys: list[frozenset[int]]) -> tuple[VertexSet, ...]:
    buckets: dict[frozenset[int], list[int]] = {}
    for v, key in enumerate(keys):
        buckets.setdefault(key, []).append(v)
    classes = [frozenset(vs) for vs in buckets.values() if len(vs) >= 2]
    classes.sort(key=min)
    return tuple(classes)


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices by exact open- and closed-neighborhood equality.

    Grouping hashes the neighborhood sets and dict equality confirms them
    exactly within a bucket. Singleton classes are omitted.
    """
    open_classes = _group_by_neighborhood([g.neighbors(v) for v in range(g.n)])
    closed_classes = _group_by_neighborhood([g.neighbors(v) | {v} for v in range(g.n)])
    # The two kinds of class are disjoint. Open twins are non-adjacent and
    # closed twins are adjacent. If v had an open twin u and a closed twin w,
    # then w in N(v) = N(u) would put u in N[w] = N[v], so u would be
    # adjacent to v.
    return TwinPartition(open_classes, closed_classes)


def are_open_twins(g: Graph, u: int, v: int) -> bool:
    """True iff u and v have identical open neighborhoods."""
    if u == v:
        raise GraphError(f"twin check requires two distinct vertices, got {u} twice")
    return g.neighbors(u) == g.neighbors(v)


def are_closed_twins(g: Graph, u: int, v: int) -> bool:
    """True iff u and v have identical closed neighborhoods."""
    if u == v:
        raise GraphError(f"twin check requires two distinct vertices, got {u} twice")
    return (g.neighbors(u) | {u}) == (g.neighbors(v) | {v})


def twin_report(g: Graph, partition: TwinPartition | None = None) -> dict:
    """Twin classes as label arrays, keyed "open" and "closed"."""
    tp = partition if partition is not None else twin_partition(g)
    as_labels = lambda classes: [[g.labels[v] for v in sorted(c)] for c in classes]
    return {"open": as_labels(tp.open_classes), "closed": as_labels(tp.closed_classes)}
