"""Detection of open/closed twin vertices and maximal twin classes."""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Adjacency, Graph, VertexSet


@dataclass(frozen=True)
class TwinPartition:
    """Maximal twin classes of size >= 2, each sorted by smallest member."""

    open_classes: tuple[VertexSet, ...]
    closed_classes: tuple[VertexSet, ...]


def _group_by_neighborhood(keys: Iterable[tuple[int, ...]]) -> tuple[VertexSet, ...]:
    buckets: dict[tuple[int, ...], list[int]] = {}
    for v, key in enumerate(keys):
        buckets.setdefault(key, []).append(v)
    classes = [frozenset(vs) for vs in buckets.values() if len(vs) >= 2]
    classes.sort(key=min)
    return tuple(classes)


def _closed_keys(adj: Adjacency) -> Iterator[tuple[int, ...]]:
    for v, nbrs in enumerate(adj):
        i = bisect(nbrs, v)
        yield nbrs[:i] + (v,) + nbrs[i:]


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices by exact open- and closed-neighborhood equality.

    Grouping hashes the sorted neighbourhood tuples, v inserted in place
    for the closed ones, and dict equality confirms them exactly within a
    bucket. Singleton classes are omitted.
    """
    adj = g._adj
    open_classes = _group_by_neighborhood(adj)
    closed_classes = _group_by_neighborhood(_closed_keys(adj))
    # The two kinds of class are disjoint. Open twins are non-adjacent and
    # closed twins are adjacent. If v had an open twin u and a closed twin w,
    # then w in N(v) = N(u) would put u in N[w] = N[v], so u would be
    # adjacent to v.
    return TwinPartition(open_classes, closed_classes)


def twin_report(g: Graph) -> dict:
    """Twin classes as label arrays, keyed "open" and "closed"."""
    tp = twin_partition(g)
    as_labels = lambda classes: [[g.labels[v] for v in sorted(c)] for c in classes]
    return {"open": as_labels(tp.open_classes), "closed": as_labels(tp.closed_classes)}
