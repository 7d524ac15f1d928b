"""Immutable simple-graph representation, the distance queries built on it,
and the bounds type, subset search and removal pass shared by the
invariant modules."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

VertexSet = frozenset[int]

# One tuple of neighbour ids per vertex, each in ascending order.
Adjacency = tuple[tuple[int, ...], ...]

UNREACHABLE = -1

# Vertex cap for every exhaustive search unless a caller passes its own.
EXACT_LIMIT = 24


class GraphError(ValueError):
    """Invalid graph construction input or an operation's precondition failed."""


class LimitExceeded(RuntimeError):
    """A configured size cap (dimension, exact-search limit) was exceeded."""


class Graph:
    """Undirected simple graph with dense integer vertex ids.

    Ids run 0..n-1 in label insertion order; labels are distinct and only
    appear at I/O boundaries. Each neighbourhood is stored as a tuple of
    ids in ascending order, so neighbours are visited in id order and
    instances are safe to share across workers once built. The label
    index is built on the first index() call unless a builder hands over
    the one it already has.
    """

    __slots__ = ("_labels", "_adj", "_index", "_m")

    def __init__(self, labels: tuple[str, ...], adj: Adjacency):
        self._labels = labels
        self._adj = adj
        self._index: dict[str, int] | None = None
        self._m = sum(map(len, adj)) // 2

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def m(self) -> int:
        return self._m

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def neighbors(self, v: int) -> frozenset[int]:
        self.check_vertex(v)
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def index(self, label: str) -> int:
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self._labels)}
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.n:
            raise GraphError(f"vertex id {v!r} out of range for graph with {self.n} vertices")

    def check_vertex_set(self, s: Iterable[int]) -> VertexSet:
        members = frozenset(s)
        for v in members:
            self.check_vertex(v)
        return members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._labels, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> Graph:
    """Build a simple undirected graph from distinct labels and label pairs.

    Duplicate edges collapse silently; duplicate labels, unknown endpoints,
    and self-loops are rejected with the offending item named.
    """
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
    g = Graph(tuple(index), _freeze(adj))
    g._index = index
    return g


def _freeze(adj: list) -> Adjacency:
    """Replace each neighbour collection in place by a sorted tuple and
    return them as a tuple.

    Each collection is freed as soon as its tuple exists, so a large
    graph never holds both copies and the garbage collector's allocation
    count does not climb by n.
    """
    for v, s in enumerate(adj):
        adj[v] = tuple(sorted(s))
    return tuple(adj)


def closed_neighborhood(g: Graph, s: Iterable[int]) -> VertexSet:
    """S together with every neighbor of a member of S."""
    members = g.check_vertex_set(s)
    out = set(members)
    for v in members:
        out.update(g._adj[v])
    return frozenset(out)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from source to every vertex; UNREACHABLE where no path."""
    g.check_vertex(source)
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g._adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted id lists, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in g._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def _farthest(dist: list[int]) -> int:
    """Smallest id among the vertices farthest from the BFS source."""
    return dist.index(max(dist))


def diameter(g: Graph) -> int | None:
    """Longest shortest path; None when the graph is disconnected.

    Exact, by iFUB (Crescenzi et al., "On computing the diameter of
    real-world undirected graphs", TCS 514, 2013). A double sweep gives a
    lower bound and the midpoint u of a long shortest path. Eccentricities
    are then taken level by level from the BFS tree of u, farthest level
    first. Any two vertices at levels <= i are within 2i of each other
    through u, so once the bound reaches 2i the rest cannot beat it.
    """
    if g.n == 0:
        return 0
    from_first = bfs_distances(g, 0)
    if UNREACHABLE in from_first:
        return None
    a = _farthest(from_first)
    from_a = bfs_distances(g, a)
    b = _farthest(from_a)
    lower = from_a[b]
    # Walk back from b along a shortest path to its midpoint.
    u = b
    while from_a[u] > lower // 2:
        u = min(w for w in g._adj[u] if from_a[w] == from_a[u] - 1)
    from_u = bfs_distances(g, u)
    ecc_u = max(from_u)
    lower = max(lower, ecc_u, max(from_first))
    levels: list[list[int]] = [[] for _ in range(ecc_u + 1)]
    for v, d in enumerate(from_u):
        levels[d].append(v)
    for i in range(ecc_u, 0, -1):
        if lower >= 2 * i:
            break
        for v in levels[i]:
            lower = max(lower, max(bfs_distances(g, v)))
    return lower


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph on the given vertices plus the new-id -> old-id mapping."""
    old_ids = sorted(g.check_vertex_set(vertices))
    rank = {old: new for new, old in enumerate(old_ids)}
    labels = tuple(g.labels[v] for v in old_ids)
    # rank keeps the id order, so each neighbourhood stays ascending.
    adj = tuple(tuple(rank[u] for u in g._adj[v] if u in rank) for v in old_ids)
    return Graph(labels, adj), old_ids


@dataclass(frozen=True)
class Bounds:
    """Lower and upper bound on one invariant, with the upper certificate.

    The method tags say where each number came from; an exhaustive search
    also counts the candidate subsets it examined.
    """

    lower: int
    upper: int
    certificate: VertexSet
    lower_method: str
    upper_method: str
    subsets_examined: int | None = None


def prune(kept: Iterable[int], keeps: Callable[[VertexSet], bool], floor: int) -> VertexSet:
    """Drop members in id order while keeps accepts what is left, never
    going below floor members; with floor a proven lower bound, keeps
    would refuse every smaller set anyway, so it is not asked."""
    rest = frozenset(kept)
    for v in sorted(rest):
        if len(rest) > floor and keeps(rest - {v}):
            rest -= {v}
    return rest


def smallest_subset(
    n: int, start: int, accept: Callable[[tuple[int, ...]], bool]
) -> tuple[tuple[int, ...], int]:
    """First subset of range(n) that accept takes, by size from start up and
    then in lexicographic order, with the number of subsets examined."""
    examined = 0
    for k in range(start, n + 1):
        for subset in combinations(range(n), k):
            examined += 1
            if accept(subset):
                return subset, examined
    raise AssertionError("the full vertex set always qualifies")
