"""Generator for the fractal cubic network family FCN(d).

FCN(0) is the 4-cycle on labels 00, 01, 11, 10. FCN(d) consists of four
copies of FCN(d-1), prefixed by 11, 01, 10, and 00, joined by one 4-cycle
of cross edges on the special vertices prefix+"11"+0...0. Vertices are the
2d+2 bit strings; ids are assigned in lexicographic label order, so a
vertex's id equals the integer value of its bit string.

The construction here is iterative rather than recursive: the innermost
4-cycles are laid down for every 2d-bit prefix, then the cross 4-cycles
are added level by level, which keeps the edge census auditable
(m(d) = 4*m(d-1) + 4).
"""

from __future__ import annotations

from .core import Graph, GraphError, LimitExceeded, VertexSet, _freeze

MAX_DIMENSION = 8

# One 4-cycle on the two-bit patterns, as id offsets: 00-01-11-10-00.
# Cross cycles use the same cycle traversed as 00-10-11-01-00; the edge
# set is identical either way.
_CYCLE = ((0, 1), (1, 3), (3, 2), (2, 0))


def vertex_count(d: int) -> int:
    """How many vertices FCN(d) has: one per 2d+2 bit string, 4^(d+1)."""
    return 1 << (2 * d + 2)


def _check_dimension(d: int) -> None:
    if d < 0:
        raise GraphError(f"dimension must be nonnegative, got {d}")
    if d > MAX_DIMENSION:
        raise LimitExceeded(
            f"dimension {d} exceeds the cap of {MAX_DIMENSION} "
            f"(FCN({MAX_DIMENSION}) already has {vertex_count(MAX_DIMENSION)} vertices)"
        )


def fractal_cubic_network(d: int) -> Graph:
    """Build FCN(d) with vertices labeled by their 2d+2 bit strings."""
    _check_dimension(d)
    width = 2 * d + 2
    n = vertex_count(d)
    labels = tuple(format(v, f"0{width}b") for v in range(n))
    # Each edge's ends differ in one bit pair, which names its level, and
    # no cycle is laid down twice, so no edge repeats and plain lists
    # suffice. Appending ids[v] rather than v keeps one int object per id
    # however many lists hold it.
    ids = list(range(n))
    adj: list[list[int]] = [[] for _ in ids]

    def add_cycle(base: int, shift: int) -> None:
        # 4-cycle on base | (pattern << shift) over the two-bit patterns
        for a, b in _CYCLE:
            u = base | (a << shift)
            v = base | (b << shift)
            adj[u].append(ids[v])
            adj[v].append(ids[u])

    for prefix in range(n >> 2):
        add_cycle(prefix << 2, 0)
    for level in range(1, d + 1):
        # special suffix "11" followed by 2*level-2 zeros
        suffix = 0b11 << (2 * level - 2)
        for prefix in range(1 << (2 * (d - level))):
            add_cycle((prefix << (2 * level + 2)) | suffix, 2 * level)

    return Graph(labels, _freeze(adj))


def canonical_power_dominating_set(d: int) -> VertexSet:
    """The canonical minimum power-dominating seed set of FCN(d).

    For d >= 1 these are the 4^d vertices with suffix "01"; for d = 0 the
    singleton {00} (any single vertex power-dominates the 4-cycle).
    """
    _check_dimension(d)
    if d == 0:
        return frozenset({0})
    return frozenset(range(1, vertex_count(d), 4))
