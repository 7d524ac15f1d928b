"""Generator for the fractal cubic network family FCN(d).

FCN(0) is the 4-cycle on labels 00, 01, 11, 10. FCN(d) consists of four
copies of FCN(d-1), prefixed by 11, 01, 10, and 00, joined by one 4-cycle
of cross edges on the special vertices prefix+"11"+0...0. Vertices are the
2d+2 bit strings; ids are assigned in lexicographic label order, so a
vertex's id equals the integer value of its bit string.

Unrolling the recursion gives each vertex's neighbours in closed form.
Every vertex v lies on the inner 4-cycle 00-01-11-10 of its last bit
pair, so v ^ 1 and v ^ 2 are neighbours. A vertex whose low 2L bits are
"11" followed by 2L-2 zeros, for a level 1 <= L <= d, also lies on that
level's cross 4-cycle, so v ^ (1 << 2L) and v ^ (2 << 2L) are
neighbours too. No vertex is special at two levels, so degrees are 2 and
4. The 4^(d+1) vertices give 4^d inner cycles and the special vertices
4^(d-L) cross cycles at level L. Dropping the top bit pair maps the
cycles below level d onto those of FCN(d-1), once in each of the four
copies, and level d adds the one cross cycle that joins the copies, so
m(d) = 4*m(d-1) + 4. Vertices that share their neighbour pattern are
evenly spaced, so each pattern's neighbourhoods are built at once from
strided slices of the id list.
"""

from __future__ import annotations

from .core import Graph, GraphError, LimitExceeded, VertexSet

MAX_DIMENSION = 8


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


def _lay(adj: list, ids: list[int], start: int, stride: int, flips: tuple[int, ...]) -> None:
    """Give the vertices start, start + stride, ... their neighbours v ^ f
    for f in flips, as ascending tuples of the shared ids.

    The bits that the flips touch are the same in all of these vertices,
    so each neighbour lies at one fixed offset from them.
    """
    offsets = sorted((start ^ f) - start for f in flips)
    adj[start::stride] = zip(*(ids[start + o :: stride] for o in offsets))


def fractal_cubic_network(d: int) -> Graph:
    """Build FCN(d) with vertices labeled by their 2d+2 bit strings."""
    _check_dimension(d)
    width = 2 * d + 2
    n = vertex_count(d)
    # Each label is a high half and a low half, so format runs once per
    # half rather than once per vertex.
    low = width // 2
    highs = [format(h, f"0{width - low}b") for h in range(1 << (width - low))]
    lows = [format(v, f"0{low}b") for v in range(1 << low)]
    labels = tuple(h + l for h in highs for l in lows)
    # Tuples of ids[v] rather than v keep one int object per id however
    # many neighbourhoods hold it.
    ids = list(range(n))
    adj: list = [()] * n
    # Opposite corners of an inner cycle have the same two neighbours, so
    # they share one tuple. Level 1, where d >= 1, gives every corner 11
    # its four neighbours instead.
    adj[0::4] = adj[3::4] = list(zip(ids[1::4], ids[2::4]))
    adj[1::4] = adj[2::4] = list(zip(ids[0::4], ids[3::4]))
    for level in range(1, d + 1):
        step = 1 << (2 * level)
        special = 0b11 << (2 * level - 2)
        for pair in range(4):
            _lay(adj, ids, (pair * step) | special, 4 * step, (1, 2, step, 2 * step))
    return Graph(labels, tuple(adj))


def canonical_power_dominating_set(d: int) -> VertexSet:
    """The canonical minimum power-dominating seed set of FCN(d).

    For d >= 1 these are the 4^d vertices with suffix "01"; for d = 0 the
    singleton {00} (any single vertex power-dominates the 4-cycle).
    """
    _check_dimension(d)
    if d == 0:
        return frozenset({0})
    return frozenset(range(1, vertex_count(d), 4))
