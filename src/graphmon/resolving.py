"""Distance codes, resolving sets, and resolving power domination.

A set of landmarks resolves a connected graph when every vertex gets a
distinct vector of distances to the landmarks. Combining that with the
monitoring requirement from :mod:`graphmon.powerdom` gives resolving
power domination: one vertex set that both pins down locations and
monitors the whole graph.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import accumulate, combinations
from operator import add, eq, itemgetter, mul, or_
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

# The resolving check holds up to three arrays of n landmark masks (seen,
# arrivals, reached), each up to one bit per landmark. It refuses a graph
# whose masks could pass this many bytes: FCN(8) with its canonical
# 65,536 landmarks would need about 6 GiB.
MASK_MEMORY_LIMIT = 1 << 30

# The resolving check splits classes by each arrival mask's residue mod
# this prime. The mask itself would hash badly: Python hashes an int by
# its value mod 2**61 - 1, which gives the masks 1 << i only 61 values.
# 2 has order 500,000,003 mod this prime, so those masks never collide.
# Any collision only leaves a class unsplit, and the whole codes built at
# the end of the check settle what the classes left open.
_SPREAD = 1_000_000_007


def _require_connected(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise GraphError(f"{what} requires a connected graph, found {len(components(g))} components")


def _resolves(row: Callable[[int], Sequence[int]], marks: Iterable[int], n: int) -> bool:
    """Whether marks resolve all n vertices; row(l) is the BFS row of landmark l.
    The zipped rows are the codes; any set, the empty one too, resolves n <= 1."""
    return n <= 1 or len(set(zip(*map(row, marks)))) == n


def _twins_kept(part: TwinPartition) -> Callable[[Iterable[int]], bool]:
    """Whether a set leaves at most one vertex of each twin class out.

    Twins outside a landmark set share every distance code, so a set that
    fails this never resolves (the twin lemma); checked first, it spares
    the dearer checks. The set may be any iterable of ids.
    """
    classes = part.open_classes + part.closed_classes
    return lambda rest: all(len(c.difference(rest)) <= 1 for c in classes)


def _resolving_test(g: Graph) -> Callable[[Iterable[int]], bool]:
    """A test of whether a set resolves g: _twins_kept, then the zipped rows.
    Each is built when first needed, so a prune at its floor builds neither."""
    row = cache(lambda v: bfs_distances(g, v))
    twins_kept = cache(lambda: _twins_kept(twin_partition(g)))
    return lambda rest: twins_kept()(rest) and _resolves(row, rest, g.n)


def check_mask_memory(n: int, landmarks: int) -> None:
    """Raise LimitExceeded when a resolving check of this many landmarks on
    n vertices could hold more than MASK_MEMORY_LIMIT bytes of masks."""
    need = 3 * n * landmarks // 8
    if need > MASK_MEMORY_LIMIT:
        raise LimitExceeded(
            f"the resolving check of {landmarks} landmarks on {n} vertices needs about"
            f" {need >> 20} MiB of landmark masks, over the {MASK_MEMORY_LIMIT >> 20} MiB cap"
        )


def _collisions(g: Graph, landmarks: Iterable[int]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Every code that two or more vertices share, with its vertices in
    id order; empty when the landmarks resolve the graph.

    One breadth-first search runs from all landmarks at once, carrying at
    each vertex an int bitmask of the landmarks that reach it at the
    current level (multi-source BFS). After each level the vertex classes
    are split by (class, arrival mask), so vertices in different classes
    have different codes. The check stops as soon as every class is a
    singleton. Otherwise it runs until a level brings no arrivals, or
    until few vertices still share a class; only those get whole codes,
    from one plain BFS per such vertex or per landmark, whichever is
    fewer. Memory is O(n) masks; no distance rows are kept.
    """
    marks = sorted(g.check_vertex_set(landmarks))
    n = g.n
    check_mask_memory(n, len(marks))
    _require_connected(g, "distance coding")
    adj = g._adj
    cls = [0] * n
    size = [n]
    classes = min(n, 1)
    seen = [0] * n
    arrivals = {l: 1 << i for i, l in enumerate(marks)}
    for l, bit in arrivals.items():
        seen[l] = bit
    swept = 0  # vertices the levels so far have reached
    while classes < n and arrivals:
        splits: dict[tuple[int, int], int] = {}
        for v, mask in arrivals.items():
            old = cls[v]
            new = splits.setdefault((old, mask % _SPREAD), len(size))
            if new == len(size):
                size.append(0)
                classes += 1
            cls[v] = new
            size[new] += 1
            size[old] -= 1
            if not size[old]:
                classes -= 1
        # At most 2 * (n - classes) vertices still share a class, and plain
        # BFS gives their whole codes in n steps per vertex or landmark.
        # Once the levels so far have cost that much, finish that way.
        if classes == n or min(2 * (n - classes), len(marks)) * n <= swept:
            break
        reached: dict[int, int] = {}
        for u, mask in arrivals.items():
            for w in adj[u]:
                reached[w] = reached.get(w, 0) | mask
        swept += len(reached)
        arrivals = {}
        for w, mask in reached.items():
            mask &= ~seen[w]
            if mask:
                seen[w] |= mask
                arrivals[w] = mask
    if classes == n:
        return []
    shared = [v for v in range(n) if size[cls[v]] >= 2]
    if len(shared) < len(marks):
        rows = (bfs_distances(g, v) for v in shared)
        codes = [tuple(row[l] for l in marks) for row in rows]
    else:
        rows = (bfs_distances(g, l) for l in marks)
        # No landmarks zip to no codes; each shared vertex's code is then ().
        codes = list(zip(*([row[v] for v in shared] for row in rows))) or [()] * len(shared)
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, code in zip(shared, codes):
        groups.setdefault(code, []).append(v)
    return [(code, vs) for code, vs in groups.items() if len(vs) >= 2]


def is_resolving_set(g: Graph, landmarks: Iterable[int]) -> tuple[bool, tuple[int, int] | None]:
    """Whether the landmarks give every vertex a distinct code.

    Returns (True, None) or (False, witness) where the witness is the
    smallest colliding code's two smallest vertex ids.
    """
    clashes = _collisions(g, landmarks)
    if not clashes:
        return True, None
    _, vs = min(clashes)
    return False, (vs[0], vs[1])


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
    row = [bfs_distances(g, v) for v in range(n)].__getitem__
    basis, _ = smallest_subset(n, twin_resolving_lower_bound(g), lambda s: _resolves(row, s, n))
    return len(basis), basis


def _pairs_fit(size: int, n: int) -> bool:
    """Whether a class of this many vertices is kept as pair masks.

    Its C(size, 2) masks, n bytes each, then number at most n and at most
    8 * size, so they take no more bytes than the size distance rows, of
    n 8-byte entries each, that a larger class holds while it is counted
    per candidate.
    """
    return size * (size - 1) // 2 <= min(n, 8 * size)


def _row_masks(classes: Iterable[list[int]], row: Callable[[int], list[int]]) -> list[int]:
    """One int per pair {a, b} of each class, with byte w set where
    d(a, w) = d(b, w), from the members' distance rows."""
    return [
        int.from_bytes(bytes(map(eq, ra, rb)), "little")
        for cls in classes
        for ra, rb in combinations([row(u) for u in cls], 2)
    ]


# Turns a string of n bits into n bytes, 1 where the bit is 0.
_CLEAR_BITS = bytes.maketrans(b"01", b"\x01\x00")


def _sweep_masks(g: Graph, pairs: list[tuple[int, int]]) -> list[int]:
    """The pairs' masks as _row_masks gives them, from one breadth-first
    search from every vertex at once.

    ball[v] is an n-bit int of the vertices within the current level of
    v, and each level ORs the neighbours' balls into it. By symmetry, w
    is as far from a as from b exactly when w enters ball[a] and ball[b]
    at the same level, so the OR of every level's ball[a] ^ ball[b] has
    bit w set where d(a, w) != d(b, w); the mask has byte w set where it
    is clear. The levels stop when the balls of all ends hold all n
    vertices.
    """
    n = g.n
    adj = g._adj
    full = (1 << n) - 1
    ball = [1 << v for v in range(n)]
    ends = {v for pair in pairs for v in pair}
    diffs = [ball[a] ^ ball[b] for a, b in pairs]
    while any(ball[v] != full for v in ends):
        get = ball.__getitem__
        ball = [b if b == full else reduce(or_, map(get, nbrs), b) for nbrs, b in zip(adj, ball)]
        diffs = [d | ball[a] ^ ball[b] for d, (a, b) in zip(diffs, pairs)]
    # format puts bit n - 1 first, so "big" puts byte w at weight 256**w.
    return [int.from_bytes(format(d, f"0{n}b").encode().translate(_CLEAR_BITS), "big") for d in diffs]


def _first_masks(g: Graph, classes: list[list[int]], large: list[list[int]]) -> list[int]:
    """The pair masks of the add loop's first classes, whose members have
    no distance rows yet; large holds the classes too large for masks.

    One member a's row decides between the sweep and the members' rows
    before either runs. Every end e is within d(a, e) of a, and a within
    ecc(a) of every vertex, so every end's ball is full within ecc(a) +
    max d(a, e) levels. A level costs two to three BFS rows (measured
    1.9 to 2.7 on tree + chord graphs of 160 to 4,000 vertices, up to
    4.8 on long trees and grids), so the sweep runs only when that bound
    is at most half the members, and a sweep that starts finishes. Its
    balls must also fit in what the rows would hold at their peak before
    the first pick: the masks so far plus one class's rows, class by
    class, or all the masks plus the large classes' rows, which the
    first count builds (int and list headers, and the sweep's diffs, an
    eighth of the masks, left out). Otherwise the rows are built, one
    class at a time, and not kept; a's row is not built twice.
    """
    if not classes:
        return []
    a = classes[0][0]
    first = bfs_distances(g, a)
    ends = [v for cls in classes for v in cls]
    levels = max(first) + max(map(first.__getitem__, ends))
    sizes = list(map(len, classes))
    held = list(accumulate(s * (s - 1) // 2 for s in sizes))
    # In units of n bytes: a mask takes 1, a row 8, and the balls, n bits
    # per vertex in two sets during a level, n / 4.
    peak = max(*map(add, held, (8 * s for s in sizes)), held[-1] + 8 * sum(map(len, large)))
    if levels <= len(ends) // 2 and g.n <= 4 * peak:
        return _sweep_masks(g, [pair for cls in classes for pair in combinations(cls, 2)])
    return _row_masks(classes, lambda v: first if v == a else bfs_distances(g, v))


def _by_fit(classes: Iterable[list[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The classes kept as pair masks (_pairs_fit), and the rest."""
    fit: list[list[int]] = []
    large: list[list[int]] = []
    for cls in classes:
        (fit if _pairs_fit(len(cls), n) else large).append(cls)
    return fit, large


def _split(classes: Iterable[list[int]], dist: Callable[[int], int]) -> list[list[int]]:
    """The classes split by dist(v), keeping the parts that still pair up."""
    out = []
    for cls in classes:
        parts: dict[int, list[int]] = {}
        for v in cls:
            parts.setdefault(dist(v), []).append(v)
        out += (part for part in parts.values() if len(part) >= 2)
    return out


def _fewest_collisions(
    n: int, candidates: list[int], pairs: list[int], large: list[list[list[int]]]
) -> int:
    """The candidate that leaves the fewest pairs sharing a code, the
    smallest id among equals.

    Each of pairs has byte w set where candidate w leaves that pair
    colliding, and large holds the member rows of each class too large
    for pair masks.
    """
    counts = [0] * n
    # Each mask byte is 0 or 1, so a sum of 255 masks carries no byte
    # into the next one.
    for i in range(0, len(pairs), 255):
        counts = list(map(add, counts, sum(pairs[i : i + 255]).to_bytes(n, "little")))
    for members in large:
        for w in candidates:
            sizes = Counter(map(itemgetter(w), members)).values()
            # pairs sharing a distance: the sum of c * (c - 1) / 2
            counts[w] += (sum(map(mul, sizes, sizes)) - len(members)) >> 1
    # min keeps the first, so the smallest id, among equal counts
    return min(candidates, key=counts.__getitem__)


def greedy_resolving_set(g: Graph) -> VertexSet:
    """Deterministic heuristic resolving set.

    Seeds all but the largest member of every twin class (those picks
    are forced anyway), then repeatedly adds the vertex separating the
    most still-colliding pairs; metric_dimension_bounds prunes it.

    The resolving check's collision classes under the seeds are where
    the add loop starts; when the seeds resolve (FCN among others) there
    are none, and no distance row is built. A pair {a, b} of a small
    class becomes one int with byte w set where d(a, w) = d(b, w), so
    summing these ints counts every candidate's colliding pairs at once,
    and a pick w keeps the ints whose byte w is set. The first classes'
    ints come from one sweep from every vertex at once, or from their
    members' rows where one member's row shows the sweep would cost
    more (_first_masks).
    Larger classes keep their members' distance rows, since by symmetry
    row a holds d(a, w) for every candidate w, and are counted per
    candidate until picks split them; the parts that split off get their
    ints from those rows.
    """
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

    fit, large = _by_fit((vs for _, vs in _collisions(g, chosen)), n)
    pairs = _first_masks(g, fit, large)
    while pairs or large:
        candidates = [v for v in range(n) if v not in chosen]
        w = _fewest_collisions(n, candidates, pairs, [[row(u) for u in cls] for cls in large])
        chosen.add(w)
        byte = 1 << 8 * w
        pairs = [m for m in pairs if m & byte]
        fit, large = _by_fit(_split(large, lambda u: rows[u][w]), n)
        # The masks replace these rows, so pop them.
        pairs += _row_masks(fit, rows.pop)
    return frozenset(chosen)


def metric_dimension_bounds(
    g: Graph, exact_limit: int = EXACT_LIMIT, hint: Iterable[int] | None = None
) -> Bounds:
    """Exact value when the graph is small enough; otherwise the twin lower
    bound and a verified upper certificate: the hint when it resolves, else
    the greedy construction pruned down to that bound. It is the basis."""
    _require_connected(g, "metric dimension")
    hint_set = None if hint is None else g.check_vertex_set(hint)
    if g.n <= exact_limit:
        value, basis = metric_dimension(g, limit=exact_limit)
        return Bounds(value, value, frozenset(basis), "exact-search", "exact-search")
    twin_lb = twin_resolving_lower_bound(g)
    # The empty set resolves a graph of at most one vertex; any larger one needs a landmark.
    lower = max(min(1, g.n - 1), twin_lb)
    method = "twin-lower" if twin_lb >= 1 else "trivial-lower"
    if hint_set is not None and is_resolving_set(g, hint_set)[0]:
        return Bounds(lower, len(hint_set), hint_set, method, "hint-certificate")
    basis = prune(greedy_resolving_set(g), _resolving_test(g), lower)
    return Bounds(lower, len(basis), basis, method, "greedy")


def is_resolving_power_dominating(g: Graph, seeds: Iterable[int]) -> bool:
    """Whether the set both resolves and power-dominates g. The resolving check
    comes first: it validates the ids and refuses a disconnected graph."""
    members = frozenset(seeds)
    return is_resolving_set(g, members)[0] and is_power_dominating_set(g, members)


def resolving_power_domination_bounds(
    g: Graph,
    power: Bounds,
    resolving: Bounds,
    exact_limit: int = ETA_P_EXACT_LIMIT,
) -> Bounds:
    """Best-known bounds on the resolving power domination number.

    power and resolving are what power_domination_bounds and
    metric_dimension_bounds return for this graph and hint. A resolving
    power dominating set is both, so the larger of their lower bounds is
    the lower bound here. One test, keeps (the twin lemma, the zipped
    rows, then monitoring), takes a small graph's first subset by size
    upward from that bound, and prunes a larger graph's union of the two
    certificates, a shared hint included, no further than the bound.
    """
    _require_connected(g, "resolving power domination")
    lower = max(power.lower, resolving.lower)
    resolves = _resolving_test(g)

    def keeps(s: Iterable[int]) -> bool:
        return resolves(s) and is_power_dominating_set(g, s)

    if g.n <= exact_limit:
        best, examined = smallest_subset(g.n, lower, keeps)
        k = len(best)
        return Bounds(k, k, frozenset(best), "exact-search", "exact-search", examined)

    cert = prune(resolving.certificate | power.certificate, keeps, lower)
    return Bounds(lower, len(cert), cert, "sandwich-lower", "greedy-union")


# The library check for each kind of certificate, keyed by report section.
# Each entry looks its check up by name at call time, so a wrapper later
# installed on the module attribute sees every call.
CERTIFICATE_CHECKS: dict[str, Callable[[Graph, Iterable[int]], bool]] = {
    "gamma_p": lambda g, ids: is_power_dominating_set(g, ids),
    "dim": lambda g, ids: is_resolving_set(g, ids)[0],
    "eta_p": lambda g, ids: is_resolving_power_dominating(g, ids),
}
