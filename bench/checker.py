"""Independent checker for the benchmark's outputs.

Nothing here calls graphmon. Graphs arrive as label lists and label
pairs (the generator's own data), so a fault in graphmon's parser,
closure, BFS, twin grouping or exhaustive search cannot hide in the
check. networkx supplies diameters and degree histograms.

Every ``check_*`` function returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import networkx as nx


class Graph:
    """Adjacency lists over ids assigned in label order (graphmon assigns
    ids the same way, so trace order by id can be checked)."""

    def __init__(self, labels: list[str], edges: list[tuple[str, str]]):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        adj: list[set[int]] = [set() for _ in self.labels]
        for a, b in edges:
            u, v = self.index[a], self.index[b]
            adj[u].add(v)
            adj[v].add(u)
        self.adj = adj
        self.n = len(adj)
        self.m = sum(len(s) for s in adj) // 2

    def ids(self, labels: list[str]) -> list[int]:
        return [self.index[lab] for lab in labels]

    def nx(self) -> nx.Graph:
        h = nx.Graph()
        h.add_nodes_from(range(self.n))
        h.add_edges_from((u, v) for u in range(self.n) for v in self.adj[u] if u < v)
        return h


def bfs(g: Graph, s: int) -> list[int]:
    dist = [-1] * g.n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def closure(g: Graph, seeds) -> set[int]:
    """Worklist form of the monitoring rule: domination, then any
    monitored vertex with one unmonitored neighbour forces it."""
    mon = set()
    for s in seeds:
        mon.add(s)
        mon |= g.adj[s]
    unmon = {v: sum(1 for u in g.adj[v] if u not in mon) for v in mon}
    work = [v for v in mon if unmon[v] == 1]
    while work:
        x = work.pop()
        if unmon.get(x) != 1:
            continue
        (y,) = [u for u in g.adj[x] if u not in mon]
        mon.add(y)
        unmon[y] = sum(1 for u in g.adj[y] if u not in mon)
        if unmon[y] == 1:
            work.append(y)
        for z in g.adj[y]:
            if z in mon:
                unmon[z] -= 1
                if unmon[z] == 1:
                    work.append(z)
    return mon


def monitors(g: Graph, seeds) -> bool:
    return len(closure(g, seeds)) == g.n


def resolves(g: Graph, landmarks) -> bool:
    """Distinct distance codes, by refining classes one landmark at a time."""
    classes = [0] * g.n
    for w in landmarks:
        d = bfs(g, w)
        keys: dict[tuple[int, int], int] = {}
        classes = [keys.setdefault((classes[v], d[v]), len(keys)) for v in range(g.n)]
    return len(set(classes)) == g.n


def twin_classes(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Open and closed twin classes of size >= 2, each sorted."""

    def group(key) -> list[list[int]]:
        buckets: dict[frozenset[int], list[int]] = {}
        for v in range(g.n):
            buckets.setdefault(key(v), []).append(v)
        return sorted(vs for vs in buckets.values() if len(vs) > 1)

    return group(lambda v: frozenset(g.adj[v])), group(lambda v: frozenset(g.adj[v] | {v}))


def separators(g: Graph) -> list[int]:
    """Per vertex pair, the bitmask of landmarks that tell the pair apart."""
    rows = [bfs(g, w) for w in range(g.n)]
    return [
        sum(1 << w for w in range(g.n) if rows[w][u] != rows[w][v])
        for u, v in combinations(range(g.n), 2)
    ]


def hitting_set_exists(seps: list[int], budget: int, chosen: int = 0, banned: int = 0) -> bool:
    """Whether at most `budget` more landmarks can meet every separator mask."""
    open_ = [s & ~banned for s in seps if not s & chosen]
    if not open_:
        return True
    if budget == 0:
        return False
    tightest = min(open_, key=int.bit_count)
    while tightest:
        low = tightest & -tightest
        if hitting_set_exists(seps, budget - 1, chosen | low, banned):
            return True
        banned |= low
        tightest &= ~low
    return False


def min_resolving_size(g: Graph, seps: list[int]) -> int:
    k = 0
    while not hitting_set_exists(seps, k):
        k += 1
    return k


def lex_first_resolving(g: Graph, seps: list[int], k: int) -> tuple[int, ...]:
    """Lexicographically first k-subset that resolves, for k = dim."""
    chosen: list[int] = []
    mask = banned = 0
    for v in range(g.n):
        if len(chosen) == k:
            break
        if hitting_set_exists(seps, k - len(chosen) - 1, mask | 1 << v, banned | ((1 << v) - 1) & ~mask):
            chosen.append(v)
            mask |= 1 << v
        banned |= 1 << v
    return tuple(chosen)


def min_pds_size(g: Graph) -> int:
    for k in range(1, g.n + 1):
        if any(monitors(g, s) for s in combinations(range(g.n), k)):
            return k
    return g.n


def min_resolving_pds_size(g: Graph, seps: list[int], start: int) -> int:
    """Smallest set that resolves and monitors, searched upward from
    `start` (which must not exceed the optimum)."""
    for k in range(start, g.n + 1):
        for s in combinations(range(g.n), k):
            mask = sum(1 << v for v in s)
            if all(sep & mask for sep in seps) and monitors(g, s):
                return k
    return g.n


# ----------------------------------------------------------------- reports


def _section_ids(g: Graph, report: dict, key: str, field: str, problems: list[str]) -> list[int] | None:
    section = report[key]
    try:
        ids = g.ids(section[field])
    except KeyError as exc:
        problems.append(f"{key}: unknown label {exc}")
        return None
    if len(set(ids)) != section["upper"]:
        problems.append(f"{key}: certificate size {len(set(ids))} != upper {section['upper']}")
    if section["lower"] > section["upper"]:
        problems.append(f"{key}: lower {section['lower']} > upper {section['upper']}")
    return ids


def check_certificates(g: Graph, report: dict) -> list[str]:
    """Each upper certificate monitors, resolves, or both, as its section requires."""
    problems: list[str] = []
    seen: dict[tuple[frozenset[int], str], bool] = {}

    def holds(ids: list[int], what: str) -> bool:
        key = (frozenset(ids), what)
        if key not in seen:
            seen[key] = monitors(g, ids) if what == "monitors" else resolves(g, ids)
        return seen[key]

    for key, field, needs in (
        ("gamma_p", "certificate", ("monitors",)),
        ("dim", "basis", ("resolves",)),
        ("eta_p", "certificate", ("monitors", "resolves")),
    ):
        if key not in report:
            continue
        ids = _section_ids(g, report, key, field, problems)
        if ids is None:
            continue
        for what in needs:
            if not holds(ids, what):
                problems.append(f"{key}: certificate does not satisfy '{what}'")
    return problems


def check_summary(g: Graph, report: dict, diameter: int | None = None) -> list[str]:
    """n, m, degree histogram, diameter (networkx) and twin census."""
    problems: list[str] = []
    summary = report["graph_summary"]
    h = g.nx()
    hist: dict[int, int] = {}
    for _, deg in h.degree():
        hist[deg] = hist.get(deg, 0) + 1
    want_diam = nx.diameter(h, usebounds=True) if diameter is None else diameter
    got = {
        "n": summary["n"],
        "m": summary["m"],
        "degree_histogram": {int(k): v for k, v in summary["degree_histogram"].items()},
        "diameter": summary["diameter"],
    }
    want = {"n": g.n, "m": g.m, "degree_histogram": hist, "diameter": want_diam}
    for k in want:
        if got[k] != want[k]:
            problems.append(f"graph_summary.{k} is {got[k]!r}, expected {want[k]!r}")
    if "twin_census" in report:
        opens, closeds = twin_classes(g)
        for kind, classes in (("open", opens), ("closed", closeds)):
            labelled = sorted(sorted(g.labels[v] for v in c) for c in classes)
            if sorted(sorted(c) for c in report["twin_census"][kind]) != labelled:
                problems.append(f"twin_census.{kind} differs from the independent grouping")
    return problems


def twin_landmark_bound(g: Graph) -> int:
    opens, closeds = twin_classes(g)
    return sum(len(c) - 1 for c in opens + closeds)


def check_fcn_family(graphs: dict[int, Graph]) -> list[str]:
    """n = 4^(d+1), m(d) = 4 m(d-1) + 4 from m(0) = 4, diameter
    2^(d+2) - 2 (networkx), and for d >= 1 4^d open twin pairs and no
    closed twins."""
    problems: list[str] = []
    for d, g in sorted(graphs.items()):
        want_m = 4 if d == 0 else 4 * graphs[d - 1].m + 4
        if g.n != 4 ** (d + 1) or g.m != want_m:
            problems.append(f"FCN({d}): n={g.n} m={g.m}, expected {4 ** (d + 1)} and {want_m}")
        diam = nx.diameter(g.nx(), usebounds=True)
        if diam != 2 ** (d + 2) - 2:
            problems.append(f"FCN({d}): networkx diameter {diam} != {2 ** (d + 2) - 2}")
        opens, closeds = twin_classes(g)
        pairs = len(opens) == 4**d and all(len(c) == 2 for c in opens)
        if d >= 1 and (not pairs or closeds):
            problems.append(f"FCN({d}): {len(opens)} open / {len(closeds)} closed twin classes")
    return problems


def check_fcn_report(d: int, g: Graph, report: dict) -> list[str]:
    problems = check_summary(g, report, diameter=2 ** (d + 2) - 2)
    problems += check_certificates(g, report)
    twins = report.get("twin_census", {})
    if twins.get("open_count") != 4**d or twins.get("closed_count") != 0:
        problems.append(f"FCN({d}): twin counts {twins.get('open_count')}/{twins.get('closed_count')}")
    for key in ("gamma_p", "dim", "eta_p"):
        if key in report and not report[key]["lower"] == report[key]["upper"] == 4**d:
            problems.append(f"FCN({d}) {key}: {report[key]['lower']}..{report[key]['upper']} != 4^{d}")
    return problems


def check_sparse_report(g: Graph, report: dict) -> list[str]:
    problems = check_summary(g, report) + check_certificates(g, report)
    dim = report["dim"]
    if dim["lower_method"] == "twin-lower" and dim["lower"] != twin_landmark_bound(g):
        problems.append(f"dim: twin-lower {dim['lower']} != {twin_landmark_bound(g)}")
    return problems


def check_exact_report(g: Graph, report: dict) -> list[str]:
    """Exact values against the independent searches, plus the sandwich
    max(dim, gamma_p) <= eta_p <= dim + gamma_p."""
    problems = check_summary(g, report) + check_certificates(g, report)
    seps = separators(g)
    gp, dim = min_pds_size(g), min_resolving_size(g, seps)
    eta = min_resolving_pds_size(g, seps, max(gp, dim)) if g.n <= 16 else None
    for key, want in (("gamma_p", gp), ("dim", dim), ("eta_p", eta)):
        section = report[key]
        if want is None:
            if not section["lower"] <= dim + gp or section["upper"] < max(dim, gp):
                problems.append(f"eta_p bounds {section['lower']}..{section['upper']} break the sandwich")
        elif not section["lower"] == section["upper"] == want:
            problems.append(f"{key}: reported {section['lower']}..{section['upper']}, optimum {want}")
    if eta is not None and not max(dim, gp) <= eta <= dim + gp:
        problems.append(f"sandwich fails: dim={dim} gamma_p={gp} eta_p={eta}")
    return problems


# ----------------------------------------------------------------- traces


def check_trace(g: Graph, seeds: list[int], text: str) -> list[str]:
    """Replay a DOM/PROP trace in synchronous rounds: DOM lists the closed
    neighbourhood in id order; in round t every forcer was monitored with
    exactly one unmonitored neighbour after round t-1, each round forces
    every vertex that can be forced, in ascending id with the smallest
    forcer; the last round leaves the independent closure."""
    problems: list[str] = []
    dom: list[int] = []
    rounds: list[list[tuple[int, int]]] = []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "DOM" and len(parts) == 2 and not rounds:
            dom.append(g.index[parts[1]])
        elif parts[0] == "PROP" and len(parts) == 6 and parts[2] == "FROM" and parts[4] == "STEP":
            step = int(parts[5])
            if step == len(rounds) + 1:
                rounds.append([])
            elif step != len(rounds):
                return [f"trace: step {step} out of order"]
            rounds[-1].append((g.index[parts[1]], g.index[parts[3]]))
        else:
            return [f"trace: bad line {line!r}"]
    mon = set(seeds)
    for s in seeds:
        mon |= g.adj[s]
    if dom != sorted(mon):
        problems.append("trace: DOM lines are not the seeds' closed neighbourhood in id order")
    unmon = {v: sum(1 for u in g.adj[v] if u not in mon) for v in mon}
    # Only a vertex touched in the previous round can have exactly one
    # unmonitored neighbour now: otherwise it would have forced it already.
    touched = set(mon)
    for t, events in enumerate(rounds + [[]], start=1):
        due: dict[int, int] = {}
        for x in sorted(touched):
            if unmon[x] == 1:
                (y,) = [u for u in g.adj[x] if u not in mon]
                due.setdefault(y, x)
        if events != sorted(due.items()):
            problems.append(f"trace: round {t} does not match a synchronous replay")
            break
        touched = set(due)
        for y in due:
            mon.add(y)
        for y in due:
            unmon[y] = sum(1 for u in g.adj[y] if u not in mon)
            for z in g.adj[y]:
                if z in mon and z not in due:
                    unmon[z] -= 1
                    touched.add(z)
    if not problems and mon != closure(g, seeds):
        problems.append("trace: final set differs from the independent closure")
    return problems

