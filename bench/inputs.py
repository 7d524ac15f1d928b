"""Seeded input generators for the benchmark workloads.

Everything here is plain Python with no graphmon import, so the inputs
do not depend on the code under test (or on the test suite's helpers).
A graph is a ``Spec``: labels in file order, edges as label pairs, and
the seed sets a monitor operation starts from. ``write_edgelist`` and
``write_json`` emit the two file formats graphmon reads.

The same ``(workload, seed)`` always yields the same specs: every
random choice comes from ``random.Random`` seeded with a string, which
Python hashes deterministically.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import checker


@dataclass
class Spec:
    name: str
    labels: list[str]
    edges: list[tuple[str, str]]
    seed_sets: list[list[str]] = field(default_factory=list)


def rng_for(workload: str, seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in (workload, seed) + parts))


def _shuffled(rng: random.Random, labels: list[str]) -> list[str]:
    """The labels in a seeded order: files list vertices this way, so
    graphmon's vertex ids do not follow the construction order."""
    order = labels[:]
    rng.shuffle(order)
    return order


def tree_plus_chords(rng: random.Random, n: int, chords: int, name: str) -> Spec:
    """Random recursive tree on n vertices plus `chords` distinct non-tree edges."""
    labels = [f"v{i}" for i in range(n)]
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + chords:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    order = _shuffled(rng, labels)
    pairs = [(labels[a], labels[b]) for a, b in sorted(edges)]
    rng.shuffle(pairs)
    return Spec(name, order, pairs)


def planted_twins(rng: random.Random, n: int, twins: int, extra: int, name: str) -> Spec:
    """Connected graph on n vertices: a random tree on n - twins vertices
    with `extra` chords, then `twins` vertices each copying the open
    (or, at random, the closed) neighbourhood of an existing vertex."""
    base = n - twins
    adj: list[set[int]] = [set() for _ in range(n)]

    def link(a: int, b: int) -> None:
        adj[a].add(b)
        adj[b].add(a)

    for i in range(1, base):
        link(rng.randrange(i), i)
    added = 0
    while added < extra:
        a, b = rng.sample(range(base), 2)
        if b not in adj[a]:
            link(a, b)
            added += 1
    for t in range(base, n):
        v = rng.randrange(t)
        for u in list(adj[v]):
            link(t, u)
        if rng.random() < 0.5:
            link(t, v)
    labels = [f"x{i}" for i in range(n)]
    order = _shuffled(rng, labels)
    pairs = [(labels[a], labels[b]) for a in range(n) for b in sorted(adj[a]) if a < b]
    return Spec(name, order, pairs)


def exhaustive_work(spec: Spec) -> int:
    """Distance-code tuples a lexicographic subset search for the metric
    dimension builds when it starts at the twin lower bound: every
    subset of the sizes below the optimum, then the optimum's size up to
    the first resolving subset, times subset size and vertex count.
    Computed with the checker's own search, so no graphmon call."""
    g = checker.Graph(spec.labels, spec.edges)
    seps = checker.separators(g)
    dim = checker.min_resolving_size(g, seps)
    start = max(1, checker.twin_landmark_bound(g))
    first = checker.lex_first_resolving(g, seps, dim)
    rank, prev = 0, -1
    for i, x in enumerate(first):
        rank += sum(math.comb(g.n - 1 - v, dim - 1 - i) for v in range(prev + 1, x))
        prev = x
    subsets = sum(math.comb(g.n, k) * k for k in range(start, dim)) + (rank + 1) * dim
    return subsets * g.n


def path(rng: random.Random, n: int, name: str) -> Spec:
    """Path p0 - p1 - ... - p{n-1}, seeded at p0 (one end)."""
    labels = [f"p{i}" for i in range(n)]
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return Spec(name, _shuffled(rng, labels), edges, [[labels[0]]])


def grid(rng: random.Random, width: int, length: int, name: str) -> Spec:
    """width x length grid seeded on one short side (column 0)."""
    lab = lambda r, c: f"g{r}_{c}"
    labels = [lab(r, c) for r in range(width) for c in range(length)]
    edges = []
    for r in range(width):
        for c in range(length):
            if c + 1 < length:
                edges.append((lab(r, c), lab(r, c + 1)))
            if r + 1 < width:
                edges.append((lab(r, c), lab(r + 1, c)))
    seeds = [lab(r, 0) for r in range(width)]
    return Spec(name, _shuffled(rng, labels), edges, [seeds])


def fcn_edges(d: int) -> tuple[list[str], list[tuple[str, str]]]:
    """FCN(d) from its definition: bit strings of length 2d+2; every block
    of four strings sharing a 2d-bit prefix is a square 00-01-11-10; for
    each level l = 1..d, the four copies inside a block are joined by a
    square through the strings ending in "11" followed by 2l-2 zeros."""
    width = 2 * d + 2
    name = lambda v: format(v, f"0{width}b")
    edges: set[tuple[int, int]] = set()

    def square(base: int, shift: int) -> None:
        ring = [0b00, 0b01, 0b11, 0b10]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            u, v = base | (a << shift), base | (b << shift)
            edges.add((min(u, v), max(u, v)))

    for prefix in range(1 << (width - 2)):
        square(prefix << 2, 0)
    for level in range(1, d + 1):
        corner = 0b11 << (2 * level - 2)
        for prefix in range(1 << (2 * (d - level))):
            square((prefix << (2 * level + 2)) | corner, 2 * level)
    labels = [name(v) for v in range(1 << width)]
    return labels, [(name(u), name(v)) for u, v in sorted(edges)]


def fcn_seed_sets(rng: random.Random, labels: list[str], random_sets: int, size: int) -> list[list[str]]:
    """The canonical seeds (labels ending in "01") and `random_sets`
    random seed sets of `size` vertices."""
    canonical = [lab for lab in labels if lab.endswith("01")]
    return [canonical] + [sorted(rng.sample(labels, size)) for _ in range(random_sets)]


def write_edgelist(spec: Spec, path_: str) -> None:
    lines = [f"{len(spec.labels)} {len(spec.edges)}", *spec.labels]
    lines.extend(f"{a} {b}" for a, b in spec.edges)
    with open(path_, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(spec: Spec, path_: str) -> None:
    with open(path_, "w", encoding="utf-8") as fh:
        json.dump({"vertices": spec.labels, "edges": [list(e) for e in spec.edges]}, fh)
