"""Graph serialization.

Edge-list text: first line ``n m``, then n label lines, then m edge lines
``label1 label2``. JSON: ``{"vertices": [...], "edges": [[a, b], ...]}``.
Both writers emit labels in id order and edges sorted by id pair, so a
write/read/write cycle is byte identical. DOT output names vertices by
their labels and carries no layout attributes. Edge-list labels must be
nonempty and free of whitespace; DOT labels must hold no quote, backslash
or line break.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import Callable, Iterator

from .core import Graph, GraphError, build_graph


def join_lines(lines: Iterator[str]) -> str:
    """Each line followed by a newline, joined 4,096 lines at a time, so no
    more than one chunk's line strings are alive beside the text."""
    chunks = []
    while chunk := list(islice(lines, 4096)):
        chunk.append("")
        chunks.append("\n".join(chunk))
    return "".join(chunks)


def _writable_labels(g: Graph, fmt: str, ok: Callable[[str], bool]) -> tuple[str, ...]:
    for lab in g.labels:
        if not ok(lab):
            raise GraphError(f"label {lab!r} cannot be written to the {fmt} format")
    return g.labels


def to_edgelist_text(g: Graph) -> str:
    # A label must split into itself alone, which rejects "" and any whitespace.
    labels = _writable_labels(g, "text", lambda lab: lab.split() == [lab])
    edges = (f"{labels[u]} {labels[v]}" for u, v in g.edges())
    return join_lines(chain([f"{g.n} {g.m}"], labels, edges))


def from_edgelist_text(text: str) -> Graph:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"bad header line {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphError(f"bad header line {lines[0]!r}, expected two integers") from None
    if n < 0 or m < 0:
        raise GraphError(f"bad header line {lines[0]!r}, counts must not be negative")
    if len(lines) != 1 + n + m:
        raise GraphError(f"expected {1 + n + m} lines for n={n} m={m}, got {len(lines)}")
    labels = []
    for number, line in enumerate(lines[1 : 1 + n], start=2):
        parts = line.split()
        if len(parts) != 1:
            raise GraphError(f"bad label on line {number} {line!r}, expected one word")
        labels.append(parts[0])
    # Two flat lists, not a tuple per edge, which the collector would track.
    heads, tails = [], []
    for number, line in enumerate(lines[1 + n :], start=2 + n):
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge on line {number} {line!r}, expected two words")
        heads.append(parts[0])
        tails.append(parts[1])
    return build_graph(labels, zip(heads, tails))


def to_json_text(g: Graph) -> str:
    obj = {
        "vertices": list(g.labels),
        "edges": [[g.labels[u], g.labels[v]] for u, v in g.edges()],
    }
    return json.dumps(obj, indent=2) + "\n"


def from_json_text(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphError(f"invalid graph JSON: {e}") from None
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise GraphError("graph JSON must be an object with 'vertices' and 'edges'")
    vertices = obj["vertices"]
    edges = obj["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError("'vertices' must be an array of strings")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be an array")
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise GraphError(f"bad edge entry {e!r}, expected a 2-array of labels")
    return build_graph(vertices, edges)


def to_dot(g: Graph) -> str:
    # Labels are written inside double quotes with no escaping.
    labels = _writable_labels(
        g, "DOT", lambda lab: '"' not in lab and "\\" not in lab and "\n" not in lab and "\r" not in lab
    )
    nodes = (f'  "{lab}";' for lab in labels)
    edges = (f'  "{labels[u]}" -- "{labels[v]}";' for u, v in g.edges())
    return join_lines(chain(["graph G {"], nodes, edges, ["}"]))


def loads_graph(text: str) -> Graph:
    """Parse either supported graph format, sniffing JSON by its first byte."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_text(text)
    return from_edgelist_text(text)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())
