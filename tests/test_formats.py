from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmon import (
    GraphError,
    build_graph,
    fractal_cubic_network,
    from_edgelist_text,
    from_json_text,
    induced_subgraph,
    load_graph,
    loads_graph,
    to_dot,
    to_edgelist_text,
    to_json_text,
)

from _helpers import assert_sorted_tuple_layout, build_graph_reference, random_graph, traced_mib

C4_EDGELIST = "4 4\n00\n01\n10\n11\n00 01\n00 10\n01 11\n10 11\n"

C4_DOT = (
    'graph G {\n'
    '  "00";\n'
    '  "01";\n'
    '  "10";\n'
    '  "11";\n'
    '  "00" -- "01";\n'
    '  "00" -- "10";\n'
    '  "01" -- "11";\n'
    '  "10" -- "11";\n'
    '}\n'
)


def test_edgelist_exact_text(c4):
    assert to_edgelist_text(c4) == C4_EDGELIST


def test_edgelist_round_trip_is_bit_exact(c4, fcn1):
    for g in (c4, fcn1):
        text = to_edgelist_text(g)
        assert from_edgelist_text(text) == g
        assert to_edgelist_text(from_edgelist_text(text)) == text


def test_json_round_trip(c4, fcn1):
    for g in (c4, fcn1):
        text = to_json_text(g)
        assert from_json_text(text) == g
        assert to_json_text(from_json_text(text)) == text


def test_json_payload_shape(c4):
    payload = json.loads(to_json_text(c4))
    assert payload["vertices"] == ["00", "01", "10", "11"]
    assert ["00", "01"] in payload["edges"]
    assert len(payload["edges"]) == 4


def test_round_trip_random_graphs():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 20), rng.uniform(0.0, 0.6))
        assert from_edgelist_text(to_edgelist_text(g)) == g
        assert from_json_text(to_json_text(g)) == g


def test_dot_exact_text(c4):
    assert to_dot(c4) == C4_DOT


def test_edgelist_rejects_bad_header():
    with pytest.raises(GraphError, match="header"):
        from_edgelist_text("4\n")
    with pytest.raises(GraphError, match="header"):
        from_edgelist_text("a b\nx\n")


@pytest.mark.parametrize("text", ["2 -1\na\n", "-1 1\n"])
def test_edgelist_rejects_negative_counts(text):
    header = text.splitlines()[0]
    with pytest.raises(GraphError, match=f"bad header line '{header}', counts must not be negative"):
        from_edgelist_text(text)


def test_edgelist_rejects_wrong_counts():
    with pytest.raises(GraphError, match="lines"):
        from_edgelist_text("2 1\na\nb\n")


def test_edgelist_rejects_bad_edge_line():
    with pytest.raises(GraphError) as err:
        from_edgelist_text("2 1\na\nb\na b c\n")
    assert str(err.value) == "bad edge on line 4 'a b c', expected two words"


def test_edgelist_rejects_unknown_endpoint():
    with pytest.raises(GraphError, match="zz"):
        from_edgelist_text("2 1\na\nb\na zz\n")


def test_edgelist_rejects_empty_input():
    with pytest.raises(GraphError, match="empty"):
        from_edgelist_text("")


@pytest.mark.parametrize(
    "text,line",
    [("2 0\n\nb\n", "line 2 ''"), ("3 0\na\na b\nc\n", "line 3 'a b'")],
)
def test_edgelist_rejects_labels_it_could_not_write(text, line):
    with pytest.raises(GraphError, match=f"bad label on {line}"):
        from_edgelist_text(text)


def test_edgelist_label_lines_may_be_padded():
    assert from_edgelist_text("2 1\n  a\nb \na b\n").labels == ("a", "b")


def test_edgelist_export_rejects_whitespace_labels():
    g = build_graph(["has space", "b"], [("has space", "b")])
    with pytest.raises(GraphError):
        to_edgelist_text(g)
    # JSON carries arbitrary labels fine
    assert from_json_text(to_json_text(g)) == g


@pytest.mark.parametrize("label", ['a"b', "a\\b", "a\nb", "a\rb"])
def test_dot_export_rejects_labels_it_cannot_quote(label):
    g = from_json_text(json.dumps({"vertices": [label, "c"], "edges": [[label, "c"]]}))
    with pytest.raises(GraphError, match="cannot be written to the DOT format"):
        to_dot(g)


def test_json_rejects_malformed_payloads():
    with pytest.raises(GraphError):
        from_json_text("[]")
    with pytest.raises(GraphError):
        from_json_text(json.dumps({"vertices": "ab", "edges": []}))
    with pytest.raises(GraphError):
        from_json_text(json.dumps({"vertices": ["a"], "edges": [["a"]]}))
    with pytest.raises(GraphError):
        from_json_text("{not json")


def test_loads_graph_sniffs_format(c4):
    assert loads_graph(to_json_text(c4)) == c4
    assert loads_graph(to_edgelist_text(c4)) == c4


def test_load_graph_reads_files(tmp_path, c4):
    p = tmp_path / "g.txt"
    p.write_text(to_edgelist_text(c4), encoding="utf-8")
    assert load_graph(str(p)) == c4
    q = tmp_path / "g.json"
    q.write_text(to_json_text(c4), encoding="utf-8")
    assert load_graph(str(q)) == c4


def _via_edgelist(labels, edges):
    lines = [f"{len(labels)} {len(edges)}", *labels, *(f"{a} {b}" for a, b in edges)]
    return from_edgelist_text("\n".join(lines) + "\n")


def _via_json(labels, edges):
    return from_json_text(json.dumps({"vertices": labels, "edges": [list(e) for e in edges]}))


LOADERS = (build_graph, _via_edgelist, _via_json)

# Labels of at most three characters, so "unknown" names no vertex.
UNKNOWN = "unknown"


@st.composite
def labels_and_edges(draw):
    """Distinct labels and an edge list that repeats some edges, some of
    them reversed; vertices no edge names stay isolated."""
    labels = draw(st.lists(st.text("abxyz019_", min_size=1, max_size=3), min_size=1, max_size=14, unique=True))
    ends = st.integers(0, len(labels) - 1)
    pairs = []
    if len(labels) > 1:
        pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=2 * len(labels)))
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=len(pairs)))
        pairs = draw(st.permutations(pairs + [(v, u) if flip else (u, v) for (u, v), flip in repeats]))
    return labels, [(labels[u], labels[v]) for u, v in pairs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=labels_and_edges(), data=st.data())
def test_loaders_match_the_reference_builder(case, data):
    labels, edges = case
    want = build_graph_reference(labels, edges)
    shuffled = data.draw(st.permutations(edges))
    keep = data.draw(st.sets(st.integers(0, len(labels) - 1)))
    for load in LOADERS:
        g = load(labels, edges)
        # Equal tuples, so the same ascending neighbour order as the reference.
        assert g == want
        assert g.m == want.m
        assert list(g.edges()) == list(want.edges())
        assert_sorted_tuple_layout(g)
        again = load(labels, shuffled)
        assert again == g and hash(again) == hash(g)
        assert_sorted_tuple_layout(induced_subgraph(g, keep)[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=labels_and_edges(), fault=st.sampled_from(["head", "tail", "loop", "label"]), data=st.data())
def test_loaders_report_an_injected_fault_like_the_reference(case, fault, data):
    labels, edges = list(case[0]), list(case[1])
    a = data.draw(st.sampled_from(labels))
    if fault == "label":
        labels.insert(data.draw(st.integers(0, len(labels))), a)
        expected = f"duplicate label {a!r}"
    else:
        bad = {"head": (UNKNOWN, a), "tail": (a, UNKNOWN), "loop": (a, a)}[fault]
        edges.insert(data.draw(st.integers(0, len(edges))), bad)
        expected = f"self-loop on {a!r}" if fault == "loop" else f"unknown endpoint {UNKNOWN!r} in edge {bad!r}"
    with pytest.raises(GraphError) as want:
        build_graph_reference(labels, edges)
    assert str(want.value) == expected
    for load in LOADERS:
        with pytest.raises(GraphError) as got:
            load(labels, edges)
        assert str(got.value) == expected


@pytest.mark.parametrize(
    "write,read,frozenset_peak",
    [(to_edgelist_text, from_edgelist_text, 11.49), (to_json_text, from_json_text, 11.21)],
    ids=["edgelist", "json"],
)
def test_loading_fcn6_peaks_below_the_frozenset_layout(write, read, frozenset_peak):
    # frozenset_peak is the MiB peak with one frozenset per neighbourhood,
    # which kept 5.87 MiB. Sorted tuples keep 3.02 MiB; the parsed lines
    # and label strings, not the graph, set the peak (10.5 and 10.2 MiB on
    # CPython 3.11), so a ratio to what the graph keeps would only grow as
    # the graph shrinks.
    text = write(fractal_cubic_network(6))
    assert traced_mib(lambda: read(text))[1] <= frozenset_peak


def _plain_texts(g) -> tuple[str, str]:
    """The edge list and DOT text as one join of every line."""
    labels = g.labels
    edges = [(labels[u], labels[v]) for u, v in g.edges()]
    edgelist = [f"{g.n} {g.m}", *labels, *(f"{a} {b}" for a, b in edges)]
    dot = ["graph G {", *(f'  "{lab}";' for lab in labels), *(f'  "{a}" -- "{b}";' for a, b in edges), "}"]
    return "\n".join(edgelist) + "\n", "\n".join(dot) + "\n"


@pytest.mark.parametrize(
    "build",
    # n isolated vertices write n + 1 edge-list lines and n + 2 DOT lines,
    # so these end just below, on and past a 4,096-line chunk.
    [lambda n=n: build_graph([f"v{i}" for i in range(n)], []) for n in (4094, 4095, 4096)]
    + [lambda: fractal_cubic_network(5)],
    ids=["4094 isolated", "4095 isolated", "4096 isolated", "fcn5"],
)
def test_writers_match_one_join_of_every_line(build):
    g = build()
    assert (to_edgelist_text(g), to_dot(g)) == _plain_texts(g)


@pytest.mark.parametrize("write", [to_edgelist_text, to_dot], ids=["edgelist", "dot"])
def test_writing_fcn7_peaks_near_two_copies_of_the_text(write):
    # Joining every line at once and then copying the text for its final
    # newline peaked at 4.1 (edge list) and 4.6 (DOT) times the text's
    # size. Joined 4,096 lines at a time, the chunks and their join peak at
    # about twice it.
    g = fractal_cubic_network(7)
    text_mib = len(write(g)) / 2**20
    assert traced_mib(lambda: write(g))[1] <= 2.5 * text_mib
