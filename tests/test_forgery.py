"""A forgery ratchet for verify_report.

Each report below is forged in every way a number in it can lie: each
integer leaf moved by +1 and by -1, and each bounds section grown
consistently, its lower and upper raised by one with one more vertex in
a certificate that stays valid. report_version is left alone: it names
the format the report is written in and says nothing about the graph.

A forgery verify_report flags is caught. A lower bound moved down by one
is weaker, so it is still true, and the test allows it whether or not it
is flagged.

Every other forgery that verifies clean must be listed in MISSED, with
the ROADMAP item that makes verify_report catch it. The test fails when
a forgery outside the table verifies clean, and when a row of the table
is caught: the table only shrinks, and the change that closes a row
deletes it.
"""

from __future__ import annotations

import json
import random

from graphmon import build_report, canonical_power_dominating_set, fractal_cubic_network, is_connected
from graphmon.report import SECTIONS, report_to_json, verify_report

from _helpers import grid_graph, random_graph, random_tree_plus_chords

STAMP = "2026-01-01T00:00:00+00:00"

# (graph, forged field, direction) -> the ROADMAP item that closes it.
# "section" is the consistent forgery of a whole section.
MISSED: dict[tuple[str, str, str], int] = {
    # lemma2-lower: the twin packing is asserted, not witnessed.
    ("fcn2-hinted", "gamma_p", "section"): 4,
    ("fcn2", "gamma_p", "section"): 4,
    ("sparse160", "gamma_p", "section"): 4,
    ("sparse160", "gamma_p.lower", "+1"): 4,
    # Exact optima, whose lower side no search re-proves.
    ("grid3x4", "gamma_p", "section"): 14,
    ("grid3x4", "dim", "section"): 14,
    ("grid3x4", "eta_p", "section"): 14,
    # The componentwise gamma_p sum on a disconnected graph.
    ("split30", "gamma_p", "section"): 14,
    ("split30", "gamma_p.lower", "+1"): 14,
    # The diameter, only bracketed by ecc(0) <= D <= 2 * ecc(0).
    ("grid3x4", "graph_summary.diameter", "+1"): 14,
    ("fcn2-hinted", "graph_summary.diameter", "+1"): 14,
    ("fcn2", "graph_summary.diameter", "+1"): 14,
    ("sparse160", "graph_summary.diameter", "+1"): 14,
    ("sparse160", "graph_summary.diameter", "-1"): 14,
    # The search's own count, which describes no property of the graph.
    ("grid3x4", "gamma_p.subsets_examined", "+1"): 14,
    ("grid3x4", "gamma_p.subsets_examined", "-1"): 14,
    ("grid3x4", "eta_p.subsets_examined", "+1"): 14,
    ("grid3x4", "eta_p.subsets_examined", "-1"): 14,
}


def _graphs() -> dict[str, tuple]:
    """name -> (graph, build_report keyword arguments)."""
    fcn2 = fractal_cubic_network(2)
    sparse = random_tree_plus_chords(random.Random(1), 160, 80)
    split = random_graph(random.Random(1), 30, 0.08)
    assert not is_connected(split)
    return {
        "grid3x4": (grid_graph(3, 4), {}),
        "fcn2-hinted": (fcn2, {"hint": canonical_power_dominating_set(2)}),
        "fcn2": (fcn2, {}),
        "sparse160": (sparse, {}),
        "split30": (split, {"checks": ["twins", "gamma_p"]}),
    }


def _int_leaves(node, path=()):
    """Path to every int (not bool) in a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_leaves(value, (*path, i))
    elif type(node) is int:
        yield path


def _forgeries(g, report: dict):
    """(field, direction, forged report) for every forgery of report."""
    text = report_to_json(report)
    for path in _int_leaves({k: v for k, v in report.items() if k != "report_version"}):
        for step in (1, -1):
            bad = json.loads(text)
            holder = bad
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] += step
            yield ".".join(map(str, path)), f"{step:+d}", bad
    for key, (field, _) in SECTIONS.items():
        if key in report:
            bad = json.loads(text)
            bad[key][field].append(next(lbl for lbl in g.labels if lbl not in bad[key][field]))
            bad[key]["lower"] += 1
            bad[key]["upper"] += 1
            yield key, "section", bad


def test_verify_report_misses_only_the_listed_forgeries():
    missed = set()
    for name, (g, kwargs) in _graphs().items():
        report = json.loads(report_to_json(build_report(g, timestamp=STAMP, **kwargs)))
        assert verify_report(g, report) == [], name
        for field, direction, bad in _forgeries(g, report):
            weaker = field.endswith(".lower") and direction == "-1"
            if not weaker and verify_report(g, bad) == []:
                missed.add((name, field, direction))
    assert sorted(missed - MISSED.keys()) == [], "forgeries that verify clean"
    assert sorted(MISSED.keys() - missed) == [], "stale rows: these are caught now"
