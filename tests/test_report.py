from __future__ import annotations

import json

import pytest

from graphmon import (
    GraphError,
    build_graph,
    build_report,
    report_to_json,
    verify_report,
)
import graphmon.report
import graphmon.resolving
from graphmon.version import VERSION

STAMP = "2026-01-01T00:00:00+00:00"


def test_full_report_on_c4(c4):
    report = build_report(c4, timestamp=STAMP)
    assert report["report_version"] == 1
    assert report["tool_version"] == VERSION
    assert report["timestamp"] == STAMP
    assert report["graph_summary"] == {
        "n": 4,
        "m": 4,
        "degree_histogram": {2: 4},
        "diameter": 2,
    }
    assert report["twin_census"] == {
        "open": [["00", "11"], ["01", "10"]],
        "closed": [],
        "open_count": 2,
        "closed_count": 0,
    }
    assert report["gamma_p"]["lower"] == report["gamma_p"]["upper"] == 1
    assert report["gamma_p"]["lower_method"] == "exact-oracle"
    assert report["gamma_p"]["subsets_examined"] >= 1
    assert report["dim"]["lower"] == report["dim"]["upper"] == 2
    assert report["eta_p"]["lower"] == report["eta_p"]["upper"] == 2
    assert len(report["eta_p"]["certificate"]) == 2
    assert "traces" not in report


def test_report_is_deterministic(fcn1):
    first = build_report(fcn1, timestamp=STAMP)
    second = build_report(fcn1, timestamp=STAMP)
    assert report_to_json(first) == report_to_json(second)


def test_report_subset_of_checks(c4):
    report = build_report(c4, checks=["gamma_p"], timestamp=STAMP)
    assert "gamma_p" in report
    assert "dim" not in report
    assert "twin_census" not in report
    assert "eta_p" not in report


def test_unknown_check_rejected(c4):
    with pytest.raises(ValueError, match="expected a subset"):
        build_report(c4, checks=["twins", "treewidth"])


def test_fcn2_report_tags(fcn2):
    from graphmon import canonical_power_dominating_set

    hint = canonical_power_dominating_set(2)
    report = build_report(fcn2, hint=hint, timestamp=STAMP)
    assert report["gamma_p"]["lower"] == report["gamma_p"]["upper"] == 16
    assert report["gamma_p"]["lower_method"] == "lemma2-lower"
    assert report["gamma_p"]["upper_method"] == "hint-certificate"
    assert report["dim"]["lower"] == report["dim"]["upper"] == 16
    assert report["dim"]["upper_method"] == "hint-certificate"
    assert report["eta_p"]["lower"] == report["eta_p"]["upper"] == 16
    assert report["eta_p"]["lower_method"] == "sandwich-lower"
    assert verify_report(fcn2, report) == []


def test_hint_method_names_the_hint(fcn2):
    from graphmon import canonical_power_dominating_set

    hint = canonical_power_dominating_set(2)
    tagged = build_report(fcn2, hint=hint, timestamp=STAMP, hint_method="canonical-certificate")
    plain = build_report(fcn2, hint=hint, timestamp=STAMP)
    for key in ("gamma_p", "dim", "eta_p"):
        assert tagged[key]["upper_method"] == "canonical-certificate"
        plain[key]["upper_method"] = "canonical-certificate"
    assert tagged == plain


@pytest.mark.parametrize("graph", ["c4", "fcn2"])
def test_power_domination_bounds_computed_once(graph, request, monkeypatch):
    g = request.getfixturevalue(graph)
    calls = []
    original = graphmon.report.power_domination_bounds

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(graphmon.report, "power_domination_bounds", counting)
    monkeypatch.setattr(graphmon.resolving, "power_domination_bounds", counting)
    report = build_report(g, timestamp=STAMP)
    assert len(calls) == 1
    assert verify_report(g, report) == []


def test_eta_p_alone_uses_the_reports_power_bounds():
    # n=8 with exact_limit=4: eta_p is not searched exhaustively, and its
    # greedy-union certificate starts from the gamma_p certificate. That
    # certificate is greedy at this limit and exact at the default one,
    # and the two differ here.
    g = build_graph(
        ["v00", "v01", "v02", "v03", "v04", "v05", "t00", "t01"],
        [
            ("v00", "v01"), ("v00", "v02"), ("v00", "v03"), ("v00", "t01"), ("v01", "v03"),
            ("v01", "v04"), ("v02", "v05"), ("v02", "t00"), ("v03", "v05"), ("v03", "t00"),
            ("v03", "t01"), ("v04", "v05"), ("v04", "t00"), ("v04", "t01"), ("v05", "t00"),
        ],
    )
    alone = build_report(g, checks=["eta_p"], exact_limit=4, timestamp=STAMP)
    paired = build_report(g, checks=["gamma_p", "eta_p"], exact_limit=4, timestamp=STAMP)
    assert alone["eta_p"] == paired["eta_p"]
    assert alone["eta_p"]["upper_method"] == "greedy-union"
    assert verify_report(g, alone) == []


def test_verify_clean_report(c4):
    report = build_report(c4, timestamp=STAMP)
    assert verify_report(c4, report) == []


def test_verify_flags_tampering(c4):
    report = build_report(c4, timestamp=STAMP)

    bad = json.loads(report_to_json(report))
    bad["graph_summary"]["n"] = 5
    assert any("graph_summary.n" in p for p in verify_report(c4, bad))

    bad = json.loads(report_to_json(report))
    bad["gamma_p"]["certificate"] = ["zz"]
    assert any("gamma_p" in p for p in verify_report(c4, bad))

    bad = json.loads(report_to_json(report))
    bad["gamma_p"]["lower"] = 3
    assert any("exceeds upper" in p for p in verify_report(c4, bad))

    bad = json.loads(report_to_json(report))
    bad["twin_census"]["open"] = [["00", "01"]]
    assert any("twin_census.open" in p for p in verify_report(c4, bad))

    bad = json.loads(report_to_json(report))
    bad["dim"]["basis"] = ["00"]
    problems = verify_report(c4, bad)
    assert any("basis size" in p for p in problems)

    bad = json.loads(report_to_json(report))
    bad["eta_p"]["certificate"] = ["00", "11"]
    assert any("resolve and monitor" in p for p in verify_report(c4, bad))


def test_verify_messages_name_section_and_field(c4):
    report = build_report(c4, timestamp=STAMP)
    report["gamma_p"].update(lower=3, certificate=[])
    report["dim"]["basis"] = ["00"]
    report["eta_p"]["certificate"] = ["00", "11"]
    assert verify_report(c4, report) == [
        "gamma_p: lower 3 exceeds upper 1",
        "gamma_p: certificate size 0 != upper 1",
        "gamma_p: certificate does not monitor the graph",
        "dim: basis size 1 != upper 2",
        "dim: basis does not resolve the graph",
        "eta_p: certificate does not resolve and monitor",
    ]
    report["dim"]["basis"] = ["zz"]
    assert "dim: unknown vertex label 'zz'" in verify_report(c4, report)


def test_verify_flags_dim_and_eta_p_on_a_disconnected_graph():
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    report = build_report(g, checks=["gamma_p"], timestamp=STAMP)
    report["dim"] = {"lower": 2, "upper": 2, "basis": ["a", "c"]}
    report["eta_p"] = {"lower": 2, "upper": 2, "certificate": ["a", "c"]}
    assert verify_report(g, report) == [
        "dim reported for a disconnected graph",
        "eta_p reported for a disconnected graph",
    ]


def test_disconnected_graph_reports():
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    report = build_report(g, checks=["twins", "gamma_p"], timestamp=STAMP)
    assert report["graph_summary"]["diameter"] == "disconnected"
    assert report["gamma_p"]["lower"] == report["gamma_p"]["upper"] == 2
    assert verify_report(g, report) == []
    for check in ("dim", "eta_p"):
        with pytest.raises(GraphError):
            build_report(g, checks=[check], timestamp=STAMP)


def test_json_shape(c4):
    text = report_to_json(build_report(c4, timestamp=STAMP))
    assert text.endswith("}\n")
    parsed = json.loads(text)
    assert parsed["report_version"] == 1
