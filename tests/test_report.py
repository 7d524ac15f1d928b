from __future__ import annotations

import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmon import (
    GraphError,
    LimitExceeded,
    build_graph,
    build_report,
    canonical_power_dominating_set,
    fractal_cubic_network,
    is_connected,
    power_domination_bounds,
    report_to_json,
    verify_report,
)
import graphmon.powerdom
import graphmon.report
import graphmon.resolving
import graphmon.twins
from graphmon.core import EXACT_LIMIT
from graphmon.report import KNOWN_CHECKS
from graphmon.version import VERSION

from _helpers import count_calls, random_connected_graph, random_graph, with_planted_twins

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


@pytest.mark.parametrize("graph", ["c4", "fcn2"])
def test_power_domination_bounds_computed_once(graph, request, monkeypatch):
    g = request.getfixturevalue(graph)
    calls = count_calls(monkeypatch, graphmon.report, "power_domination_bounds")
    report = build_report(g, timestamp=STAMP)
    assert len(calls) == 1
    assert verify_report(g, report) == []


def test_greedy_resolving_set_computed_once(fcn2, monkeypatch):
    calls = count_calls(monkeypatch, graphmon.resolving, "greedy_resolving_set")
    report = build_report(fcn2, timestamp=STAMP)
    assert report["dim"]["upper_method"] == "greedy"
    assert report["eta_p"]["upper_method"] == "greedy-union"
    assert len(calls) == 1


def test_unhinted_removal_passes_stop_at_the_lower_bound(monkeypatch):
    # On FCN(3) the greedy dim and gamma_p sets already meet their twin
    # bounds, and so does the eta_p union, so no pass checks a smaller
    # set, builds a distance row or partitions the twins again.
    rows = count_calls(monkeypatch, graphmon.resolving, "bfs_distances")
    partitions = [
        count_calls(monkeypatch, module, "twin_partition")
        for module in (graphmon.powerdom, graphmon.resolving)
    ]

    def costs():
        return len(rows), sum(map(len, partitions))

    spans = []

    def spanning(module, name, section):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            questions = []
            if name == "prune":
                kept, keeps, floor = args
                args = kept, lambda rest: questions.append(rest) or keeps(rest), floor
            before = costs()
            out = original(*args, **kwargs)
            spans.append((section, len(questions), *map(int.__sub__, costs(), before)))
            return out

        monkeypatch.setattr(module, name, wrapper)

    spanning(graphmon.resolving, "prune", "dim or eta_p prune")
    spanning(graphmon.powerdom, "prune", "gamma_p prune")
    spanning(graphmon.report, "resolving_power_domination_bounds", "eta_p section")
    report = build_report(fractal_cubic_network(3), timestamp=STAMP)
    assert spans == [
        ("dim or eta_p prune", 0, 0, 0),
        ("gamma_p prune", 0, 0, 0),
        ("dim or eta_p prune", 0, 0, 0),
        ("eta_p section", 0, 0, 0),
    ]
    assert [report[k]["upper_method"] for k in ("gamma_p", "dim", "eta_p")] == [
        "greedy",
        "greedy",
        "greedy-union",
    ]
    assert [(report[k]["lower"], report[k]["upper"]) for k in ("gamma_p", "dim", "eta_p")] == [
        (64, 64)
    ] * 3


def test_hint_checked_once_per_kind(fcn2, monkeypatch):
    resolving_checks = count_calls(monkeypatch, graphmon.resolving, "is_resolving_set")
    power_checks = count_calls(monkeypatch, graphmon.powerdom, "is_power_dominating_set")
    power_checks_here = count_calls(monkeypatch, graphmon.resolving, "is_power_dominating_set")
    # One partition each for the gamma_p bound, the dim bound and the twin
    # census; the eta_p union is already at its lower bound, so it asks for none.
    partitions = [
        count_calls(monkeypatch, module, "twin_partition")
        for module in (graphmon.powerdom, graphmon.resolving, graphmon.twins)
    ]
    report = build_report(fcn2, hint=canonical_power_dominating_set(2), timestamp=STAMP)
    assert [report[k]["upper_method"] for k in ("gamma_p", "dim", "eta_p")] == [
        "hint-certificate",
        "hint-certificate",
        "greedy-union",
    ]
    assert len(resolving_checks) == 1
    assert len(power_checks) + len(power_checks_here) == 1
    assert sum(map(len, partitions)) == 3


@pytest.mark.parametrize("hint", [[99], ["0001"]], ids=["out of range", "a label"])
@pytest.mark.parametrize("checks", [["gamma_p"], ["dim"], ["twins"]], ids=["gamma_p", "dim", "twins"])
@pytest.mark.parametrize("exact_limit", [EXACT_LIMIT, 0], ids=["exact", "bounds"])
def test_hint_validated_on_every_path(fcn1, hint, checks, exact_limit):
    with pytest.raises(GraphError, match="out of range"):
        build_report(fcn1, checks=checks, exact_limit=exact_limit, hint=hint)


@pytest.mark.parametrize("hint", [[99], ["a"]], ids=["out of range", "a label"])
def test_hint_validated_on_a_disconnected_graph(hint):
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(GraphError, match="out of range"):
        power_domination_bounds(g, exact_limit=0, hint=hint)


def test_eta_p_alone_computes_the_dim_bounds_once(c4, monkeypatch):
    calls = count_calls(monkeypatch, graphmon.report, "metric_dimension_bounds")
    report = build_report(c4, checks=["eta_p"], timestamp=STAMP)
    assert "dim" not in report
    assert report["eta_p"]["lower"] == report["eta_p"]["upper"] == 2
    assert len(calls) == 1


def test_refused_input_costs_no_summary_or_census(fcn2, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("computed before the resolving check refused the input")

    monkeypatch.setattr(graphmon.resolving, "MASK_MEMORY_LIMIT", 100)
    for name in ("diameter", "twin_report", "power_domination_bounds"):
        monkeypatch.setattr(graphmon.report, name, unexpected)
    with pytest.raises(LimitExceeded, match="MiB of landmark masks"):
        build_report(fcn2, hint=canonical_power_dominating_set(2))


def test_eta_p_exact_search_is_clamped(c4, monkeypatch):
    limits = []
    original = graphmon.report.resolving_power_domination_bounds

    def recording(g, power, resolving, **kwargs):
        limits.append(kwargs["exact_limit"])
        return original(g, power, resolving, **kwargs)

    monkeypatch.setattr(graphmon.report, "resolving_power_domination_bounds", recording)
    for exact_limit in (30, 3):
        build_report(c4, checks=["eta_p"], exact_limit=exact_limit, timestamp=STAMP)
    assert limits == [graphmon.resolving.ETA_P_EXACT_LIMIT, 3]


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


def _grown(report: dict, key: str, label: str) -> dict:
    """The report with one more label in a section's certificate, and its
    lower and upper raised to match: still a valid certificate."""
    bad = json.loads(report_to_json(report))
    field = graphmon.report.SECTIONS[key][0]
    bad[key][field].append(label)
    bad[key]["upper"] += 1
    bad[key]["lower"] += 1
    return bad


@pytest.mark.parametrize("checks", [["twins", "dim"], ["dim"]])
@pytest.mark.parametrize("tag", ["twin-lower", "trivial-lower"])
def test_verify_flags_dim_lower_above_the_twin_bound(fcn2, checks, tag):
    # Verify counts the twin classes afresh, whether or not the report
    # carries a census.
    report = build_report(fcn2, checks=checks, timestamp=STAMP)
    assert report["dim"]["lower_method"] == "twin-lower"
    assert verify_report(fcn2, report) == []
    extra = next(lbl for lbl in fcn2.labels if lbl not in report["dim"]["basis"])
    bad = _grown(report, "dim", extra)
    bad["dim"]["lower_method"] = tag
    assert verify_report(fcn2, bad) == ["dim: lower 17 exceeds the twin bound 16"]


@pytest.mark.parametrize("checks", [["twins", "dim"], ["dim"]])
def test_verify_flags_a_forged_trivial_floor(checks):
    # The empty set resolves K1, so no floor lifts its dim above 0.
    k1 = build_graph(["v"], [])
    report = build_report(k1, checks=checks, timestamp=STAMP)
    assert (report["dim"]["lower"], report["dim"]["upper"]) == (0, 0)
    report["dim"].update(lower=1, upper=1, basis=["v"], lower_method="trivial-lower")
    assert verify_report(k1, report) == ["dim: lower 1 exceeds the twin bound 0"]


def test_verify_flags_eta_p_lower_above_the_sandwich(fcn2):
    report = build_report(fcn2, timestamp=STAMP)
    extra = next(lbl for lbl in fcn2.labels if lbl not in report["eta_p"]["certificate"])
    bad = _grown(report, "eta_p", extra)
    assert verify_report(fcn2, bad) == ["eta_p: lower 17 exceeds the sandwich bound 16"]
    # Without both sides of the sandwich there is nothing to hold it to.
    del bad["gamma_p"]
    assert verify_report(fcn2, bad) == []


def test_verify_lower_bounds_count_closed_twins_and_take_the_larger_side():
    # K4 is one closed twin class. At exact_limit=0 its dim lower bound is
    # the twin count 3, above the gamma_p lower bound 1.
    k4 = build_graph(["a", "b", "c", "d"], [(u, v) for u in "abcd" for v in "abcd" if u < v])
    report = build_report(k4, exact_limit=0, timestamp=STAMP)
    assert [report[k]["lower"] for k in ("gamma_p", "dim", "eta_p")] == [1, 3, 3]
    assert verify_report(k4, report) == []
    for key, source in (("dim", "the twin bound"), ("eta_p", "the sandwich bound")):
        field = graphmon.report.SECTIONS[key][0]
        extra = next(lbl for lbl in k4.labels if lbl not in report[key][field])
        bad = _grown(report, key, extra)
        assert verify_report(k4, bad) == [f"{key}: lower 4 exceeds {source} 3"]


def _count_checks(monkeypatch) -> tuple[list, list]:
    return (
        count_calls(monkeypatch, graphmon.resolving, "is_resolving_set"),
        count_calls(monkeypatch, graphmon.resolving, "is_power_dominating_set"),
    )


def test_verify_checks_each_property_once_per_set(fcn2, monkeypatch):
    # The canonical hint is all three certificates: eta_p reads the dim and
    # gamma_p verdicts on the one set.
    report = build_report(fcn2, hint=canonical_power_dominating_set(2), timestamp=STAMP)
    resolving, power = _count_checks(monkeypatch)
    assert verify_report(fcn2, report) == []
    assert (len(resolving), len(power)) == (1, 1)


def test_verify_checks_a_distinct_eta_p_set_on_its_own(fcn2, monkeypatch):
    report = build_report(fcn2, hint=canonical_power_dominating_set(2), timestamp=STAMP)
    cert = report["eta_p"]["certificate"]
    report["eta_p"].update(upper=17, certificate=[*cert, next(v for v in fcn2.labels if v not in cert)])
    resolving, power = _count_checks(monkeypatch)
    assert verify_report(fcn2, report) == []
    assert (len(resolving), len(power)) == (2, 2)
    # Resolving is asked first: a set that fails it is not asked to monitor.
    report["eta_p"].update(lower=15, upper=15, certificate=cert[1:])
    resolving.clear()
    power.clear()
    assert verify_report(fcn2, report) == ["eta_p: certificate does not resolve and monitor"]
    assert (len(resolving), len(power)) == (2, 1)


@pytest.mark.parametrize(
    "checks, built", [(["twins", "dim"], 1), (["dim"], 1), (["twins", "gamma_p"], 1), (["gamma_p"], 0)]
)
def test_verify_builds_the_twin_census_at_most_once(fcn2, checks, built, monkeypatch):
    # The census comparison and the dim twin cap read one census; a report
    # that asks for neither builds none.
    report = build_report(fcn2, checks=checks, timestamp=STAMP)
    censuses = count_calls(monkeypatch, graphmon.report, "twin_report")
    assert verify_report(fcn2, report) == []
    assert len(censuses) == built


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


def test_verify_reports_malformed_sections(fcn1):
    report = build_report(fcn1, timestamp=STAMP)

    def malformed(key, field):
        return f"{key}: malformed section, expected int lower/upper and {field} labels"

    tamperings = [
        ("gamma_p", lambda r: r["gamma_p"].pop("lower"), malformed("gamma_p", "certificate")),
        ("dim", lambda r: r["dim"].pop("basis"), malformed("dim", "basis")),
        ("eta_p", lambda r: r["eta_p"].update(upper="4"), malformed("eta_p", "certificate")),
        ("gamma_p", lambda r: r.update(gamma_p=None), malformed("gamma_p", "certificate")),
        (
            "eta_p",
            lambda r: r["eta_p"].update(certificate="".join(r["eta_p"]["certificate"])),
            malformed("eta_p", "certificate"),
        ),
    ]
    for key, tamper, problem in tamperings:
        bad = json.loads(report_to_json(report))
        tamper(bad)
        assert verify_report(fcn1, bad) == [problem], key


def test_verify_reports_malformed_summary_census_and_report(fcn1):
    report = build_report(fcn1, checks=["twins"], timestamp=STAMP)
    summary = "graph_summary: malformed section, expected an object"
    census = "twin_census: malformed section, expected an object"
    for bad_value in (None, [], "16"):
        for key, problem in (("graph_summary", summary), ("twin_census", census)):
            bad = json.loads(report_to_json(report))
            bad[key] = bad_value
            assert verify_report(fcn1, bad) == [problem], (key, bad_value)
    for bad in (None, [], [report]):
        assert verify_report(fcn1, bad) == ["report: malformed, expected an object"]
    bad = json.loads(report_to_json(report))
    bad["graph_summary"].update(n="16", m=20.5)
    assert verify_report(fcn1, bad) == [
        "graph_summary.n is '16', expected 16",
        "graph_summary.m is 20.5, expected 20",
    ]


def test_verify_checks_every_summary_and_census_field(fcn1):
    report = json.loads(report_to_json(build_report(fcn1, timestamp=STAMP)))
    histogram = "graph_summary.degree_histogram does not match a fresh computation"
    tamperings = [
        (("graph_summary", "diameter", 99), "graph_summary.diameter is 99, expected an int from 6 to 12"),
        (("graph_summary", "degree_histogram", {"7": 1}), histogram),
        (("twin_census", "open_count", 42), "twin_census.open_count is 42, expected 4"),
        (("graph_summary", "n", 16.0), "graph_summary.n is 16.0, expected 16"),
        (("graph_summary", "n", True), "graph_summary.n is True, expected 16"),
        (("graph_summary", "diameter", 5), "graph_summary.diameter is 5, expected an int from 6 to 12"),
        (("graph_summary", "degree_histogram", {"2": 12, "4": 3}), histogram),
        (("graph_summary", "degree_histogram", {"2": 12, "4": 4.0}), histogram),
        (("twin_census", "closed_count", "0"), "twin_census.closed_count is '0', expected 0"),
        (
            ("graph_summary", "diameter", "disconnected"),
            "graph_summary.diameter is 'disconnected', expected an int from 6 to 12",
        ),
    ]
    for (key, field, value), problem in tamperings:
        bad = json.loads(json.dumps(report))
        bad[key][field] = value
        assert verify_report(fcn1, bad) == [problem], (key, field, value)


def test_verify_flags_in_memory_values_that_only_look_right():
    # True == 1, and the keys 1 and "1" name the same degree.
    k2 = build_graph(["v", "w"], [("v", "w")])
    report = build_report(k2, timestamp=STAMP)
    report["graph_summary"].update(m=True, degree_histogram={1: 2, "1": 2})
    assert verify_report(k2, report) == [
        "graph_summary.m is True, expected 1",
        "graph_summary.degree_histogram does not match a fresh computation",
    ]


def test_clean_reports_verify_after_a_json_round_trip(c4, fcn2):
    disconnected = build_graph(["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c")])
    cases = [
        (c4, build_report(c4, timestamp=STAMP)),
        (fcn2, build_report(fcn2, hint=canonical_power_dominating_set(2), timestamp=STAMP)),
        (disconnected, build_report(disconnected, checks=["twins", "gamma_p"], timestamp=STAMP)),
    ]
    for g, report in cases:
        assert verify_report(g, report) == []
        assert verify_report(g, json.loads(report_to_json(report))) == []


def _sweep_graphs():
    """The degenerate graphs, then random ones with n = 1..14, connected
    and not, every fourth with planted twins."""
    yield build_graph([], [])
    yield build_graph(["v"], [])
    yield build_graph(["v", "w"], [("v", "w")])
    yield build_graph(["v", "w"], [])
    yield build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    yield build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    rng = random.Random(5)
    for i in range(400):
        n = rng.randint(1, 14)
        copies = rng.randint(1, min(3, n - 1)) if i % 4 == 0 and n > 1 else 0
        make = random_connected_graph if rng.random() < 0.5 else random_graph
        g = make(rng, n - copies, rng.uniform(0.1, 0.6))
        yield with_planted_twins(rng, g, copies)


def test_reports_verify_at_every_exact_limit():
    # From below zero up to each graph's size, the bounds and the exact
    # paths both write reports that verify_report proves.
    problems = []
    for g in _sweep_graphs():
        checks = KNOWN_CHECKS if is_connected(g) else ["twins", "gamma_p"]
        for limit in sorted({-1, 0, 1, 2, g.n // 2, g.n}):
            report = build_report(g, checks=checks, exact_limit=limit, timestamp=STAMP)
            found = verify_report(g, json.loads(report_to_json(report)))
            problems += [f"{g!r} {list(g.edges())} at exact_limit={limit}: {p}" for p in found]
    assert problems == []


@functools.cache
def _fcn1_report_text() -> str:
    return report_to_json(build_report(fractal_cubic_network(1), timestamp=STAMP))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(value=JSON_VALUES)
def test_verify_never_raises_on_a_mutated_report(fcn1, value):
    # Each top-level field, and each field of a top-level object, takes the
    # value in turn; a randomly drawn field would rarely be a section itself.
    text = _fcn1_report_text()
    for key, part in json.loads(text).items():
        for sub in [None, *part] if isinstance(part, dict) else [None]:
            bad = json.loads(text)
            if sub is None:
                bad[key] = value
            else:
                bad[key][sub] = value
            problems = verify_report(fcn1, bad)
            assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)


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
    report["graph_summary"]["diameter"] = 3
    assert verify_report(g, report) == ["graph_summary.diameter is 3, expected 'disconnected'"]
    for check in ("dim", "eta_p"):
        with pytest.raises(GraphError):
            build_report(g, checks=[check], timestamp=STAMP)


def test_json_shape(c4):
    text = report_to_json(build_report(c4, timestamp=STAMP))
    assert text.endswith("}\n")
    parsed = json.loads(text)
    assert parsed["report_version"] == 1
