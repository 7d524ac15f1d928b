"""Analysis reports: a versioned JSON summary of one graph.

The report bundles the graph census, twin classes, and the invariant
bounds with their certificates and method tags. Certificates are stored
as label lists so a report can be re-verified against the graph it came
from without trusting the producer.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Iterable

from .core import EXACT_LIMIT, Bounds, Graph, GraphError, diameter, is_connected
from .powerdom import is_power_dominating_set, power_domination_bounds
from .resolving import (
    ETA_P_EXACT_LIMIT,
    is_resolving_power_dominating,
    is_resolving_set,
    metric_dimension_bounds,
    resolving_power_domination_bounds,
)
from .twins import twin_report
from .version import VERSION

REPORT_VERSION = 1
KNOWN_CHECKS = ("twins", "gamma_p", "dim", "eta_p")


def degree_histogram(g: Graph) -> dict[int, int]:
    hist: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def build_report(
    g: Graph,
    checks: Iterable[str] = KNOWN_CHECKS,
    exact_limit: int = EXACT_LIMIT,
    hint: Iterable[int] | None = None,
    timestamp: str | None = None,
    hint_method: str = "hint-certificate",
) -> dict:
    """Assemble the analysis report for the requested checks.

    exact_limit caps exhaustive searches by vertex count; the combined
    resolving-and-monitoring search uses at most ETA_P_EXACT_LIMIT
    regardless, since its space grows the fastest. The hint is tried as
    the upper certificate of every bounded section, and a section it
    certifies is tagged hint_method. Passing a fixed timestamp makes the
    output byte-reproducible.
    """
    wanted = list(checks)
    unknown = sorted(set(wanted) - set(KNOWN_CHECKS))
    if unknown:
        raise ValueError(f"unknown checks {unknown}, expected a subset of {list(KNOWN_CHECKS)}")

    def section(b: Bounds, field: str) -> dict:
        tag = hint_method if b.upper_method == "hint-certificate" else b.upper_method
        out = {
            "lower": b.lower,
            "upper": b.upper,
            field: [g.labels[v] for v in sorted(b.certificate)],
            "lower_method": b.lower_method,
            "upper_method": tag,
        }
        # The dim section, which names its certificate "basis", has no search count.
        if field == "certificate":
            out["subsets_examined"] = b.subsets_examined
        return out

    when = timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds")
    diam = diameter(g)
    report: dict = {
        "report_version": REPORT_VERSION,
        "tool_version": VERSION,
        "timestamp": when,
        "graph_summary": {
            "n": g.n,
            "m": g.m,
            "degree_histogram": degree_histogram(g),
            "diameter": "disconnected" if diam is None else diam,
        },
    }
    if "twins" in wanted:
        census = twin_report(g)
        census["open_count"] = len(census["open"])
        census["closed_count"] = len(census["closed"])
        report["twin_census"] = census
    if "gamma_p" in wanted or "eta_p" in wanted:
        power = power_domination_bounds(g, exact_limit=exact_limit, hint=hint)
    if "gamma_p" in wanted:
        report["gamma_p"] = section(power, "certificate")
    if "dim" in wanted:
        report["dim"] = section(
            metric_dimension_bounds(g, exact_limit=exact_limit, hint=hint), "basis"
        )
    if "eta_p" in wanted:
        eta = resolving_power_domination_bounds(
            g,
            exact_limit=min(exact_limit, ETA_P_EXACT_LIMIT),
            hint=hint,
            power_bounds=power,
        )
        report["eta_p"] = section(eta, "certificate")
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _well_formed(section: object, field: str) -> bool:
    """Whether a bounds section has integer lower and upper and a label list
    in field, so verify_report can check it without crashing."""
    return (
        isinstance(section, dict)
        and all(type(section.get(k)) is int for k in ("lower", "upper"))
        and isinstance(section.get(field), list)
        and all(isinstance(label, str) for label in section[field])
    )


def verify_report(g: Graph, report: object) -> list[str]:
    """Re-check every certificate in a report against the graph.

    Returns a list of human-readable problems, empty when the report is
    internally consistent and all certificates verify. Any JSON value is
    accepted: a report or section of the wrong shape is a problem too.
    """
    if not isinstance(report, dict):
        return ["report: malformed, expected an object"]
    problems: list[str] = []

    summary = report.get("graph_summary", {})
    census = report.get("twin_census", {})
    for key, value in (("graph_summary", summary), ("twin_census", census)):
        if not isinstance(value, dict):
            problems.append(f"{key}: malformed section, expected an object")
    if isinstance(summary, dict):
        for field, actual in (("n", g.n), ("m", g.m)):
            if (got := summary.get(field)) != actual:
                problems.append(f"graph_summary.{field} is {got!r}, expected {actual}")

    if "twin_census" in report and isinstance(census, dict):
        expected = twin_report(g)
        for kind in ("open", "closed"):
            if census.get(kind) != expected[kind]:
                problems.append(f"twin_census.{kind} does not match a fresh computation")

    sections = (
        ("gamma_p", "certificate", is_power_dominating_set, "monitor the graph"),
        ("dim", "basis", lambda g, ids: is_resolving_set(g, ids)[0], "resolve the graph"),
        ("eta_p", "certificate", is_resolving_power_dominating, "resolve and monitor"),
    )
    for key, field, holds, duty in sections:
        if key not in report:
            continue
        section = report[key]
        if not _well_formed(section, field):
            problems.append(f"{key}: malformed section, expected int lower/upper and {field} labels")
            continue
        if section["lower"] > section["upper"]:
            problems.append(f"{key}: lower {section['lower']} exceeds upper {section['upper']}")
        try:
            ids = [g.index(lbl) for lbl in section[field]]
        except GraphError as exc:
            problems.append(f"{key}: {exc}")
            continue
        if len(set(ids)) != section["upper"]:
            problems.append(f"{key}: {field} size {len(set(ids))} != upper {section['upper']}")
        # Only gamma_p is defined on a disconnected graph.
        if key != "gamma_p" and not is_connected(g):
            problems.append(f"{key} reported for a disconnected graph")
        elif not holds(g, ids):
            problems.append(f"{key}: {field} does not {duty}")

    return problems
