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

from .core import Graph, GraphError, diameter, is_connected
from .powerdom import is_power_dominating_set, power_domination_bounds
from .resolving import (
    is_resolving_power_dominating,
    is_resolving_set,
    metric_dimension_bounds,
    resolving_power_domination_bounds,
)
from .twins import twin_partition, twin_report
from .version import VERSION

REPORT_VERSION = 1
KNOWN_CHECKS = ("twins", "gamma_p", "dim", "eta_p")
ETA_P_EXACT_CAP = 16


def degree_histogram(g: Graph) -> dict[int, int]:
    hist: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def build_report(
    g: Graph,
    checks: Iterable[str] = KNOWN_CHECKS,
    exact_limit: int = 24,
    hint: Iterable[int] | None = None,
    timestamp: str | None = None,
    hint_method: str = "hint-certificate",
) -> dict:
    """Assemble the analysis report for the requested checks.

    exact_limit caps exhaustive searches by vertex count; the combined
    resolving-and-monitoring search uses at most 16 regardless, since
    its space grows the fastest. The hint is tried as the upper
    certificate of every bounded section, and a section it certifies is
    tagged hint_method. Passing a fixed timestamp makes the output
    byte-reproducible.
    """
    wanted = list(checks)
    unknown = sorted(set(wanted) - set(KNOWN_CHECKS))
    if unknown:
        raise ValueError(f"unknown checks {unknown}, expected a subset of {list(KNOWN_CHECKS)}")

    def names(ids: Iterable[int]) -> list[str]:
        return [g.labels[v] for v in sorted(ids)]

    def upper_method(method: str) -> str:
        return hint_method if method == "hint-certificate" else method

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
        part = twin_partition(g)
        section = twin_report(g, part)
        section["open_count"] = len(part.open_classes)
        section["closed_count"] = len(part.closed_classes)
        report["twin_census"] = section
    if "gamma_p" in wanted or "eta_p" in wanted:
        power = power_domination_bounds(g, exact_limit=exact_limit, hint=hint)
    if "gamma_p" in wanted:
        report["gamma_p"] = {
            "lower": power.lower,
            "upper": power.upper,
            "certificate": names(power.certificate),
            "lower_method": power.lower_method,
            "upper_method": upper_method(power.upper_method),
            "subsets_examined": power.subsets_examined,
        }
    if "dim" in wanted:
        rb = metric_dimension_bounds(g, exact_limit=exact_limit, hint=hint)
        report["dim"] = {
            "lower": rb.lower,
            "upper": rb.upper,
            "basis": names(rb.basis),
            "lower_method": rb.lower_method,
            "upper_method": upper_method(rb.upper_method),
        }
    if "eta_p" in wanted:
        eb = resolving_power_domination_bounds(
            g,
            exact_limit=min(exact_limit, ETA_P_EXACT_CAP),
            hint=hint,
            power_bounds=power,
        )
        report["eta_p"] = {
            "lower": eb.lower,
            "upper": eb.upper,
            "certificate": names(eb.certificate),
            "lower_method": eb.lower_method,
            "upper_method": upper_method(eb.upper_method),
            "subsets_examined": eb.subsets_examined,
        }
    report["traces"] = None
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def verify_report(g: Graph, report: dict) -> list[str]:
    """Re-check every certificate in a report against the graph.

    Returns a list of human-readable problems, empty when the report is
    internally consistent and all certificates verify.
    """
    problems: list[str] = []

    def ids_of(labels: list[str], where: str) -> list[int] | None:
        try:
            return [g.index(lbl) for lbl in labels]
        except GraphError as exc:
            problems.append(f"{where}: {exc}")
            return None

    summary = report.get("graph_summary", {})
    if summary.get("n") != g.n:
        problems.append(f"graph_summary.n is {summary.get('n')}, expected {g.n}")
    if summary.get("m") != g.m:
        problems.append(f"graph_summary.m is {summary.get('m')}, expected {g.m}")

    if "twin_census" in report:
        expected = twin_report(g)
        for kind in ("open", "closed"):
            if report["twin_census"].get(kind) != expected[kind]:
                problems.append(f"twin_census.{kind} does not match a fresh computation")

    if "gamma_p" in report:
        section = report["gamma_p"]
        if section["lower"] > section["upper"]:
            problems.append(f"gamma_p: lower {section['lower']} exceeds upper {section['upper']}")
        ids = ids_of(section["certificate"], "gamma_p")
        if ids is not None:
            if len(set(ids)) != section["upper"]:
                problems.append(
                    f"gamma_p: certificate size {len(set(ids))} != upper {section['upper']}"
                )
            if not is_power_dominating_set(g, ids):
                problems.append("gamma_p: certificate does not monitor the graph")

    if "dim" in report:
        section = report["dim"]
        if section["lower"] > section["upper"]:
            problems.append(f"dim: lower {section['lower']} exceeds upper {section['upper']}")
        ids = ids_of(section["basis"], "dim")
        if ids is not None:
            if len(set(ids)) != section["upper"]:
                problems.append(f"dim: basis size {len(set(ids))} != upper {section['upper']}")
            if not is_connected(g):
                problems.append("dim reported for a disconnected graph")
            elif not is_resolving_set(g, ids)[0]:
                problems.append("dim: basis does not resolve the graph")

    if "eta_p" in report:
        section = report["eta_p"]
        if section["lower"] > section["upper"]:
            problems.append(f"eta_p: lower {section['lower']} exceeds upper {section['upper']}")
        ids = ids_of(section["certificate"], "eta_p")
        if ids is not None:
            if len(set(ids)) != section["upper"]:
                problems.append(
                    f"eta_p: certificate size {len(set(ids))} != upper {section['upper']}"
                )
            if not is_connected(g):
                problems.append("eta_p reported for a disconnected graph")
            elif not is_resolving_power_dominating(g, ids):
                problems.append("eta_p: certificate does not resolve and monitor")

    return problems
