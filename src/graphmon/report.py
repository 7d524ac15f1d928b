"""Analysis reports: a versioned JSON summary of one graph.

The report bundles the graph census, twin classes, and the invariant
bounds with their certificates and method tags. Certificates are stored
as label lists so a report can be re-verified against the graph it came
from without trusting the producer.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from functools import cache
from typing import Iterable

from .core import EXACT_LIMIT, UNREACHABLE, Bounds, Graph, GraphError, bfs_distances, diameter
from .powerdom import power_domination_bounds
from .resolving import (
    CERTIFICATE_CHECKS,
    ETA_P_EXACT_LIMIT,
    metric_dimension_bounds,
    resolving_power_domination_bounds,
)
from .twins import twin_report
from .version import VERSION

REPORT_VERSION = 1
# Each bounds section: the field holding its certificate, and what the
# certificate must do to the graph.
SECTIONS = {
    "gamma_p": ("certificate", "monitor the graph"),
    "dim": ("basis", "resolve the graph"),
    "eta_p": ("certificate", "resolve and monitor"),
}
KNOWN_CHECKS = ("twins", *SECTIONS)
# The checks that build the dim section, which tries the hint as a
# resolving set.
DIM_CHECKS = frozenset({"dim", "eta_p"})


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
) -> dict:
    """Assemble the analysis report for the requested checks.

    exact_limit caps exhaustive searches by vertex count; the combined
    resolving-and-monitoring search uses at most ETA_P_EXACT_LIMIT
    regardless, since its space grows the fastest. The hint is checked
    whatever the checks, then tried as the upper certificate of gamma_p
    and dim, and a section it certifies is tagged hint-certificate;
    eta_p prunes the union of their certificates. Passing a fixed
    timestamp makes the output byte-reproducible.
    """
    wanted = list(checks)
    unknown = sorted(set(wanted) - set(KNOWN_CHECKS))
    if unknown:
        raise ValueError(f"unknown checks {unknown}, expected a subset of {list(KNOWN_CHECKS)}")
    hint = None if hint is None else g.check_vertex_set(hint)

    def section(b: Bounds, key: str) -> dict:
        field = SECTIONS[key][0]
        out = {
            "lower": b.lower,
            "upper": b.upper,
            field: [g.labels[v] for v in sorted(b.certificate)],
            "lower_method": b.lower_method,
            "upper_method": b.upper_method,
        }
        # The dim section, which names its certificate "basis", has no search count.
        if field == "certificate":
            out["subsets_examined"] = b.subsets_examined
        return out

    when = timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds")
    # Bounded sections first: an input they refuse costs no summary or census.
    bounds: dict[str, Bounds] = {}
    if DIM_CHECKS.intersection(wanted):
        bounds["dim"] = metric_dimension_bounds(g, exact_limit=exact_limit, hint=hint)
    if "gamma_p" in wanted or "eta_p" in wanted:
        bounds["gamma_p"] = power_domination_bounds(g, exact_limit=exact_limit, hint=hint)
    if "eta_p" in wanted:
        bounds["eta_p"] = resolving_power_domination_bounds(
            g, bounds["gamma_p"], bounds["dim"], exact_limit=min(exact_limit, ETA_P_EXACT_LIMIT)
        )
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
    for key in SECTIONS:
        if key in wanted:
            report[key] = section(bounds[key], key)
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


def _same_histogram(hist: object, g: Graph) -> bool:
    """Whether hist is g's degree histogram, keyed by ints or by the
    strings a JSON round trip leaves."""
    if not isinstance(hist, dict):
        return False
    keyed = {str(d): c for d, c in hist.items() if type(c) is int}
    return len(keyed) == len(hist) and keyed == {str(d): c for d, c in degree_histogram(g).items()}


def verify_report(g: Graph, report: object) -> list[str]:
    """Re-check a report against the graph: the summary, the twin census
    and every certificate.

    Returns a list of human-readable problems, empty when the report is
    internally consistent and all certificates verify. Any JSON value is
    accepted: a report or section of the wrong shape is a problem too.
    """
    if not isinstance(report, dict):
        return ["report: malformed, expected an object"]
    problems: list[str] = []

    def expect_int(where: str, got: object, expected: int) -> None:
        if type(got) is not int or got != expected:
            problems.append(f"{where} is {got!r}, expected {expected}")

    # One BFS settles connectivity and brackets the diameter: for any
    # vertex v, ecc(v) <= diameter <= 2 * ecc(v).
    row = bfs_distances(g, 0) if g.n else []
    connected = UNREACHABLE not in row
    ecc = max(row, default=0)

    summary = report.get("graph_summary", {})
    census = report.get("twin_census", {})
    for key, value in (("graph_summary", summary), ("twin_census", census)):
        if not isinstance(value, dict):
            problems.append(f"{key}: malformed section, expected an object")
    if isinstance(summary, dict):
        expect_int("graph_summary.n", summary.get("n"), g.n)
        expect_int("graph_summary.m", summary.get("m"), g.m)
        if not _same_histogram(summary.get("degree_histogram"), g):
            problems.append("graph_summary.degree_histogram does not match a fresh computation")
        diam = summary.get("diameter")
        if not connected and diam != "disconnected":
            problems.append(f"graph_summary.diameter is {diam!r}, expected 'disconnected'")
        elif connected and not (type(diam) is int and ecc <= diam <= 2 * ecc):
            problems.append(
                f"graph_summary.diameter is {diam!r}, expected an int from {ecc} to {2 * ecc}"
            )

    # The twin census and each verdict per distinct set, computed on first ask.
    twins = cache(lambda: twin_report(g))

    @cache
    def holds(key: str, ids: frozenset[int]) -> bool:
        if key == "eta_p":
            return holds("dim", ids) and holds("gamma_p", ids)
        return CERTIFICATE_CHECKS[key](g, ids)

    if "twin_census" in report and isinstance(census, dict):
        for kind, fresh in twins().items():
            if census.get(kind) != fresh:
                problems.append(f"twin_census.{kind} does not match a fresh computation")
            expect_int(f"twin_census.{kind}_count", census.get(f"{kind}_count"), len(fresh))

    for key, (field, duty) in SECTIONS.items():
        if key not in report:
            continue
        section = report[key]
        if not _well_formed(section, field):
            problems.append(f"{key}: malformed section, expected int lower/upper and {field} labels")
            continue
        if section["lower"] > section["upper"]:
            problems.append(f"{key}: lower {section['lower']} exceeds upper {section['upper']}")
        # Lower bounds that need no search: the twin lemma's landmark count,
        # and the sandwich max(gamma_p, dim) <= eta_p.
        cap = None
        if key == "dim" and section.get("lower_method") in ("twin-lower", "trivial-lower"):
            forced = sum(len(c) - 1 for classes in twins().values() for c in classes)
            cap, source = max(min(1, g.n - 1), forced), "the twin bound"
        elif key == "eta_p" and section.get("lower_method") == "sandwich-lower":
            sides = [report.get("gamma_p"), report.get("dim")]
            if all(isinstance(side, dict) and type(side.get("lower")) is int for side in sides):
                cap, source = max(side["lower"] for side in sides), "the sandwich bound"
        if cap is not None and section["lower"] > cap:
            problems.append(f"{key}: lower {section['lower']} exceeds {source} {cap}")
        try:
            ids = frozenset(g.index(lbl) for lbl in section[field])
        except GraphError as exc:
            problems.append(f"{key}: {exc}")
            continue
        if len(ids) != section["upper"]:
            problems.append(f"{key}: {field} size {len(ids)} != upper {section['upper']}")
        # Only gamma_p is defined on a disconnected graph.
        if key != "gamma_p" and not connected:
            problems.append(f"{key} reported for a disconnected graph")
        elif not holds(key, ids):
            problems.append(f"{key}: {field} does not {duty}")

    return problems
