"""Reports are byte-identical to the stored golden files.

Each case builds one report at a fixed timestamp and compares its JSON
text with ``tests/golden/<case>.json``. Together the cases produce
every ``upper_method`` a report can carry, so a refactor that changes
any certificate, count or tag shows up here as a byte difference.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from graphmon import (
    build_graph,
    build_report,
    canonical_power_dominating_set,
    fractal_cubic_network,
    report_to_json,
)

from _helpers import random_connected_graph, with_planted_twins

STAMP = "2026-01-01T00:00:00+00:00"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _c4():
    g = build_graph(
        ["00", "01", "10", "11"],
        [("00", "01"), ("01", "11"), ("11", "10"), ("10", "00")],
    )
    return build_report(g, timestamp=STAMP)


def _fcn2_canonical():
    return build_report(
        fractal_cubic_network(2),
        hint=canonical_power_dominating_set(2),
        timestamp=STAMP,
    )


def _fcn2_plain():
    return build_report(fractal_cubic_network(2), timestamp=STAMP)


def _disconnected():
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    return build_report(g, checks=["twins", "gamma_p"], timestamp=STAMP)


def _planted_twins():
    # Three open and one closed twin class; eta_p = 5 exceeds dim = 4.
    rng = random.Random(17)
    g = with_planted_twins(rng, random_connected_graph(rng, 11, 0.12), 3)
    return build_report(g, timestamp=STAMP)


CASES = {
    "c4": _c4,
    "fcn2_canonical": _fcn2_canonical,
    "fcn2_plain": _fcn2_plain,
    "disconnected": _disconnected,
    "planted_twins_14": _planted_twins,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_bytes(case):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert report_to_json(CASES[case]()) == expected


def test_golden_reports_cover_every_upper_method():
    seen = set()
    for case in CASES:
        report = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
        seen |= {report[k]["upper_method"] for k in ("gamma_p", "dim", "eta_p") if k in report}
    assert seen == {
        "exact-oracle",
        "exact-search",
        "greedy",
        "greedy-union",
        "componentwise",
        "hint-certificate",
    }
