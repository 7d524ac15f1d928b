"""Propagation traces are byte-identical to the stored golden files.

Each case runs ``monitoring_closure`` from a fixed seed set and compares
``trace_to_text`` with ``tests/golden/traces/<case>.txt``. The text pins
two rules that ``assert_valid_trace`` does not check: a forced vertex
records its smallest-id forcer, and all forcings of a round apply
together, so a vertex forced in round t cannot force again before round
t + 1.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from graphmon import (
    build_graph,
    canonical_power_dominating_set,
    fractal_cubic_network,
    monitoring_closure,
    trace_to_text,
)

from _helpers import grid_graph, path_graph, random_tree_plus_chords

GOLDEN = Path(__file__).resolve().parent / "golden" / "traces"


def _c4():
    g = build_graph(
        ["00", "01", "10", "11"],
        [("00", "01"), ("01", "11"), ("11", "10"), ("10", "00")],
    )
    return g, [g.index("00")]


def _path():
    return path_graph(50), [0]


def _grid():
    g = grid_graph(3, 30)
    return g, [g.index("r0c0")]


def _fcn2_canonical():
    return fractal_cubic_network(2), canonical_power_dominating_set(2)


def _fcn2_random():
    g = fractal_cubic_network(2)
    return g, random.Random(5).sample(range(g.n), 4)


def _tree_chords():
    # A random recursive tree on 40 vertices plus 20 distinct chords.
    rng = random.Random(8)
    g = random_tree_plus_chords(rng, 40, 20)
    return g, rng.sample(range(g.n), 3)


CASES = {
    "c4_00": _c4,
    "path50_end": _path,
    "grid3x30_corner": _grid,
    "fcn2_canonical": _fcn2_canonical,
    "fcn2_random4": _fcn2_random,
    "tree40_chords": _tree_chords,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden_bytes(case):
    g, seeds = CASES[case]()
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert trace_to_text(g, monitoring_closure(g, seeds)) == expected
