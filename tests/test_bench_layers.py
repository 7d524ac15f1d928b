"""The benchmark's per-layer tracer still fits graphmon.

``bench/tracing.py`` names each traced function as ``module.function``,
patches it at run time and reads its results through extractors. A
rename or a changed return type in graphmon would otherwise only show
up as a failed ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import graphmon

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# The subprocess runs the same graphmon these tests import.
SRC = str(Path(graphmon.__file__).resolve().parent.parent)


def test_every_traced_layer_is_a_graphmon_callable():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    assert layers
    for name in layers:
        module, func = name.split(".")
        target = getattr(importlib.import_module(f"graphmon.{module}"), func, None)
        assert callable(target), f"bench/tracing.py traces {name}, which graphmon lacks"


# Runs in a fresh interpreter: the tracer patches graphmon's module
# attributes for good, which would leak into the other tests.
TRACED_RUN = """
import json, runpy, sys
import graphmon

tracing = runpy.run_path(sys.argv[1])
tracer = tracing["Tracer"]()
tracer.install()
resolving_calls = tracer.stats["resolving.is_resolving_set"]

problems = []
fcn1 = graphmon.fractal_cubic_network(1)
fcn2 = graphmon.fractal_cubic_network(2)
for g, hint in ((fcn1, None), (fcn2, graphmon.canonical_power_dominating_set(2))):
    report = graphmon.build_report(g, hint=hint, timestamp="2026-01-01T00:00:00+00:00")
    problems += graphmon.verify_report(g, report)
graphmon.brute_force(graphmon.build_graph("abcd", ["ab", "bc", "cd", "da"]), "dim")

dim_only = graphmon.build_report(fcn1, checks=["dim"], timestamp="2026-01-01T00:00:00+00:00")
before = resolving_calls.calls
problems += graphmon.verify_report(fcn1, dim_only)
print(json.dumps({
    "problems": problems,
    "uncalled": [
        name
        for name, extractors in tracing["LAYERS"].items()
        if any(extractors) and tracer.stats[name].calls == 0
    ],
    "verify_resolving_calls": resolving_calls.calls - before,
}))
"""


def test_traced_run_meets_the_tracers_assumptions():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["problems"] == []
    assert out["uncalled"] == []
    # verify_report reaches is_resolving_set through the module attribute
    # the tracer wraps, not through a function object held elsewhere.
    assert out["verify_resolving_calls"] >= 1


def test_bench_selftest_passes():
    # The benchmark's checker must accept graphmon's genuine reports and
    # reject tampered ones; a report change it refuses fails here first.
    repo = TRACING.parent.parent
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
