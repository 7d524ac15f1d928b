"""The functions the benchmark's per-layer tracer wraps still exist.

``bench/tracing.py`` names each traced function as ``module.function``
and patches it at run time, so a rename in graphmon would otherwise
only show up as a failed ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_is_a_graphmon_callable():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    assert layers
    for name in layers:
        module, func = name.split(".")
        target = getattr(importlib.import_module(f"graphmon.{module}"), func, None)
        assert callable(target), f"bench/tracing.py traces {name}, which graphmon lacks"
