"""Per-layer tracing for the traced run.

``Tracer.install`` replaces each named public function with a timing
wrapper in every graphmon module that holds a reference to it, so the
package's own internal calls (``report`` calling ``diameter``,
``resolving`` calling ``bfs_distances``) go through the wrapper too.
Nothing in the package is edited; the end-to-end run never installs it.

For each function the tracer counts calls, inclusive time (outermost
activations only, so recursion is not counted twice) and self time:
the span's duration minus the durations of the wrapped spans it
directly encloses. Optional extractors count true results (for hit
ratios) and sum ``subsets_examined`` from the returned bounds.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

# name -> (hit extractor, subsets_examined extractor)
LAYERS: dict[str, tuple[Callable | None, Callable | None]] = {
    "core.bfs_distances": (None, None),
    "core.components": (None, None),
    "core.diameter": (None, None),
    "fcn.fractal_cubic_network": (None, None),
    "formats.load_graph": (None, None),
    "twins.twin_partition": (None, None),
    "powerdom.monitoring_closure": (None, None),
    "powerdom.is_power_dominating_set": (bool, None),
    "powerdom.twin_lower_bound": (None, None),
    "powerdom.greedy_power_dominating_set": (None, None),
    "powerdom.trace_to_text": (None, None),
    "resolving.is_resolving_set": (lambda r: r[0], None),
    "resolving.greedy_resolving_set": (None, None),
    "resolving.metric_dimension": (None, None),
    "resolving.resolving_power_domination_bounds": (None, lambda r: r.subsets_examined),
    "oracle.brute_force": (None, lambda r: r.subsets_examined),
    "report.build_report": (None, None),
    "report.verify_report": (None, None),
}


@dataclass
class Stat:
    calls: int = 0
    hits: int = 0
    examined: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    depth: int = 0


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: Stat() for name in LAYERS}
        self._children: list[float] = []  # per open span: time of its direct wrapped children

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("graphmon.") and m is not None]
        for qualified, (hit, examined) in LAYERS.items():
            module, func = qualified.split(".")
            original = getattr(sys.modules[f"graphmon.{module}"], func)
            wrapper = self._wrap(self.stats[qualified], original, hit, examined)
            for mod in modules + [sys.modules["graphmon"]]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, stat: Stat, fn: Callable, hit, examined) -> Callable:
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += elapsed - children.pop()
                if stat.depth == 0:
                    stat.inclusive += elapsed
                if children:
                    children[-1] += elapsed
            if hit is not None and hit(result):
                stat.hits += 1
            if examined is not None:
                stat.examined += examined(result) or 0
            return result

        return wrapper

    def reset(self) -> None:
        for st in self.stats.values():
            st.calls = st.hits = st.examined = 0
            st.inclusive = st.self_time = 0.0

    def metrics(self, passes: int, scale: float) -> dict[str, float]:
        """Per-pass figures; times are multiplied by `scale`, the factor
        that turns this stretch's wall time into reference-speed time."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls / passes
            out[f"{name}.s"] = st.inclusive * scale / passes
            out[f"{name}.self_s"] = st.self_time * scale / passes
            out[f"{name}.hit_ratio"] = st.hits / st.calls if st.calls else 0.0
            out[f"{name}.subsets_examined"] = st.examined / passes
        return out
