"""graphmon benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One invocation runs one workload in this
process (``--workload all`` runs each in a fresh process, one after
another). The steps are:

1. generate the workload's input files from the seed (untimed);
2. set up at least five times and for at least two seconds: import
   graphmon from ./src and build or load every input graph; ``setup_s``
   is the median;
3. run whole passes over the workload's operations until the next pass
   would end after S seconds (at least one pass);
4. check the first pass's outputs with the independent checker and the
   later passes' outputs against the first (untimed).

Times are scaled to a reference machine speed (see calibration.py).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run spends half its time on
untraced passes and half on traced passes and reports per-layer
metrics, including the tracing overhead. Exit status is 0 when the
run completed, whether or not the outputs were correct; it is non-zero,
with no result line, when graphmon cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibration import Meter  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set up at least SETUP_MIN_REPS times and until SETUP_SECONDS have passed.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 5, 30, 2.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "verify_s": "s",
    "peak_rss_mib": "MiB",
    "cert_size_total": "count",
}
PER_LAYER_UNITS = {
    "core.diameter.s": "s",
    "core.bfs_distances.calls": "count",
    "core.components.calls": "count",
    "fcn.fractal_cubic_network.s": "s",
    "formats.load_graph.s": "s",
    "twins.twin_partition.calls": "count",
    "twins.twin_partition.s": "s",
    "powerdom.monitoring_closure.calls": "count",
    "powerdom.monitoring_closure.s": "s",
    "powerdom.greedy_power_dominating_set.calls": "count",
    "powerdom.greedy_power_dominating_set.s": "s",
    "powerdom.is_power_dominating_set.calls": "count",
    "powerdom.is_power_dominating_set.hit_ratio": "ratio",
    "powerdom.twin_lower_bound.s": "s",
    "powerdom.trace_to_text.s": "s",
    "resolving.is_resolving_set.calls": "count",
    "resolving.is_resolving_set.s": "s",
    "resolving.is_resolving_set.hit_ratio": "ratio",
    "resolving.greedy_resolving_set.s": "s",
    "resolving.metric_dimension.s": "s",
    "resolving.resolving_power_domination_bounds.self_s": "s",
    "resolving.resolving_power_domination_bounds.subsets_examined": "count",
    "oracle.brute_force.s": "s",
    "oracle.brute_force.subsets_examined": "count",
    "report.build_report.self_s": "s",
    "report.verify_report.s": "s",
    "trace.overhead_s": "s",
}
SETUP_LAYERS = ("fcn.", "formats.")


class SetupError(RuntimeError):
    pass


def import_graphmon():
    """Fresh import of graphmon from ./src, never from an installed copy."""
    for name in [m for m in sys.modules if m == "graphmon" or m.startswith("graphmon.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    try:
        gm = importlib.import_module("graphmon")
    except ImportError as exc:
        raise SetupError(f"cannot import graphmon from {SRC}: {exc}") from None
    if not os.path.realpath(gm.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"imported graphmon from {gm.__file__}, not from {SRC}")
    return gm


def setup(plan, meter: Meter) -> tuple:
    """Import graphmon and load every input; returns (gm, graphs, time at
    reference speed)."""
    meter.sample()
    first, spent = len(meter.samples) - 1, meter.spent
    t0 = time.perf_counter()
    gm = import_graphmon()
    graphs = workloads.load(gm, plan)
    elapsed = time.perf_counter() - t0 - (meter.spent - spent)
    meter.sample()
    return gm, graphs, elapsed * meter.scale(first)


def run_pass(gm, plan, graphs, meter: Meter) -> dict:
    """One pass: each operation, then the library's verification. Times
    are at reference speed, from the samples around each operation."""
    clock = time.perf_counter
    op_s, outs, failed, verify_s, pass_s, raw_s = {}, {}, 0, 0.0, 0.0, 0.0
    start = clock()
    meter.sample()
    for op in plan.ops:
        g = graphs[op.graph]
        first, spent0 = len(meter.samples) - 1, meter.spent
        t0 = clock()
        try:
            out = workloads.run_op(gm, op, g)
        except Exception as exc:  # a failing operation is counted, not fatal
            print(f"FAILED {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            meter.sample()
            continue
        t1, spent1, mid = clock(), meter.spent, len(meter.samples)
        workloads.verify_op(gm, op, g, out)
        t2, spent2 = clock(), meter.spent
        meter.sample()
        # each part is scaled by the samples from just before it to just after it
        run_time = (t1 - t0 - (spent1 - spent0)) * meter.scale(first, mid + 1)
        verify_time = (t2 - t1 - (spent2 - spent1)) * meter.scale(mid - 1)
        op_s[op.name] = run_time
        verify_s += verify_time
        pass_s += run_time + verify_time
        raw_s += t2 - t0 - (spent2 - spent0)
        outs[op.name] = out
    return {
        "s": pass_s,
        "raw_s": raw_s,
        "wall_s": clock() - start,
        "op_s": op_s,
        "outs": outs,
        "failed": failed,
        "verify_s": verify_s,
    }


def run_passes(gm, plan, graphs, meter: Meter, budget: float) -> list[dict]:
    """Whole passes until the next one would end after `budget` seconds."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same collector state
        passes.append(run_pass(gm, plan, graphs, meter))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall_s"] for p in passes) > budget:
            return passes


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(plan, graphs, passes) -> list[str]:
    """Independent check of the first pass; later passes must repeat it."""
    first = passes[0]["outs"]
    problems = plan.check(plan, graphs, first) if first else []
    for p in passes[1:]:
        for name, out in p["outs"].items():
            if name in first and sha(out["text"]) != sha(first[name]["text"]):
                problems.append(f"{name}: output differs between passes")
    return problems


def end_to_end(setup_times, passes, plan) -> dict[str, float]:
    """Pass, verify and set-up times are medians over the run; the
    per-operation percentiles are taken over each operation's median
    time, so they do not depend on how many passes fitted in the run."""
    first = passes[0]["outs"]
    op_ms = [
        statistics.median(p["op_s"][op.name] for p in passes if op.name in p["op_s"]) * 1000
        for op in plan.ops
        if op.name in first
    ]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p["s"] for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8] if len(op_ms) > 1 else op_ms[0],
        "verify_s": statistics.median(p["verify_s"] for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cert_size_total": sum(workloads.output_size(op, first[op.name]) for op in plan.ops if op.name in first),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "graphmon", "__init__.py")):
        raise SetupError(f"graphmon sources not found under {SRC}")
    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = workloads.WORKLOADS[workload](seed, workdir)
        with Meter() as meter:
            setup_times: list[float] = []
            while len(setup_times) < SETUP_MIN_REPS or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPS
            ):
                gm = graphs = None
                gc.collect()
                gm, graphs, seconds_ = setup(plan, meter)
                setup_times.append(seconds_)
            if not trace:
                passes = run_passes(gm, plan, graphs, meter, seconds)
                metrics = end_to_end(setup_times, passes, plan)
            else:
                plain = run_passes(gm, plan, graphs, meter, seconds / 2)
                tracer = Tracer()
                tracer.install()
                meter.sample()
                first = len(meter.samples) - 1
                graphs = workloads.load(gm, plan)
                meter.sample()
                setup_layers = tracer.metrics(1, meter.scale(first))
                tracer.reset()
                passes = run_passes(gm, plan, graphs, meter, seconds / 2)
                scale = sum(p["s"] for p in passes) / sum(p["raw_s"] for p in passes)
                layers = tracer.metrics(len(passes), scale)
                layers.update({k: v for k, v in setup_layers.items() if k.startswith(SETUP_LAYERS)})
                layers["trace.overhead_s"] = statistics.median(p["s"] for p in passes) - statistics.median(
                    p["s"] for p in plain
                )
                metrics = {name: layers[name] for name in PER_LAYER_UNITS}
                passes = plain + passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    for name, out in passes[0]["outs"].items():
        print(f"sha256 {name} {sha(out['text'])}")
    raw = statistics.median(p["raw_s"] for p in passes)
    print(f"wall-clock pass {raw:.3f} s; reference-speed pass {statistics.median(p['s'] for p in passes):.3f} s")
    problems = check(plan, graphs, passes)
    for p in problems:
        print(f"CHECK {p}", file=sys.stderr)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": len(passes) * len(plan.ops),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            print(f"# {name}", flush=True)
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
