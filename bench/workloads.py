"""The four workloads: their inputs, their operations and their checks.

A workload is a ``Plan``: input graphs (files written by the generators
in ``inputs.py``, or FCN dimensions graphmon builds itself), the
operations one pass runs over them, and a check of one pass's outputs
against the independent checker.

Operations mirror the command line:

* analyze: ``build_report`` then ``report_to_json``, with the canonical
  seeds as the hint on FCN inputs, as ``graphmon analyze --dim`` does;
  ``verify_report`` then re-checks the report.
* monitor: ``monitoring_closure`` then ``trace_to_text``, as
  ``graphmon monitor --trace`` does; ``is_power_dominating_set`` is the
  library's own check of the seed set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import checker
import inputs

ALL_CHECKS = ("twins", "gamma_p", "dim", "eta_p")
FIXED_TIMESTAMP = "2026-01-01T00:00:00+00:00"


@dataclass
class Input:
    name: str
    spec: inputs.Spec | None = None  # generator data of a file input
    path: str | None = None  # file graphmon loads
    dim: int | None = None  # FCN dimension graphmon builds


@dataclass
class Op:
    name: str
    graph: str
    kind: str  # "analyze" | "monitor"
    checks: tuple[str, ...] = ALL_CHECKS
    hint_dim: int | None = None
    seeds: list[str] = field(default_factory=list)


@dataclass
class Plan:
    inputs: list[Input]
    ops: list[Op]
    # (plan, graphmon graphs by input name, outputs by op name) -> problems
    check: Callable[["Plan", dict, dict], list[str]]


def load(gm, plan: Plan) -> dict:
    """Every input graph, built or loaded through graphmon."""
    return {
        inp.name: gm.fractal_cubic_network(inp.dim) if inp.dim is not None else gm.load_graph(inp.path)
        for inp in plan.inputs
    }


def run_op(gm, op: Op, g) -> dict:
    """One operation, as the command line runs it."""
    if op.kind == "analyze":
        hint = gm.canonical_power_dominating_set(op.hint_dim) if op.hint_dim is not None else None
        report = gm.build_report(g, checks=op.checks, hint=hint, timestamp=FIXED_TIMESTAMP)
        if hint is not None:
            # graphmon analyze --dim renames the tag after build_report
            for key in ("gamma_p", "eta_p"):
                if report.get(key, {}).get("upper_method") == "hint-certificate":
                    report[key]["upper_method"] = "canonical-certificate"
        return {"report": report, "text": gm.report_to_json(report)}
    seeds = [g.index(lab) for lab in op.seeds]
    trace = gm.monitoring_closure(g, seeds)
    return {"final": len(trace.final), "text": gm.trace_to_text(g, trace), "seed_ids": seeds}


def verify_op(gm, op: Op, g, out: dict) -> None:
    """The library's own check of an operation's output."""
    if op.kind == "analyze":
        out["verify"] = gm.verify_report(g, out["report"])
    else:
        out["verify"] = gm.is_power_dominating_set(g, out["seed_ids"])


def output_size(op: Op, out: dict) -> int:
    """Upper certificate sizes of a report, or the monitored set's size."""
    if op.kind == "monitor":
        return out["final"]
    report = out["report"]
    return sum(
        len(report[key][field_])
        for key, field_ in (("gamma_p", "certificate"), ("dim", "basis"), ("eta_p", "certificate"))
        if key in report
    )


def _from_graphmon(g) -> checker.Graph:
    labels = list(g.labels)
    return checker.Graph(labels, [(labels[u], labels[v]) for u, v in g.edges()])


def _report_problems(op: Op, out: dict) -> list[str]:
    return [f"{op.name}: verify_report: {p}" for p in out["verify"]]


def _file_inputs(plan: Plan, graphs: dict) -> tuple[dict, list[str]]:
    """Checker graphs from the generator data, and whether graphmon read
    each file back with the same labels and edge count."""
    problems, cgs = [], {}
    for inp in plan.inputs:
        cg = cgs[inp.name] = checker.Graph(inp.spec.labels, inp.spec.edges)
        g = graphs[inp.name]
        if list(g.labels) != cg.labels or g.m != cg.m:
            problems.append(f"{inp.name}: load_graph gave n={g.n} m={g.m}, expected {cg.n}, {cg.m}")
    return cgs, problems


# ------------------------------------------------------------ fcn-certify


def _check_fcn(plan: Plan, graphs: dict, outs: dict) -> list[str]:
    cgs = {inp.dim: _from_graphmon(graphs[inp.name]) for inp in plan.inputs}
    problems = checker.check_fcn_family(cgs)
    for d, cg in cgs.items():
        labels, edges = inputs.fcn_edges(d)
        if cg.labels != labels or cg.m != len(edges) or any(cg.index[b] not in cg.adj[cg.index[a]] for a, b in edges):
            problems.append(f"FCN({d}) differs from the definition")
    for op in plan.ops:
        problems += _report_problems(op, outs[op.name])
        problems += [f"{op.name}: {p}" for p in checker.check_fcn_report(op.hint_dim, cgs[op.hint_dim], outs[op.name]["report"])]
    return problems


def fcn_certify(seed: int, workdir: str) -> Plan:
    """analyze --dim 4 and analyze --dim 5 --checks twins,gamma-p,eta-p.
    The inputs do not depend on the seed."""
    ins = [Input(f"fcn{d}", dim=d) for d in range(6)]
    ops = [
        Op("analyze-d4", "fcn4", "analyze", ALL_CHECKS, hint_dim=4),
        Op("analyze-d5", "fcn5", "analyze", ("twins", "gamma_p", "eta_p"), hint_dim=5),
    ]
    return Plan(ins, ops, _check_fcn)


# ---------------------------------------------------------- greedy-sparse

# Twelve graphs of one size: the operations are alike, so their median,
# 90th percentile and certificate total do not hinge on one tree each.
SPARSE_N, SPARSE_GRAPHS = 160, 12


def _check_reports(check_one) -> Callable:
    def check(plan: Plan, graphs: dict, outs: dict) -> list[str]:
        cgs, problems = _file_inputs(plan, graphs)
        for op in plan.ops:
            problems += _report_problems(op, outs[op.name])
            problems += [f"{op.name}: {p}" for p in check_one(cgs[op.graph], outs[op.name]["report"])]
        return problems

    return check


def greedy_sparse(seed: int, workdir: str) -> Plan:
    """Random trees plus n/2 chords, edge-list files, full reports."""
    ins, ops = [], []
    n = SPARSE_N
    for i in range(SPARSE_GRAPHS):
        spec = inputs.tree_plus_chords(inputs.rng_for("greedy-sparse", seed, i), n, n // 2, f"sparse{i}")
        ins.append(Input(spec.name, spec, os.path.join(workdir, f"{spec.name}.txt")))
        inputs.write_edgelist(spec, ins[-1].path)
        ops.append(Op(f"analyze-{spec.name}", spec.name, "analyze"))
    return Plan(ins, ops, _check_reports(checker.check_sparse_report))


# ------------------------------------------------------------ exact-small

EXACT_SIZES = range(10, 25)
# Exhaustive work per slot, as a multiple of n * C(n, 3); see exhaustive_work.
EXACT_LADDER = (2, 3, 4.5, 6, 9, 13, 20, 30)
EXACT_POOL = 48


def exact_small(seed: int, workdir: str) -> Plan:
    """Eight graphs per n = 10..24 with planted twins, JSON files.

    For each n the generator draws a pool of candidates and keeps, for
    each rung of EXACT_LADDER, the one whose exhaustive metric-dimension
    work is nearest the rung. The seed then changes the graphs' structure
    but hardly the amount of exhaustive work, which otherwise varies
    by tens of percent from seed to seed."""
    ins, ops = [], []
    for n in EXACT_SIZES:
        pool = []
        for c in range(EXACT_POOL):
            rng = inputs.rng_for("exact-small", seed, n, c)
            spec = inputs.planted_twins(rng, n, 1 + c % 3, n, f"exact{n}_{c}")
            pool.append((inputs.exhaustive_work(spec) / (n * math.comb(n, 3)), c, spec))
        for rung in EXACT_LADDER:
            pick = min(pool, key=lambda t: (abs(math.log(t[0] / rung)), t[1]))
            pool.remove(pick)
            spec = pick[2]
            ins.append(Input(spec.name, spec, os.path.join(workdir, f"{spec.name}.json")))
            inputs.write_json(spec, ins[-1].path)
            ops.append(Op(f"analyze-{spec.name}", spec.name, "analyze"))
    return Plan(ins, ops, _check_reports(checker.check_exact_report))


# --------------------------------------------------------- monitor-chains

FCN_MONITOR_DIM = 7
FCN_RANDOM_SETS = 8
FCN_RANDOM_SIZE = 4**6


def _check_monitor(plan: Plan, graphs: dict, outs: dict) -> list[str]:
    cgs, problems = _file_inputs(plan, graphs)
    full = {inp.name: inp.spec.seed_sets[0] for inp in plan.inputs}  # chains and canonical FCN seeds
    for op in plan.ops:
        cg, out = cgs[op.graph], outs[op.name]
        seeds = cg.ids(op.seeds)
        problems += [f"{op.name}: {p}" for p in checker.check_trace(cg, seeds, out["text"])]
        final = checker.closure(cg, seeds)
        if out["final"] != len(final) or out["verify"] != (len(final) == cg.n):
            problems.append(f"{op.name}: monitored {out['final']}, pds={out['verify']}; closure has {len(final)}")
        if op.seeds == full[op.graph] and len(final) != cg.n:
            problems.append(f"{op.name}: seeded chain or canonical set does not monitor the graph")
    return problems


def monitor_chains(seed: int, workdir: str) -> Plan:
    """Paths seeded at one end, narrow grids seeded on a short side, and
    FCN(7) (65,536 vertices) with its canonical seeds and random seeds."""
    rng = inputs.rng_for("monitor-chains", seed)
    specs = [
        inputs.path(rng, 3000, "path3000"),
        inputs.path(rng, 4000, "path4000"),
        inputs.grid(rng, 3, 1200, "grid3x1200"),
        inputs.grid(rng, 5, 600, "grid5x600"),
    ]
    labels, edges = inputs.fcn_edges(FCN_MONITOR_DIM)
    seed_sets = inputs.fcn_seed_sets(rng, labels, FCN_RANDOM_SETS, FCN_RANDOM_SIZE)
    specs.append(inputs.Spec("fcn7", labels, edges, seed_sets))
    ins, ops = [], []
    for spec in specs:
        ins.append(Input(spec.name, spec, os.path.join(workdir, f"{spec.name}.txt")))
        inputs.write_edgelist(spec, ins[-1].path)
        for i, seeds in enumerate(spec.seed_sets):
            ops.append(Op(f"monitor-{spec.name}-{i}", spec.name, "monitor", seeds=seeds))
    return Plan(ins, ops, _check_monitor)


WORKLOADS = {
    "fcn-certify": fcn_certify,
    "greedy-sparse": greedy_sparse,
    "exact-small": exact_small,
    "monitor-chains": monitor_chains,
}
