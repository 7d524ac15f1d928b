"""Self-test of the independent checker: it accepts graphmon's genuine
outputs and rejects tampered ones.

    python3 bench/selftest.py

Run from the repository root; exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
import graphmon as gm  # noqa: E402


def genuine(spec: inputs.Spec) -> tuple[checker.Graph, dict]:
    g = gm.build_graph(spec.labels, spec.edges)
    return checker.Graph(spec.labels, spec.edges), gm.build_report(g, timestamp="fixed")


def main() -> int:
    failures: list[str] = []

    def expect(name: str, problems: list[str], rejected: bool) -> None:
        if bool(problems) != rejected:
            failures.append(f"{name}: expected {'rejection' if rejected else 'acceptance'}, got {problems}")
        print(f"{'ok ' if bool(problems) == rejected else 'BAD'} {name}: {problems[:1]}")

    # A star: the centre power-dominates, a leaf does not.
    star = inputs.Spec("star", ["c", "l1", "l2", "l3", "l4"], [("c", f"l{i}") for i in range(1, 5)])
    cg, report = genuine(star)
    expect("star genuine", checker.check_exact_report(cg, report), False)
    bad = copy.deepcopy(report)
    bad["gamma_p"]["certificate"] = ["l1"]
    expect("tampered certificate", checker.check_certificates(cg, bad), True)

    spec = inputs.planted_twins(inputs.rng_for("selftest", 0), 12, 2, 12, "twins12")
    cg, report = genuine(spec)
    expect("planted-twins genuine", checker.check_exact_report(cg, report), False)
    bad = copy.deepcopy(report)
    extra = next(lab for lab in spec.labels if lab not in bad["dim"]["basis"])
    bad["dim"]["basis"] = sorted(bad["dim"]["basis"] + [extra])
    bad["dim"]["lower"] = bad["dim"]["upper"] = len(bad["dim"]["basis"])
    expect("off-by-one optimum (valid but larger basis)", checker.check_exact_report(cg, bad), True)
    bad = copy.deepcopy(report)
    bad["graph_summary"]["diameter"] += 1
    expect("wrong diameter", checker.check_summary(cg, bad), True)

    fcn = {d: checker.Graph(*inputs.fcn_edges(d)) for d in range(4)}
    expect("FCN(0..3) family", checker.check_fcn_family(fcn), False)
    labels, edges = inputs.fcn_edges(3)
    expect("FCN(3) with a dropped cross edge", checker.check_fcn_family({**fcn, 3: checker.Graph(labels, edges[:-1])}), True)

    chain = inputs.path(inputs.rng_for("selftest", 1), 30, "path30")
    g = gm.build_graph(chain.labels, chain.edges)
    seeds = [g.index(lab) for lab in chain.seed_sets[0]]
    text = gm.trace_to_text(g, gm.monitoring_closure(g, seeds))
    cg = checker.Graph(chain.labels, chain.edges)
    expect("path trace genuine", checker.check_trace(cg, seeds, text), False)
    lines = text.splitlines()
    expect("trace with a dropped PROP line", checker.check_trace(cg, seeds, "\n".join(lines[:-1])), True)
    last = lines[-1].rsplit(" ", 1)
    lines[-1] = f"{last[0]} {int(last[1]) + 1}"
    expect("trace with a wrong STEP", checker.check_trace(cg, seeds, "\n".join(lines)), True)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
