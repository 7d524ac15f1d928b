"""Command-line front end.

Subcommands: generate (build a fractal cubic network file), monitor
(run the monitoring closure from seed labels), analyze (write a full
analysis report), oracle (run a brute-force baseline). Exit codes are a
stable contract: 0 success, 1 usage error, 2 input error, 3 limit
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .core import EXACT_LIMIT, Graph, GraphError, LimitExceeded
from .fcn import canonical_power_dominating_set, fractal_cubic_network, vertex_count
from .formats import load_graph, to_dot, to_edgelist_text, to_json_text
from .oracle import PROBLEMS, brute_force
from .powerdom import monitoring_closure, trace_to_text
from .report import DIM_CHECKS, KNOWN_CHECKS, build_report, report_to_json
from .resolving import check_mask_memory

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3

_FORMATTERS = {
    "edgelist": to_edgelist_text,
    "json": to_json_text,
    "dot": to_dot,
}


def _dashed(names: tuple[str, ...]) -> dict[str, str]:
    """Command-line spelling of each library name: gamma_p is written gamma-p."""
    return {name.replace("_", "-"): name for name in names}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphmon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a fractal cubic network graph file")
    p_gen.add_argument("--dim", type=int, required=True, help="network dimension d (0 and up)")
    p_gen.add_argument("--format", choices=sorted(_FORMATTERS), default="edgelist")
    p_gen.add_argument("--out", help="output path; omit to stream the graph to stdout")
    p_gen.set_defaults(func=cmd_generate)

    p_mon = sub.add_parser("monitor", help="run the monitoring closure from seed vertices")
    p_mon.add_argument("--graph", required=True, help="graph file (edge list or JSON)")
    p_mon.add_argument("--seeds", required=True, help="comma-separated vertex labels")
    p_mon.add_argument("--trace", action="store_true", help="print the propagation trace")
    p_mon.set_defaults(func=cmd_monitor)

    p_ana = sub.add_parser("analyze", help="write an analysis report")
    source = p_ana.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="graph file (edge list or JSON)")
    source.add_argument("--dim", type=int, help="analyze a generated fractal cubic network")
    p_ana.add_argument(
        "--checks",
        type=_parse_checks,
        default="all",
        help=f"comma-separated subset of {','.join(_dashed(KNOWN_CHECKS))} or all",
    )
    p_ana.add_argument(
        "--exact-limit", type=int, default=EXACT_LIMIT, help="vertex cap for exact search"
    )
    p_ana.add_argument("--out", help="report path; omit to print the report")
    p_ana.set_defaults(func=cmd_analyze)

    p_ora = sub.add_parser("oracle", help="run a brute-force baseline search")
    p_ora.add_argument("--graph", required=True, help="graph file (edge list or JSON)")
    p_ora.add_argument("--problem", required=True, choices=tuple(_dashed(PROBLEMS)))
    p_ora.add_argument("--limit", type=int, help="vertex cap override for the search")
    p_ora.set_defaults(func=cmd_oracle)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    g = fractal_cubic_network(args.dim)
    text = _FORMATTERS[args.format](g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{g.n} {g.m}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_seeds(g: Graph, raw: str) -> list[int]:
    labels = [part.strip() for part in raw.split(",")]
    return [g.index(lbl) for lbl in labels if lbl]


def cmd_monitor(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    seeds = _parse_seeds(g, args.seeds)
    trace = monitoring_closure(g, seeds)
    if args.trace:
        sys.stdout.write(trace_to_text(g, trace))
    print(f"monitored {len(trace.final)} of {g.n}")
    print(f"PDS: {'yes' if len(trace.final) == g.n else 'no'}")
    return EXIT_OK


def _parse_checks(raw: str) -> list[str]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("must name at least one check")
    if "all" in parts:
        return list(KNOWN_CHECKS)
    names = _dashed(KNOWN_CHECKS)
    unknown = sorted(set(parts) - set(names))
    if unknown:
        expected = f"expected a subset of {sorted(names)} or all"
        raise argparse.ArgumentTypeError(f"unknown checks {unknown}; {expected}")
    return [names[p] for p in parts]


def cmd_analyze(args: argparse.Namespace) -> int:
    hint = None
    if args.dim is not None:
        hint = canonical_power_dominating_set(args.dim)
        if DIM_CHECKS.intersection(args.checks):
            # The report checks the canonical seeds as a resolving set of
            # FCN(d): refuse that before building the graph.
            check_mask_memory(vertex_count(args.dim), len(hint))
        g = fractal_cubic_network(args.dim)
    else:
        g = load_graph(args.graph)
    report = build_report(g, checks=args.checks, exact_limit=args.exact_limit, hint=hint)
    text = report_to_json(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    result = brute_force(g, args.problem.replace("-", "_"), limit=args.limit)
    payload = asdict(result)
    payload["certificate"] = [g.labels[v] for v in sorted(result.certificate)]
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
