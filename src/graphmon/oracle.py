"""Brute-force baselines for cross-checking the main algorithms.

Everything here is deliberately naive: subsets are enumerated in
ascending size and lexicographic order, and the monitoring fixpoint is
recomputed from scratch with a full rescan loop instead of the
incremental engine. Slow on purpose, so agreement with the fast paths
actually means something.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import (
    EXACT_LIMIT,
    Graph,
    GraphError,
    LimitExceeded,
    VertexSet,
    bfs_distances,
    closed_neighborhood,
    is_connected,
)
from .resolving import CERTIFICATE_CHECKS, ETA_P_EXACT_LIMIT

PROBLEMS = ("gamma", "gamma_p", "dim", "eta_p")
DEFAULT_LIMITS = {**dict.fromkeys(PROBLEMS, EXACT_LIMIT), "eta_p": ETA_P_EXACT_LIMIT}


@dataclass(frozen=True)
class OracleResult:
    problem: str
    optimum: int
    certificate: VertexSet
    subsets_examined: int
    elapsed_seconds: float


def _naive_closure(g: Graph, seeds: Iterable[int]) -> set[int]:
    monitored: set[int] = set()
    for s in seeds:
        monitored.add(s)
        monitored.update(g.neighbors(s))
    changed = True
    while changed:
        changed = False
        for x in sorted(monitored):
            unseen = [u for u in g.neighbors(x) if u not in monitored]
            if len(unseen) == 1:
                monitored.add(unseen[0])
                changed = True
    return monitored


def brute_force(g: Graph, problem: str, limit: int | None = None) -> OracleResult:
    """Smallest vertex set satisfying the requested property, by exhaustion.

    problem is one of "gamma" (domination), "gamma_p" (power domination),
    "dim" (resolving), "eta_p" (resolving power domination). The winning
    subset is re-verified through the main library checkers before being
    returned.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown oracle problem {problem!r}, expected one of {PROBLEMS}")
    cap = DEFAULT_LIMITS[problem] if limit is None else limit
    if g.n > cap:
        raise LimitExceeded(f"oracle {problem} is capped at {cap} vertices, got {g.n}")
    if problem in ("dim", "eta_p") and not is_connected(g):
        raise GraphError(f"oracle {problem} requires a connected graph")

    n = g.n
    everyone = set(range(n))
    rows = [bfs_distances(g, v) for v in range(n)] if problem in ("dim", "eta_p") else []

    def dominates(subset: tuple[int, ...]) -> bool:
        covered: set[int] = set()
        for s in subset:
            covered.add(s)
            covered.update(g.neighbors(s))
        return covered == everyone

    def monitors(subset: tuple[int, ...]) -> bool:
        return _naive_closure(g, subset) == everyone

    def resolves(subset: tuple[int, ...]) -> bool:
        codes = {tuple(rows[l][v] for l in subset) for v in range(n)}
        return len(codes) == n

    def resolves_and_monitors(subset: tuple[int, ...]) -> bool:
        return resolves(subset) and monitors(subset)

    accept = {
        "gamma": dominates,
        "gamma_p": monitors,
        "dim": resolves,
        "eta_p": resolves_and_monitors,
    }[problem]

    started = time.perf_counter()
    examined = 0
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            examined += 1
            if accept(subset):
                _reverify(g, problem, subset)
                return OracleResult(
                    problem,
                    k,
                    frozenset(subset),
                    examined,
                    time.perf_counter() - started,
                )
    raise AssertionError("the full vertex set satisfies every supported property")


def _reverify(g: Graph, problem: str, subset: tuple[int, ...]) -> None:
    if problem == "gamma":
        ok = closed_neighborhood(g, subset) == frozenset(range(g.n))
    else:
        ok = CERTIFICATE_CHECKS[problem](g, subset)
    if not ok:
        raise AssertionError(f"oracle and library checkers disagree on {problem} for {subset}")
