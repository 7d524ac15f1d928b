"""The CLI and the report check under every pyenv-installed CPython that
pyproject.toml's requires-python admits; skipped where pyenv or such an
interpreter is absent."""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import graphmon

from _helpers import random_tree_plus_chords, with_planted_twins

SRC = Path(graphmon.__file__).resolve().parent.parent
PYPROJECT = SRC.parent / "pyproject.toml"

VERIFY = """
import json, sys
from graphmon import fractal_cubic_network, verify_report
print(json.dumps(verify_report(fractal_cubic_network(2), json.load(sys.stdin))))
"""

VERIFY_FILE = """
import json, sys
from graphmon import load_graph, verify_report
print(json.dumps(verify_report(load_graph(sys.argv[1]), json.load(sys.stdin))))
"""


def _floor() -> tuple[int, int]:
    found = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', PYPROJECT.read_text(encoding="utf-8"))
    assert found, "pyproject.toml states no requires-python floor"
    return int(found[1]), int(found[2])


def _interpreters() -> list[tuple[str, Path]]:
    """Each pyenv version at or above the floor, with its python."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return []
    run = lambda *args: subprocess.run([pyenv, *args], capture_output=True, text=True, timeout=30)
    root = Path(run("root").stdout.strip())
    floor = _floor()
    found = []
    for version in run("versions", "--bare").stdout.split():
        parts = re.fullmatch(r"(\d+)\.(\d+)\.\d+", version)
        python = root / "versions" / version / "bin" / "python"
        if parts and (int(parts[1]), int(parts[2])) >= floor and python.is_file():
            found.append((version, python))
    return found


def _runners():
    """(version, run) per interpreter; run(*args, stdin=None) runs that
    python on args with graphmon from this checkout."""
    interpreters = _interpreters()
    if not interpreters:
        pytest.skip("no pyenv interpreter at or above requires-python")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for version, python in interpreters:
        yield version, lambda *args, stdin=None, python=python: subprocess.run(
            [str(python), *args], input=stdin, capture_output=True, text=True, timeout=120, env=env
        )


def test_cli_and_verify_under_every_supported_python():
    for version, run in _runners():
        proc = run("-m", "graphmon", "analyze", "--dim", "2")
        assert proc.returncode == 0, (version, proc.stderr)
        report = json.loads(proc.stdout)
        assert [(report[k]["lower"], report[k]["upper"]) for k in ("gamma_p", "dim", "eta_p")] == [
            (16, 16)
        ] * 3, version
        check = run("-c", VERIFY, stdin=proc.stdout)
        assert check.returncode == 0, (version, check.stderr)
        assert json.loads(check.stdout) == [], version


def test_generate_under_every_supported_python():
    # Pins the strided-slice construction and the label concatenation,
    # down to the ascending neighbour order the edge list is written in.
    want = graphmon.to_edgelist_text(graphmon.fractal_cubic_network(4))
    for version, run in _runners():
        proc = run("-m", "graphmon", "generate", "--dim", "4")
        assert proc.returncode == 0, (version, proc.stderr)
        assert proc.stdout == want, version


def test_monitor_trace_from_a_file_under_every_supported_python(tmp_path):
    # Pins the loader's sorted-tuple neighbourhoods and the trace order.
    # The canonical seeds leave 16 vertices to propagation, in 64 lines;
    # a single seed would leave one.
    g = graphmon.fractal_cubic_network(2)
    path = tmp_path / "fcn2.txt"
    path.write_text(graphmon.to_edgelist_text(g), encoding="utf-8")
    seeds = sorted(graphmon.canonical_power_dominating_set(2))
    want = graphmon.trace_to_text(g, graphmon.monitoring_closure(g, seeds))
    raw = ",".join(g.labels[v] for v in seeds)
    for version, run in _runners():
        proc = run("-m", "graphmon", "monitor", "--graph", str(path), "--seeds", raw, "--trace")
        assert proc.returncode == 0, (version, proc.stderr)
        assert proc.stdout[: len(want)] == want, version
        assert proc.stdout[len(want) :].startswith("monitored "), version


def test_analyze_exact_paths_from_a_file_under_every_supported_python(tmp_path):
    # 14 vertices with planted twins, an open class of three and a closed
    # pair: under both exact limits, so gamma_p takes the exact oracle and
    # dim and eta_p the exact search, which analyze --dim never reaches.
    rng = random.Random(7)
    g = with_planted_twins(rng, random_tree_plus_chords(rng, 11, 11), 3)
    path = tmp_path / "twins.txt"
    path.write_text(graphmon.to_edgelist_text(g), encoding="utf-8")
    want = graphmon.build_report(graphmon.load_graph(str(path)))
    methods = [want[k]["upper_method"] for k in ("gamma_p", "dim", "eta_p")]
    assert methods == ["exact-oracle", "exact-search", "exact-search"]
    for version, run in _runners():
        proc = run("-m", "graphmon", "analyze", "--graph", str(path))
        assert proc.returncode == 0, (version, proc.stderr)
        when = json.loads(proc.stdout)["timestamp"]
        assert proc.stdout == graphmon.report_to_json({**want, "timestamp": when}), version


def test_analyze_greedy_gamma_p_from_a_file_under_every_supported_python(tmp_path):
    # FCN(3) read from a file takes no hint, so gamma_p runs the greedy
    # packing (64 classes, past EXACT_CLASS_LIMIT), the greedy PDS and the
    # section's removal pass, which analyze --dim never reaches.
    path = tmp_path / "fcn3.txt"
    path.write_text(graphmon.to_edgelist_text(graphmon.fractal_cubic_network(3)), encoding="utf-8")
    want = graphmon.build_report(graphmon.load_graph(str(path)), checks=["twins", "gamma_p"])
    section = want["gamma_p"]
    assert (section["lower"], section["upper"], section["lower_method"], section["upper_method"]) == (
        64, 64, "lemma2-lower", "greedy"
    )
    for version, run in _runners():
        proc = run("-m", "graphmon", "analyze", "--graph", str(path), "--checks", "twins,gamma-p")
        assert proc.returncode == 0, (version, proc.stderr)
        when = json.loads(proc.stdout)["timestamp"]
        assert proc.stdout == graphmon.report_to_json({**want, "timestamp": when}), version
        check = run("-c", VERIFY_FILE, str(path), stdin=proc.stdout)
        assert check.returncode == 0, (version, check.stderr)
        assert json.loads(check.stdout) == [], version
