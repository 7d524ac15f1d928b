from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphmon
from graphmon import (
    fractal_cubic_network,
    from_edgelist_text,
    to_edgelist_text,
    to_json_text,
)

C4_EDGELIST = "4 4\n00\n01\n10\n11\n00 01\n00 10\n01 11\n10 11\n"
# The command runs the same graphmon these tests import, even when only
# pytest's own pythonpath setting put it on the path.
SRC = str(Path(graphmon.__file__).resolve().parent.parent)


def run_cli(*argv: str):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "graphmon", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_EDGELIST, encoding="utf-8")
    return str(path)


@pytest.fixture
def fcn1_file(tmp_path):
    path = tmp_path / "fcn1.txt"
    path.write_text(to_edgelist_text(fractal_cubic_network(1)), encoding="utf-8")
    return str(path)


def test_generate_to_file(tmp_path):
    out = tmp_path / "net.txt"
    proc = run_cli("generate", "--dim", "1", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == "16 20\n"
    written = from_edgelist_text(out.read_text(encoding="utf-8"))
    assert written == fractal_cubic_network(1)


def test_generate_streams_to_stdout():
    proc = run_cli("generate", "--dim", "1")
    assert proc.returncode == 0
    assert proc.stdout == to_edgelist_text(fractal_cubic_network(1))


def test_generate_dot():
    proc = run_cli("generate", "--dim", "0", "--format", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph G {")
    assert '"00" -- "01";' in proc.stdout


def test_generate_json():
    proc = run_cli("generate", "--dim", "2", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == to_json_text(fractal_cubic_network(2))
    assert len(json.loads(proc.stdout)["vertices"]) == 64


def test_monitor_canonical_seeds(fcn1_file):
    proc = run_cli(
        "monitor", "--graph", fcn1_file, "--seeds", "0001,0101,1001,1101", "--trace"
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[-2] == "monitored 16 of 16"
    assert lines[-1] == "PDS: yes"
    assert sum(1 for ln in lines if ln.startswith("DOM ")) == 12
    assert sum(1 for ln in lines if ln.startswith("PROP ")) == 4


def test_monitor_partial(fcn1_file):
    proc = run_cli("monitor", "--graph", fcn1_file, "--seeds", "0010")
    assert proc.returncode == 0
    assert proc.stdout == "monitored 4 of 16\nPDS: no\n"


def test_monitor_empty_seed_list(c4_file):
    proc = run_cli("monitor", "--graph", c4_file, "--seeds", "")
    assert proc.returncode == 0
    assert proc.stdout == "monitored 0 of 4\nPDS: no\n"


def test_analyze_generated_network(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--dim", "1", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == f"report written to {out}\n"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["graph_summary"]["n"] == 16
    assert report["twin_census"]["open_count"] == 4
    assert report["gamma_p"]["lower"] == report["gamma_p"]["upper"] == 4
    assert report["dim"]["lower"] == report["dim"]["upper"] == 4
    assert report["eta_p"]["lower"] == report["eta_p"]["upper"] == 4


def test_analyze_uses_canonical_tag():
    proc = run_cli("analyze", "--dim", "2", "--checks", "gamma-p,dim")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["gamma_p"]["lower"] == report["gamma_p"]["upper"] == 16
    assert report["gamma_p"]["lower_method"] == "lemma2-lower"
    assert report["gamma_p"]["upper_method"] == "canonical-certificate"
    assert report["dim"]["lower"] == report["dim"]["upper"] == 16
    assert report["dim"]["upper_method"] == "canonical-certificate"
    assert "eta_p" not in report


def test_analyze_twins_only(c4_file):
    proc = run_cli("analyze", "--graph", c4_file, "--checks", "twins")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["twin_census"]["open"] == [["00", "11"], ["01", "10"]]
    assert report["twin_census"]["closed"] == []


def test_analyze_is_deterministic_apart_from_timestamp():
    first = run_cli("analyze", "--dim", "1")
    second = run_cli("analyze", "--dim", "1")
    assert first.returncode == second.returncode == 0
    a = json.loads(first.stdout)
    b = json.loads(second.stdout)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_analyze_dim_rejects_disconnected(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("4 2\na\nb\nc\nd\na b\nc d\n", encoding="utf-8")
    proc = run_cli("analyze", "--graph", str(path), "--checks", "dim")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_analyze_rejects_unknown_check(c4_file):
    proc = run_cli("analyze", "--graph", c4_file, "--checks", "twins,bogus")
    assert proc.returncode == 1
    assert "bogus" in proc.stderr


def test_oracle_gamma_p(fcn1_file):
    proc = run_cli("oracle", "--graph", fcn1_file, "--problem", "gamma-p")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["problem"] == "gamma_p"
    assert payload["optimum"] == 4
    assert len(payload["certificate"]) == 4
    assert payload["subsets_examined"] > 0


def test_oracle_dim(c4_file):
    proc = run_cli("oracle", "--graph", c4_file, "--problem", "dim")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["optimum"] == 2


def test_oracle_eta_p(c4_file):
    proc = run_cli("oracle", "--graph", c4_file, "--problem", "eta-p")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["optimum"] == 2


def test_exit_code_usage():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1
    bad_format = run_cli("generate", "--dim", "1", "--format", "yaml")
    assert bad_format.returncode == 1
    no_source = run_cli("analyze")
    assert no_source.returncode == 1


def test_exit_code_input(c4_file):
    bad_label = run_cli("monitor", "--graph", c4_file, "--seeds", "zz")
    assert bad_label.returncode == 2
    missing = run_cli("monitor", "--graph", "/nonexistent/g.txt", "--seeds", "00")
    assert missing.returncode == 2


def test_exit_code_limit(c4_file):
    too_big = run_cli("generate", "--dim", "9")
    assert too_big.returncode == 3
    capped = run_cli("oracle", "--graph", c4_file, "--problem", "gamma", "--limit", "3")
    assert capped.returncode == 3
