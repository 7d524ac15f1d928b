from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphmon
import graphmon.cli
import graphmon.resolving
from graphmon import (
    canonical_power_dominating_set,
    fractal_cubic_network,
    from_edgelist_text,
    to_edgelist_text,
    to_json_text,
    verify_report,
)
from graphmon.report import SECTIONS

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


def test_monitor_large_file(tmp_path):
    g = fractal_cubic_network(6)
    path = tmp_path / "fcn6.txt"
    path.write_text(to_edgelist_text(g), encoding="utf-8")
    seeds = ",".join(g.labels[v] for v in sorted(canonical_power_dominating_set(6)))
    proc = run_cli("monitor", "--graph", str(path), "--seeds", seeds)
    assert proc.returncode == 0
    assert proc.stdout == "monitored 16384 of 16384\nPDS: yes\n"


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_analyze_dim_certifies_the_canonical_set(d):
    # The report explains itself without a tag of its own: every section's
    # certificate is the paper's set, and the report verifies. FCN(1) is
    # small enough to be solved exactly, with other optimal sets, unless
    # the exact search is turned off; FCN(2) and up are not.
    proc = run_cli("analyze", "--dim", str(d), "--exact-limit", "0")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    g = fractal_cubic_network(d)
    canonical = [g.labels[v] for v in sorted(canonical_power_dominating_set(d))]
    for key, (field, _) in SECTIONS.items():
        assert report[key]["lower"] == report[key]["upper"] == 4**d
        assert report[key][field] == canonical
    assert verify_report(g, report) == []


@pytest.mark.parametrize(
    ("text", "limit"),
    [("1 0\na\n", "0"), ("1 0\na\n", "-1"), ("0 0\n", "-1")],
    ids=["K1 at 0", "K1 at -1", "empty at -1"],
)
def test_analyze_degenerate_graph_below_the_exact_limit(tmp_path, text, limit):
    path = tmp_path / "tiny.txt"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("analyze", "--graph", str(path), "--exact-limit", limit)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    dim = report["dim"]
    assert (dim["lower"], dim["upper"], dim["lower_method"]) == (0, 0, "trivial-lower")
    assert verify_report(from_edgelist_text(text), report) == []


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


def test_analyze_eta_p_rejects_disconnected(tmp_path):
    # eta_p sits on the dim bounds, so the dim computation refuses first.
    path = tmp_path / "two.txt"
    path.write_text("4 2\na\nb\nc\nd\na b\nc d\n", encoding="utf-8")
    proc = run_cli("analyze", "--graph", str(path), "--checks", "eta-p")
    assert proc.returncode == 2
    assert "metric dimension requires a connected graph" in proc.stderr


def test_analyze_rejects_unknown_check(c4_file):
    proc = run_cli("analyze", "--graph", c4_file, "--checks", "twins,bogus")
    assert proc.returncode == 1
    assert "bogus" in proc.stderr


def test_analyze_rejects_an_empty_check_list(c4_file):
    proc = run_cli("analyze", "--graph", c4_file, "--checks", ",")
    assert proc.returncode == 1
    assert "at least one check" in proc.stderr


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


def test_exit_code_bad_edge_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\na\nb\na b c\n", encoding="utf-8")
    proc = run_cli("monitor", "--graph", str(path), "--seeds", "a")
    assert proc.returncode == 2
    assert proc.stderr == "error: bad edge on line 4 'a b c', expected two words\n"


@pytest.mark.parametrize("text", ["2 -1\na\n", "-1 1\n"])
def test_exit_code_negative_header_count(tmp_path, text):
    path = tmp_path / "negative.txt"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("analyze", "--graph", str(path))
    assert proc.returncode == 2
    assert "counts must not be negative" in proc.stderr


def test_exit_code_mask_memory_cap(monkeypatch, capsys):
    monkeypatch.setattr(graphmon.resolving, "MASK_MEMORY_LIMIT", 100)
    assert graphmon.cli.main(["analyze", "--dim", "2"]) == 3
    assert "MiB of landmark masks" in capsys.readouterr().err


def test_refused_dimension_is_never_built(monkeypatch, capsys):
    def unexpected(d):
        raise AssertionError(f"FCN({d}) built before the mask estimate refused it")

    monkeypatch.setattr(graphmon.resolving, "MASK_MEMORY_LIMIT", 100)
    monkeypatch.setattr(graphmon.cli, "fractal_cubic_network", unexpected)
    for checks in ("all", "dim", "eta-p"):
        assert graphmon.cli.main(["analyze", "--dim", "2", "--checks", checks]) == 3
        assert "16 landmarks on 64 vertices" in capsys.readouterr().err


def test_mask_estimate_spares_reports_without_a_resolving_check(monkeypatch, capsys):
    monkeypatch.setattr(graphmon.resolving, "MASK_MEMORY_LIMIT", 100)
    assert graphmon.cli.main(["analyze", "--dim", "2", "--checks", "twins,gamma-p"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gamma_p"]["lower"] == report["gamma_p"]["upper"] == 16


def test_exit_code_limit(c4_file):
    too_big = run_cli("generate", "--dim", "9")
    assert too_big.returncode == 3
    capped = run_cli("oracle", "--graph", c4_file, "--problem", "gamma", "--limit", "3")
    assert capped.returncode == 3
