"""Self-test of the end-to-end benchmark, on seconds-long configs.

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that the fingerprint check runs and fails a run that does not match, that
a sharded run reproduces the single-process fingerprint, that the traced
rows plus the unattributed remainder sum to the traced wall-clock, and
that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 170


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "0",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_rep(workload: str) -> dict:
    return run.run_rep(ROOT, workload, 0, "tiny", True, TIMEOUT_S)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    proc = bench("--workload", workload, "--size", "tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         proc.stdout, re.MULTILINE), name
    assert re.search(r"failed_ratio\s+0 ratio \(0 failed / \d+ attempted",
                     proc.stdout)


def test_every_per_layer_metric_prints_with_its_unit():
    proc = bench("--workload", "federation-1p", "--size", "tiny",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_fingerprint_mismatch_fails_the_run(monkeypatch, capsys):
    tampered = {"tiny": {"federation": {"0": {"digest": "not-this-one"}}}}
    monkeypatch.setattr(run, "load_fingerprints", lambda: tampered)
    monkeypatch.chdir(ROOT)
    status = run.main(["--workload", "federation-1p", "--size", "tiny",
                       "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_committed_fingerprints_cover_the_default_seed():
    committed = run.load_fingerprints()["full"]
    assert committed["federation"]["0"]["admitted"] == 1000
    assert committed["federation"]["0"]["peak_vms"] == 1101
    assert committed["paper-week"]["0"]["week_searches"] == 34


def test_sharded_run_reproduces_the_oracle_fingerprint():
    one = run.run_rep(ROOT, "federation-1p", 0, "tiny", False, TIMEOUT_S)
    two = run.run_rep(ROOT, "federation-2p", 0, "tiny", False, TIMEOUT_S)
    assert one["fingerprint"] == two["fingerprint"]
    assert one["problems"] == two["problems"] == []
    # The host clock ran in the coordinator and in both spawn workers.
    assert (one["ref_processes"], two["ref_processes"]) == (1, 3)
    assert one["ref_hmean_s"] > 0.0 and two["ref_hmean_s"] > 0.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_rows_sum_to_the_traced_wall_clock(workload):
    rep = traced_rep(workload)
    ledger = rep["ledger"]
    rows = sum(v for k, v in ledger.items() if k.endswith(".self_s"))
    # Self times are span durations minus nested spans: they add up to the
    # outermost spans' inclusive time, and never exceed the wall-clock.
    assert rows == pytest.approx(ledger["outer_s"], abs=1e-6)
    assert ledger["phase.unattributed_s"] >= 0.0
    assert rows + ledger["phase.unattributed_s"] == pytest.approx(
        rep["wall_s"], abs=1e-9)
    phases = sum(rep["phase"].values())
    assert phases == pytest.approx(rep["wall_s"], abs=1e-9)


def test_paper_week_rows_separate_grid_monitoring_and_rules():
    ledger = traced_rep("paper-week")["ledger"]
    for row in ("grid.negotiate", "monitoring.publish",
                "monitoring.codec.encode", "core.rules"):
        assert ledger[f"{row}.self_s"] > 0.0, row
    assert ledger["grid.negotiate.dispatches"] > 0
    assert ledger["grid.match_yield"] > 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-week",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
