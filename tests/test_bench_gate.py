"""The micro-bench regression gate agrees with its benches and baseline.

``benchmarks/check_regression.py`` names the benches it gates,
``BENCH_baseline.json`` holds their recorded values and
``benchmarks/test_bench_micro.py`` defines them. A bench deleted or renamed
without its gate entry, or a gate entry dropped while its baseline stays,
would otherwise surface only as ``MISSING`` or ``NO-BASELINE`` in a timed
regression run; these checks catch it in the ordinary test run.
"""

import ast
import importlib.util
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", BENCH_DIR / "check_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load_gate()
BASELINE = json.loads(GATE.BASELINE_PATH.read_text())
BENCHES = {
    node.name
    for node in ast.parse((BENCH_DIR / "test_bench_micro.py").read_text()).body
    if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
}
GATED = (list(GATE.HEADLINE) + list(GATE.INFORMATIONAL)
         + [name for name, _key in GATE.MEMORY]
         + [name for name, _key in GATE.CONDITIONAL])


def _keyed(section):
    return {(name, key) for name, entry in BASELINE.get(section, {}).items()
            for key in entry}


def test_every_gated_name_is_a_micro_bench():
    assert sorted(set(GATED) - BENCHES) == []


def test_no_bench_sits_in_two_gate_lists():
    assert len(GATED) == len(set(GATED))


def test_baseline_sections_are_known():
    assert set(BASELINE) <= {"comment", "headline", "informational",
                             "memory", "conditional"}


def test_baseline_medians_match_the_gate():
    assert set(BASELINE["headline"]) == set(GATE.HEADLINE)
    assert set(BASELINE.get("informational", {})) == set(GATE.INFORMATIONAL)


def test_baseline_memory_matches_the_gate():
    assert _keyed("memory") == set(GATE.MEMORY)


def test_baseline_conditional_entries_are_gated():
    # A conditional value needs a capable box to record, so the gate may
    # name more than the baseline holds, never less.
    assert _keyed("conditional") <= set(GATE.CONDITIONAL)
