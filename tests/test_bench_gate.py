"""The benchmarks agree with the code and the records they depend on.

``benchmarks/check_regression.py`` names the benches it gates,
``BENCH_baseline.json`` holds their recorded values and
``benchmarks/test_bench_micro.py`` defines them. A bench deleted or renamed
without its gate entry, or a gate entry dropped while its baseline stays,
would otherwise surface only as ``MISSING`` or ``NO-BASELINE`` in a timed
regression run. Likewise ``perfbench/ledger.py`` patches package methods
by name for every traced end-to-end run, so deleting one of them would
otherwise surface only in a perfbench run. These checks catch both in the
ordinary test run.
"""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load("check_regression", BENCH_DIR / "check_regression.py")
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


def test_perfbench_ledger_installs_and_restores():
    module = _load("perfbench_ledger", ROOT / "perfbench" / "ledger.py")
    ledger = module.Ledger()
    patched = []
    try:
        ledger.install()  # AttributeError if a wrapped method is gone
        patched = list(ledger._patches)
    finally:
        ledger.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
