"""``python -m repro report``: corpus loading, filtering, rendering, and
the byte-identical determinism contract CI leans on."""

import json

import pytest

from repro.__main__ import main
from repro.obs.report import (
    ReportError,
    apply_filters,
    load_corpus,
    parse_filters,
    report_main,
    sparkline,
)
from repro.scenarios.runner import SCENARIOS, Scenario, run_experiment
from repro.scenarios.chaos import HostCrash
from tests.setups import crash_keeping_bookings

FAST = ["services=8", "hours=0.25", "settle=120"]


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def test_sparkline_scales_to_series():
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    line = sparkline([0.0, 4.0, 8.0])
    assert len(line) == 3
    assert line[0] == "▁" and line[-1] == "█"


def test_parse_filters_types_and_errors():
    assert parse_filters(["sites=4", "load=0.5", "scenario=baseline"]) == [
        ("sites", 4), ("load", 0.5), ("scenario", "baseline")]
    for bad in ("sites", "sites=", "=4"):
        with pytest.raises(ReportError):
            parse_filters([bad])


def test_apply_filters_matches_record_and_cell_keys():
    records = [
        {"scenario": "a", "cell": {"sites": 2}},
        {"scenario": "a", "cell": {"sites": 4}},
        {"scenario": "b", "cell": {"sites": 4}},
    ]
    assert apply_filters(records, [("sites", 4)]) == records[1:]
    assert apply_filters(records, [("scenario", "a"), ("sites", 4)]) == [
        records[1]]


def test_load_corpus_rejects_bad_input(tmp_path):
    with pytest.raises(ReportError, match="cannot read"):
        load_corpus([str(tmp_path / "missing.jsonl")])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(ReportError, match="not JSON"):
        load_corpus([str(bad)])
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ReportError, match="empty corpus"):
        load_corpus([str(empty)])


# ---------------------------------------------------------------------------
# End-to-end over a real experiment corpus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two identical runs of a 2-cell sweep, in separate directories —
    the rerun shape the CI report-smoke job checks."""
    root = tmp_path_factory.mktemp("corpus")
    paths = []
    for sub in ("a", "b"):
        out = root / sub
        result = run_experiment("flash-crowd", sweep=["sites=2,4"] + FAST,
                                seed=7, out_dir=str(out))
        assert result.ok
        paths.append(str(out / "flash-crowd-seed7.jsonl"))
    return paths


def _render(paths, **kwargs):
    lines = []
    code = report_main(paths, out=lines.append, **kwargs)
    return code, "\n".join(lines)


def test_report_is_deterministic_over_reruns(corpus):
    code_a, text_a = _render(corpus)
    code_b, text_b = _render(corpus)
    assert code_a == code_b == 0
    assert text_a == text_b             # byte-identical re-render
    assert "corpus: 4 record(s) from 2 file(s)" in text_a
    assert "verdict: ok" in text_a


def test_report_diffs_matched_cells_across_runs(corpus):
    _code, text = _render(corpus)
    assert "run-vs-run (2 matched cell(s)" in text
    assert "2 run(s) -> identical" in text
    assert "DIVERGED" not in text


def test_report_sweep_sparkline_and_deltas(corpus):
    _code, text = _render(corpus[:1])
    assert "sweep sites: 2 4" in text
    assert "vs cell 0" in text
    assert "admitted" in text


def test_report_filters_narrow_the_corpus(corpus):
    code, text = _render(corpus[:1], filters=["sites=4"])
    assert code == 0
    assert "corpus: 1 record(s)" in text
    code, text = _render(corpus[:1], filters=["sites=64"])
    assert code == 2
    assert "filtered out" in text


def test_report_custom_metrics(corpus):
    code, text = _render(corpus[:1], metrics=("events_processed",))
    assert code == 0
    assert "events_processed" in text
    assert "peak_vms" not in text


def test_report_flags_failing_records(tmp_path, monkeypatch):
    crash_keeping_bookings(monkeypatch)
    name = "_broken-host-report"
    SCENARIOS[name] = Scenario(
        name, "test-only: a crashed host keeps its booked capacity",
        chaos=lambda cfg: (HostCrash(
            at_s=cfg.monitor_period_s * 3 + 15.0, site="site-0"),))
    try:
        result = run_experiment(name, sweep=FAST, seed=7,
                                out_dir=str(tmp_path))
    finally:
        del SCENARIOS[name]
    assert not result.ok
    path = str(tmp_path / f"{name}-seed7.jsonl")
    code, text = _render([path])
    assert code == 1
    assert "verdict: FAIL" in text
    assert "[cell 0]" in text
    assert "flight:" in text            # points at the recorder dump
    assert "no-oversubscription" in text


def test_report_exit_2_on_unreadable_corpus(tmp_path):
    code, text = _render([str(tmp_path / "nope.jsonl")])
    assert code == 2 and "report:" in text


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

def test_cli_report_smoke(corpus, capsys):
    assert main(["report", *corpus]) == 0
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    assert main(["report", corpus[0], "--filter", "sites=2",
                 "--metrics", "admitted,peak_vms"]) == 0
    out = capsys.readouterr().out
    assert "admitted" in out and "peak_vms" in out


def test_cli_report_bad_corpus_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
    assert "report:" in capsys.readouterr().out


def test_report_run_vs_run_flags_divergence(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    base = {"scenario": "s", "seed": 1, "cell_index": 0, "cell": {},
            "ok": True, "admitted": 8}
    a.write_text(json.dumps(base) + "\n")
    b.write_text(json.dumps({**base, "admitted": 9}) + "\n")
    code, text = _render([str(a), str(b)])
    assert code == 0                    # both records are ok:true
    assert "DIVERGED" in text
    assert "admitted: 8 != 9" in text
