"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.core.manifest.hutn import manifest_to_text
from repro.core.manifest.ovf_xml import manifest_to_xml
from tests.test_manifest_xml import paper_manifest


@pytest.fixture
def xml_path(tmp_path):
    path = tmp_path / "service.xml"
    path.write_text(manifest_to_xml(paper_manifest()))
    return str(path)


@pytest.fixture
def text_path(tmp_path):
    path = tmp_path / "service.rsm"
    path.write_text(manifest_to_text(paper_manifest()))
    return str(path)


def test_importing_the_cli_loads_no_manifest_syntax():
    """Only the manifest subcommands read or write a concrete syntax, so
    importing the CLI (which every subcommand does) loads neither the
    textual nor the XML syntax, nor the XML parser."""
    syntaxes = ["repro.core.manifest.hutn", "repro.core.manifest.ovf_xml",
                "xml.etree.ElementTree"]
    code = ("import sys, repro.__main__; "
            f"print([m for m in {syntaxes!r} if m in sys.modules])")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_validate_xml_ok(xml_path, capsys):
    assert main(["validate", xml_path]) == 0
    out = capsys.readouterr().out
    assert "OK: polymorphGridService" in out
    assert "2 rule(s)" in out


def test_validate_text_ok(text_path, capsys):
    assert main(["validate", text_path]) == 0


def test_validate_invalid_manifest(tmp_path, capsys):
    from repro.core.manifest.builder import ManifestBuilder

    bad = ManifestBuilder("bad")
    bad.component("a", image_mb=1, networks=["ghost"])
    path = tmp_path / "bad.xml"
    path.write_text(manifest_to_xml(bad.build(validate=False)))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "system-netref" in captured.out
    assert "INVALID" in captured.err


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "garbage.xml"
    path.write_text("<<< not a manifest")
    assert main(["validate", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


#: every subcommand that loads a manifest, with the arguments after it
MANIFEST_COMMANDS = {
    "validate": [],
    "convert": ["--to", "xml"],
    "generate-agent": ["GridMgmtService"],
    "generate-validator": ["svc-1"],
    "capacity": [],
    "plan": [],
}
BAD_MANIFESTS = {
    "missing": None,
    "hutn": "service s {\n  system a {\n    cpu\n  }\n}\n",
    "xml": "<<< not a manifest",
}


@pytest.mark.parametrize("bad", sorted(BAD_MANIFESTS))
@pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
def test_manifest_command_reports_parse_error(command, bad, tmp_path,
                                              capsys):
    """A missing file, malformed HUTN or malformed XML is one line on
    stderr and exit 1 from every manifest subcommand, never a traceback."""
    path = tmp_path / "service.rsm"
    if BAD_MANIFESTS[bad] is not None:
        path.write_text(BAD_MANIFESTS[bad])
    assert main([command, str(path), *MANIFEST_COMMANDS[command]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_convert_round_trips(xml_path, tmp_path, capsys):
    assert main(["convert", xml_path, "--to", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("service polymorphGridService {")
    path = tmp_path / "converted.rsm"
    path.write_text(text)
    assert main(["convert", str(path), "--to", "xml"]) == 0
    xml = capsys.readouterr().out
    from repro.core.manifest.ovf_xml import manifest_from_xml
    assert manifest_from_xml(xml) == paper_manifest()


def test_generate_agent(xml_path, capsys):
    assert main(["generate-agent", xml_path, "GridMgmtService"]) == 0
    source = capsys.readouterr().out
    assert "class GridMgmtServiceAgentStub" in source
    compile(source, "<cli>", "exec")  # must be valid Python


def test_generate_agent_unknown_component(xml_path, capsys):
    """The virtual-system id is not an ADL component name: one error line
    naming the components, not a KeyError traceback."""
    assert main(["generate-agent", xml_path, "GridMgmt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no component 'GridMgmt'; components: GridMgmtService, "
        "Cluster, ClusterIdle\n")


def test_generate_agent_without_application(tmp_path, capsys):
    import dataclasses

    path = tmp_path / "bare.xml"
    path.write_text(manifest_to_xml(
        dataclasses.replace(paper_manifest(), application=None)))
    assert main(["generate-agent", str(path), "GridMgmtService"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: manifest declares no application description\n")
    assert "Traceback" not in captured.err


def test_generate_validator(xml_path, capsys):
    assert main(["generate-validator", xml_path, "svc-1"]) == 0
    source = capsys.readouterr().out
    assert "SERVICE_ID = 'svc-1'" in source
    compile(source, "<cli>", "exec")


def test_table3_small(capsys):
    assert main(["table3", "--small"]) == 0
    out = capsys.readouterr().out
    assert "resource_usage_saving" in out
    assert "extra_run_time" in out


def test_fig11_small(capsys):
    assert main(["fig11", "--small", "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "queued jobs" in out
    assert out.count("execution instances") == 2


@pytest.mark.parametrize("width", ["0", "-5"])
def test_fig11_rejects_width_below_one(width, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fig11", "--small", "--width", width])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --width: must be at least 1, got {width}" in err
    assert "Traceback" not in err


_COUNT_FLAGS = [
    ("control-demo", "--tenants"), ("control-demo", "--hosts"),
    ("control-demo", "--quota"), ("obs-report", "--tenants"),
    ("obs-report", "--hosts"), ("obs-report", "--quota"),
    ("capacity", "--hosts"), ("plan", "--hosts"), ("plan", "--sites")]

_NON_NEGATIVE_FLAGS = [
    ("plan", "--admitted"), ("control-demo", "--services"),
    ("obs-report", "--services"), ("obs-report", "--depth")]


@pytest.mark.parametrize("command, flag, value, message", [
    pytest.param(command, flag, "0", "must be at least 1, got 0",
                 id=f"{command}-{flag}")
    for command, flag in _COUNT_FLAGS] + [
    pytest.param(command, flag, "-1", "must be at least 0, got -1",
                 id=f"{command}-{flag}")
    for command, flag in _NON_NEGATIVE_FLAGS] + [
    pytest.param(command, flag, value,
                 f"must be a finite number above 0, got {value}",
                 id=f"{command}-{flag}-{value}")
    for command, flag, value in (("capacity", "--host-cpu", "0"),
                                 ("capacity", "--host-memory", "-1"),
                                 ("plan", "--host-cpu", "0"),
                                 ("plan", "--host-memory", "inf"),
                                 # a NaN or infinite time never ends a run
                                 ("scale", "--hours", "nan"),
                                 ("scale", "--hours", "inf"),
                                 ("scale", "--epoch", "nan"),
                                 ("scale", "--monitor-period", "nan"),
                                 ("scale", "--monitor-period", "inf"),
                                 ("scale", "--monitor-period", "0"),
                                 ("experiment", "--hours", "nan"))] + [
    pytest.param("scale", "--defrag-every", value,
                 f"must be a finite number of at least 0, got {value}",
                 id=f"scale---defrag-every-{value}")
    for value in ("nan", "inf", "-1")])
def test_count_below_one_is_refused_before_building(command, flag, value,
                                                    message, xml_path,
                                                    capsys):
    # The parser refuses the value, so no command runs: at a parser that
    # took it, a NaN run length would never end.
    manifest = [xml_path] if command in ("capacity", "plan") else []
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, *manifest, flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: argument {flag}: {message}\n")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_capacity_plan(xml_path, capsys):
    assert main(["capacity", xml_path]) == 0
    out = capsys.readouterr().out
    assert "ceiling: 6 host(s)" in out


def test_capacity_admission_ok(xml_path, capsys):
    assert main(["capacity", xml_path, "--hosts", "6"]) == 0
    assert "OK" in capsys.readouterr().out


def test_capacity_admission_refused(xml_path, capsys):
    assert main(["capacity", xml_path, xml_path, "--hosts", "6"]) == 1
    assert "REFUSED" in capsys.readouterr().out


def test_control_demo(capsys):
    assert main(["control-demo", "--tenants", "3", "--services", "3",
                 "--hosts", "3", "--quota", "2"]) == 0
    out = capsys.readouterr().out
    assert "ADMITTED -> north" in out
    assert "queued (depth" in out
    assert "peak queue depth:" in out
    assert "rejected   0" in out
    # the demo drains completely: everything admitted is later released
    assert "submitted  9" in out
    assert "released   9" in out
    # phase 2: the causal chain from a KPI publication to the VEE it caused
    assert "causal chain: kpi.publish #" in out
    assert "is an ancestor of vm.deploy #" in out
    assert "rule-engine:rule.firing" in out
    assert "-> PASS" in out


def test_obs_report(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    assert main(["obs-report", "--chrome", str(chrome),
                 "--jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "== span tree" in out
    assert "control:request" in out
    assert "== metrics ==" in out
    assert "# TYPE control_plane_submitted counter" in out
    assert "time-constraint audit" in out and "-> PASS" in out
    # the exports are structurally valid
    import json
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"] and any(e["ph"] == "X"
                                      for e in doc["traceEvents"])
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert any(row.get("record") == "span" for row in lines)
    assert any("span_id" in row for row in lines)


def test_obs_report_stdout_is_golden():
    """The span tree, the whole metric dump (owned instruments and every
    component's gauges) and the audit print byte for byte what they
    printed when ``tests/golden/obs_report.txt`` was written, run as
    ``python -m repro``. Regenerate only for a change that means to move
    it: ``PYTHONPATH=src python -m repro obs-report >
    tests/golden/obs_report.txt``."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    result = subprocess.run([sys.executable, "-m", "repro", "obs-report"],
                            cwd=root, env=env, capture_output=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (root / "tests" / "golden"
                             / "obs_report.txt").read_bytes()


def test_obs_report_is_golden_twice_in_one_process(capsys):
    """Span ids, fabric and plane labels and probe ids number per
    environment, so a report printed after other runs in the same
    interpreter (this test process has built many) is still the golden
    one, and so is the next."""
    golden = (Path(__file__).resolve().parent / "golden"
              / "obs_report.txt").read_bytes()
    for _ in range(2):
        assert main(["obs-report"]) == 0
        assert capsys.readouterr().out.encode() == golden
