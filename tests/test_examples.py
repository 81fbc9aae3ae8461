"""The scripts in ``examples/`` and the README's snippets run to
completion.

Each example runs in its own interpreter from the repository root with
``PYTHONPATH=src`` and must exit 0. Two must also print what they always
have: the quickstart's scale-up/down cycle and the monitoring tour's
network accounting.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: lines an example must print, by script name
EXPECTED = {
    "quickstart": ["ScaleWebUp: 2 firing(s)", "ScaleWebDown: 2 firing(s)"],
    "monitoring_tour": [
        "network accounting: 10 packets, 1070 bytes published, "
        "2140 bytes delivered",
    ],
}


def run_example(path, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_example_is_collected():
    assert len(EXAMPLES) == 6
    assert set(EXPECTED) <= {path.stem for path in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path):
    result = run_example(path)
    assert result.returncode == 0, result.stderr
    for line in EXPECTED.get(path.stem, ()):
        assert line in result.stdout


def test_readme_snippets_run_in_order(tmp_path):
    """The README's Python blocks build on each other (the control plane
    reuses the quickstart's kernel, VEEM and manifest; the tracing block
    its Service Manager), so they run as one script, in a temporary
    directory because the last one writes ``trace.json``."""
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 3
    script = tmp_path / "readme.py"
    script.write_text("\n".join(blocks))
    result = run_example(script, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "'admitted': 1" in result.stdout
    assert (tmp_path / "trace.json").exists()
