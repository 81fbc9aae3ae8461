"""The scripts in ``examples/`` run to completion.

Each runs in its own interpreter from the repository root with
``PYTHONPATH=src`` and must exit 0. Two must also print what they always
have: the quickstart's scale-up/down cycle and the monitoring tour's
network accounting.
"""

import os
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


def run_example(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
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
