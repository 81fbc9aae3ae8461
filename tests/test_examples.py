"""The scripts in ``examples/`` and the README's snippets run to
completion.

Each example runs in its own interpreter from the repository root with
``PYTHONPATH=src``, must exit 0 and must print, byte for byte, what it
printed when its golden file under ``tests/golden/examples/`` was written.
Every example is deterministic (seeded, simulated time only), so any
change in its output is a change in behaviour. Regenerate a golden file
only for a change that means to move it: ``PYTHONPATH=src python
examples/<name>.py > tests/golden/examples/<name>.txt``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "examples"


def run_example(path, cwd=ROOT, text=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=text, timeout=300)


def test_every_example_is_collected():
    assert len(EXAMPLES) == 6
    assert ({path.stem for path in EXAMPLES}
            == {path.stem for path in GOLDEN.glob("*.txt")})


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path):
    result = run_example(path, text=False)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{path.stem}.txt").read_bytes()


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
