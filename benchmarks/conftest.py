"""Shared fixtures for the benchmark suite.

The full-size evaluation runs (Table 3 / Fig. 11 / weekly) are deterministic
whole-program simulations, so they are executed once per session and shared;
``benchmark.pedantic(rounds=1)`` records their wall time without re-running
a multi-second simulation dozens of times.
"""

import pytest

from repro.experiments.polymorph import run_dedicated, run_elastic


@pytest.fixture(scope="session")
def dedicated_run():
    """The full-size Fig. 11 (left) / Table 3 dedicated baseline."""
    return run_dedicated()


@pytest.fixture(scope="session")
def elastic_run():
    """The full-size Fig. 11 (right) / Table 3 elastic run."""
    return run_elastic()


def paper_row(name: str, paper: float, measured: float, unit: str = ""):
    """Uniform printing of paper-vs-measured rows in benchmark logs."""
    delta = (measured - paper) / paper * 100 if paper else float("nan")
    print(f"    {name:<38} paper={paper:>10.2f}{unit}  "
          f"measured={measured:>10.2f}{unit}  ({delta:+.1f}%)")
