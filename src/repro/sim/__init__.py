"""Discrete-event simulation substrate.

The kernel on which the whole reproduction runs: event loop and processes
(:mod:`~repro.sim.kernel`), structured tracing and time-series recording
(:mod:`~repro.sim.tracing`), seeded random streams (:mod:`~repro.sim.rng`),
and process-sharded execution with epoch barriers (:mod:`~repro.sim.shard`).
"""

# perfbench/workload.py imports this name from the package.
from .shard import read_peak_rss_kb  # noqa: F401
