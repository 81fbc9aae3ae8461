"""Discrete-event simulation substrate.

The kernel on which the whole reproduction runs: event loop and processes
(:mod:`~repro.sim.kernel`), structured tracing and time-series recording
(:mod:`~repro.sim.tracing`), seeded random streams (:mod:`~repro.sim.rng`),
and process-sharded execution with epoch barriers (:mod:`~repro.sim.shard`).

The random streams are not re-exported: :mod:`~repro.sim.rng` imports
numpy, and only the modules that draw random numbers should load it.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimError,
    Timeout,
)
from .shard import (
    EpochCommand,
    EpochReport,
    ShardError,
    ShardPool,
    partition_round_robin,
    read_peak_rss_kb,
)
from .tracing import (
    SeriesRecorder,
    Span,
    SpanError,
    TimeSeries,
    TraceLog,
    TraceRecord,
    TraceSubscription,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimError",
    "Timeout",
    "EpochCommand",
    "EpochReport",
    "ShardError",
    "ShardPool",
    "partition_round_robin",
    "read_peak_rss_kb",
    "SeriesRecorder",
    "Span",
    "SpanError",
    "TimeSeries",
    "TraceLog",
    "TraceRecord",
    "TraceSubscription",
]
