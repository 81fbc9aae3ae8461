"""Discrete-event simulation substrate.

The kernel on which the whole reproduction runs: event loop and processes
(:mod:`~repro.sim.kernel`), structured tracing and time-series recording
(:mod:`~repro.sim.tracing`), seeded random streams (:mod:`~repro.sim.rng`),
and process-sharded execution with epoch barriers (:mod:`~repro.sim.shard`).
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
from .rng import RandomStreams, lognormal_from_mean_cv
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
    "RandomStreams",
    "lognormal_from_mean_cv",
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
