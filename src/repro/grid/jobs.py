"""Batch jobs for the Condor-like grid substrate.

The evaluation application runs "up to 7200 executions of these programs ...
as batch jobs, in both sequential and parallel form" (§6); for the selected
input, "two long running jobs will first be submitted, followed by an
additional set of 200 jobs being spawned with each completion" (§6.1.3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from ..sim import Environment, Event

__all__ = ["JobState", "Job"]

_job_seq = itertools.count(1)


class JobState(enum.Enum):
    """Condor-style job states."""

    IDLE = "idle"              # queued, awaiting matchmaking
    TRANSFERRING = "transferring"  # input files moving to the node
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    REMOVED = "removed"        # withdrawn from the queue


@dataclass
class Job:
    """One batch job: execution demand plus transfer sizes.

    ``duration_s`` is the pure execution time on a node; input/output sizes
    feed the scheduler's file-transfer model ("Once a target node has been
    selected it will transfer binary and input files over", §6.1.1).
    """

    duration_s: float
    name: str = ""
    input_mb: float = 10.0
    output_mb: float = 5.0
    #: ClassAd-style requirements the execution node must satisfy:
    #: numeric entries are minimums (node value ≥ requirement), everything
    #: else must match exactly — "match jobs to execution nodes according to
    #: workload and other characteristics (CPU, memory, etc.)" (§6.1.1)
    requirements: dict[str, Any] = field(default_factory=dict)
    #: arbitrary workload annotations (batch id, phase, ...)
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("job duration must be positive")
        if self.input_mb < 0 or self.output_mb < 0:
            raise ValueError("transfer sizes must be non-negative")
        self.job_id = f"job-{next(_job_seq)}"
        if not self.name:
            self.name = self.job_id
        self.state = JobState.IDLE
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.node_name: Optional[str] = None
        self.on_complete: Optional[Event] = None  # bound at submit time

    # -- lifecycle hooks used by the scheduler --------------------------------
    def bind(self, env: Environment) -> None:
        self.submitted_at = env.now
        self.on_complete = env.event()

    def mark_transferring(self, node_name: str) -> None:
        self.state = JobState.TRANSFERRING
        self.node_name = node_name

    def mark_running(self, env: Environment) -> None:
        self.state = JobState.RUNNING
        self.started_at = env.now

    def mark_completed(self, env: Environment) -> None:
        self.state = JobState.COMPLETED
        self.completed_at = env.now
        if self.on_complete is not None and not self.on_complete.triggered:
            self.on_complete.succeed(self)

    def requeue(self) -> None:
        """Return an evicted job to the idle state for re-matching."""
        self.state = JobState.IDLE
        self.node_name = None
        self.started_at = None

    # -- metrics ---------------------------------------------------------------
    @property
    def turnaround(self) -> Optional[float]:
        if self.completed_at is None or self.submitted_at is None:
            return None
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:
        return f"<Job {self.name} {self.state.value} dur={self.duration_s:.0f}s>"
