"""A BPEL-like orchestration engine.

§6.1.1: "The Business Process Execution Language (BPEL) is used to coordinate
the overall execution of the polymorph search, relying on external services
to generate batch jobs, submit the jobs for execution, process the results
and trigger new computations if required."

The engine executes an activity tree — sequences, service invocations
with processing delays, job submissions, joins on job completion, and
callback-driven fan-out ("trigger new computations") — on the simulation
kernel. It is intentionally small but structured like the real thing, so
example applications read like BPEL process definitions.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Optional

from ..sim.kernel import Environment
from ..sim.tracing import TraceLog
from .jobs import Job
from .scheduler import CondorScheduler

__all__ = [
    "WorkflowContext",
    "Activity",
    "Invoke",
    "SubmitJobs",
    "WaitForJobs",
    "Sequence",
    "ForEachCompletion",
    "Workflow",
]


class WorkflowContext:
    """Shared state flowing through a workflow execution."""

    def __init__(self, env: Environment, scheduler: CondorScheduler,
                 trace: Optional[TraceLog] = None):
        self.env = env
        self.scheduler = scheduler
        self.trace = trace if trace is not None else scheduler.trace
        #: free-form slots activities read/write (like BPEL variables)
        self.variables: dict[str, Any] = {}
        #: every job this workflow submitted
        self.jobs: list[Job] = []


class Activity(abc.ABC):
    """One node of the activity tree."""

    @abc.abstractmethod
    def execute(self, ctx: WorkflowContext):
        """Generator run on the sim kernel; yields kernel events."""

    def _emit(self, ctx: WorkflowContext, kind: str, **details: Any) -> None:
        ctx.trace.emit("bpel", kind, activity=type(self).__name__, **details)


class Invoke(Activity):
    """Call an external web service: a processing delay plus a side effect.

    ``action(ctx)`` runs after the delay and may return a value stored in
    ``ctx.variables[result_var]``.
    """

    def __init__(self, name: str, *, duration_s: float = 1.0,
                 action: Optional[Callable[[WorkflowContext], Any]] = None,
                 result_var: Optional[str] = None):
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.name = name
        self.duration_s = duration_s
        self.action = action
        self.result_var = result_var

    def execute(self, ctx: WorkflowContext):
        self._emit(ctx, "invoke.start", name=self.name)
        if self.duration_s > 0:
            yield ctx.env.timeout(self.duration_s)
        result = self.action(ctx) if self.action is not None else None
        if self.result_var is not None:
            ctx.variables[self.result_var] = result
        self._emit(ctx, "invoke.done", name=self.name)
        return result


class SubmitJobs(Activity):
    """Generate and submit a batch of jobs; stores them in a variable."""

    def __init__(self, name: str,
                 job_factory: Callable[[WorkflowContext], Iterable[Job]],
                 *, result_var: str = "jobs"):
        self.name = name
        self.job_factory = job_factory
        self.result_var = result_var

    def execute(self, ctx: WorkflowContext):
        jobs = list(self.job_factory(ctx))
        ctx.scheduler.submit_many(jobs)
        ctx.jobs.extend(jobs)
        ctx.variables[self.result_var] = jobs
        self._emit(ctx, "jobs.submitted", name=self.name, count=len(jobs))
        return jobs
        yield  # pragma: no cover - marks this as a generator


class WaitForJobs(Activity):
    """Join on the completion of every job in a variable."""

    def __init__(self, jobs_var: str = "jobs"):
        self.jobs_var = jobs_var

    def execute(self, ctx: WorkflowContext):
        jobs = ctx.variables.get(self.jobs_var, [])
        if jobs:
            yield ctx.env.all_of([j.on_complete for j in jobs])
        self._emit(ctx, "jobs.joined", count=len(jobs))


class Sequence(Activity):
    """Run child activities one after another."""

    def __init__(self, *activities: Activity):
        self.activities = list(activities)

    def execute(self, ctx: WorkflowContext):
        result = None
        for activity in self.activities:
            result = yield ctx.env.process(
                activity.execute(ctx), name=type(activity).__name__)
        return result


class ForEachCompletion(Activity):
    """Fan-out: as each job in ``jobs_var`` completes, run a follow-up
    activity built from the finished job — "trigger new computations if
    required". Completes when every follow-up has completed.
    """

    def __init__(self, jobs_var: str,
                 follow_up: Callable[[Job], Activity]):
        self.jobs_var = jobs_var
        self.follow_up = follow_up

    def execute(self, ctx: WorkflowContext):
        jobs = list(ctx.variables.get(self.jobs_var, []))

        def branch(job: Job):
            yield job.on_complete
            activity = self.follow_up(job)
            yield ctx.env.process(activity.execute(ctx),
                                  name=f"followup:{job.job_id}")

        branches = [
            ctx.env.process(branch(job), name=f"watch:{job.job_id}")
            for job in jobs
        ]
        if branches:
            yield ctx.env.all_of(branches)


class Workflow:
    """A named root activity plus execution bookkeeping."""

    def __init__(self, name: str, root: Activity):
        self.name = name
        self.root = root
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def run(self, ctx: WorkflowContext):
        """Process: execute the whole tree; returns when it completes."""
        self.started_at = ctx.env.now
        ctx.trace.emit("bpel", "workflow.start", workflow=self.name)
        yield ctx.env.process(self.root.execute(ctx), name=self.name)
        self.finished_at = ctx.env.now
        ctx.trace.emit("bpel", "workflow.done", workflow=self.name,
                       turnaround=self.turnaround)

    def start(self, ctx: WorkflowContext):
        """Launch on the kernel; returns the Process to join on."""
        return ctx.env.process(self.run(ctx), name=f"workflow:{self.name}")

    @property
    def turnaround(self) -> Optional[float]:
        """§6.1.3: time from the user's request to results displayed."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at
