"""Condor-like grid substrate and BPEL-style orchestration.

The evaluation application's stack (§6.1.1): a scheduler maintaining a job
queue and matchmaking against registered execution nodes
(:mod:`~repro.grid.scheduler`), execution services whose registration is tied
to VM lifecycle (:mod:`~repro.grid.execution`), an orchestration engine
(:mod:`~repro.grid.workflow`) and the polymorph-search workload
(:mod:`~repro.grid.polymorph`).
"""

from .execution import CondorExecDriver, ExecutionService, VirtualCluster
from .jobs import Job, JobState
from .polymorph import PolymorphSearchConfig, build_polymorph_workflow
from .scheduler import CondorScheduler, ExecutionNodeHandle
from .workflow import (
    Activity,
    ForEachCompletion,
    Invoke,
    Sequence,
    SubmitJobs,
    WaitForJobs,
    Workflow,
    WorkflowContext,
)

__all__ = [
    "CondorExecDriver",
    "ExecutionService",
    "VirtualCluster",
    "Job",
    "JobState",
    "PolymorphSearchConfig",
    "build_polymorph_workflow",
    "CondorScheduler",
    "ExecutionNodeHandle",
    "Activity",
    "ForEachCompletion",
    "Invoke",
    "Sequence",
    "SubmitJobs",
    "WaitForJobs",
    "Workflow",
    "WorkflowContext",
]
