"""The Condor-like scheduler (schedd) with matchmaking.

§6.1.1: "Requests are authenticated, processed and delegated to a Condor
scheduler, which will maintain a queue of jobs and manage their execution on
a collection of available remote execution nodes. It will match jobs to
execution nodes according to workload and other characteristics ... Once a
target node has been selected it will transfer binary and input files over
and remotely monitor the execution of the job."

The scheduler exposes the KPI the evaluation's elasticity rule consumes:
``queue_size`` — the number of *idle* jobs ("there are more than 4 idle jobs
in the queue", §6.1.2) — plus node-availability counters used by the
scale-down path. Matchmaking is event-driven (job arrival / node
availability) with a small negotiation latency per match.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..sim.kernel import Environment, Interrupt
from ..sim.tracing import SeriesRecorder, TraceLog
from .jobs import Job, JobState

__all__ = ["CondorScheduler", "ExecutionNodeHandle"]


class ExecutionNodeHandle:
    """The schedd's view of one registered startd (execution node).

    One job per node at a time (§6.1.1: "Each node runs only a single job at
    a time"). ``draining`` nodes accept no new work and deregister when idle.
    """

    def __init__(self, name: str, *, transfer_mb_per_s: float = 50.0,
                 attributes: Optional[dict] = None):
        if transfer_mb_per_s <= 0:
            raise ValueError("transfer rate must be positive")
        self.name = name
        self.transfer_mb_per_s = float(transfer_mb_per_s)
        #: ClassAd-style machine attributes advertised to the schedd
        #: (cpus, memory_mb, arch, has_gpu, ...)
        self.attributes = dict(attributes or {})
        self.current_job: Optional[Job] = None
        self.draining = False
        self.registered_at: Optional[float] = None
        self.jobs_completed = 0
        #: the in-flight _run_job process, interrupted on node failure
        self._runner = None
        #: invoked when the node finishes draining (scheduler deregisters it)
        self.on_drained: Optional[Callable[["ExecutionNodeHandle"], None]] = None

    @property
    def busy(self) -> bool:
        return self.current_job is not None

    @property
    def available(self) -> bool:
        return not self.busy and not self.draining

    def satisfies(self, requirements: dict) -> bool:
        """ClassAd-style match: numeric requirements are minimums, all
        other values must be equal; a missing attribute never matches."""
        for key, wanted in requirements.items():
            have = self.attributes.get(key)
            if have is None:
                return False
            if isinstance(wanted, bool) or isinstance(have, bool):
                # Bools compare only with bools: True must not satisfy a
                # numeric minimum of 1 (Python would say 1 == True).
                if not (isinstance(wanted, bool) and isinstance(have, bool)
                        and have == wanted):
                    return False
            elif isinstance(wanted, (int, float)) and isinstance(
                    have, (int, float)):
                if have < wanted:
                    return False
            elif have != wanted:
                return False
        return True

    def __repr__(self) -> str:
        state = ("draining" if self.draining
                 else "busy" if self.busy else "idle")
        return f"<Node {self.name} {state}>"


class CondorScheduler:
    """Queue, matchmaking loop and execution monitoring."""

    def __init__(self, env: Environment, *, match_delay_s: float = 1.0,
                 trace: Optional[TraceLog] = None):
        if match_delay_s < 0:
            raise ValueError("match delay must be non-negative")
        self.env = env
        self.name = "schedd"
        self.match_delay_s = match_delay_s
        self.trace = trace if trace is not None else TraceLog(env)
        self.series = SeriesRecorder(env)
        self.idle_jobs: deque[Job] = deque()
        self.all_jobs: list[Job] = []
        self.nodes: dict[str, ExecutionNodeHandle] = {}
        self._match_pending = False
        # Time series for Fig. 11: queued jobs and registered nodes.
        self.series.record("queue_size", 0)
        self.series.record("nodes_registered", 0)

    # ------------------------------------------------------------------
    # KPIs (what the monitoring agent publishes)
    # ------------------------------------------------------------------
    @property
    def queue_size(self) -> int:
        """Idle jobs awaiting a node — ``uk.ucl.condor.schedd.queuesize``."""
        return len(self.idle_jobs)

    @property
    def node_count(self) -> int:
        """Registered nodes — ``uk.ucl.condor.exec.instances.size``."""
        return len(self.nodes)

    @property
    def idle_node_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.available)

    @property
    def running_jobs(self) -> int:
        return sum(1 for n in self.nodes.values() if n.busy)

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        if job.state is not JobState.IDLE or job.submitted_at is not None:
            raise ValueError(f"job {job.job_id} is not freshly idle")
        job.bind(self.env)
        self.idle_jobs.append(job)
        self.all_jobs.append(job)
        self.series.record("queue_size", self.queue_size)
        self.trace.emit(self.name, "job.submit", job=job.job_id, name=job.name)
        self._schedule_matchmaking()
        return job

    def submit_many(self, jobs: list[Job]) -> list[Job]:
        for job in jobs:
            self.submit(job)
        return jobs

    # ------------------------------------------------------------------
    # Node registration (startd advertising)
    # ------------------------------------------------------------------
    def register_node(self, node: ExecutionNodeHandle) -> None:
        if node.name in self.nodes:
            raise ValueError(f"node {node.name!r} already registered")
        node.registered_at = self.env.now
        node.draining = False
        self.nodes[node.name] = node
        self.series.record("nodes_registered", self.node_count)
        self.trace.emit(self.name, "node.register", node=node.name)
        self._schedule_matchmaking()

    def deregister_node(self, node: ExecutionNodeHandle) -> None:
        if node.name not in self.nodes:
            raise ValueError(f"node {node.name!r} not registered")
        if node.busy:
            raise ValueError(
                f"node {node.name!r} is busy; drain it instead"
            )
        del self.nodes[node.name]
        self.series.record("nodes_registered", self.node_count)
        self.trace.emit(self.name, "node.deregister", node=node.name)

    def drain_node(self, node: ExecutionNodeHandle) -> None:
        """Stop assigning work; deregister as soon as the node is idle."""
        if node.name not in self.nodes:
            raise ValueError(f"node {node.name!r} not registered")
        node.draining = True
        self.trace.emit(self.name, "node.drain", node=node.name,
                        busy=node.busy)
        if not node.busy:
            self._finish_drain(node)

    def node_failed(self, node: ExecutionNodeHandle) -> None:
        """Abrupt node loss (its VM crashed): deregister immediately and
        requeue whatever it was running — Condor reschedules interrupted
        jobs on other machines."""
        if node.name not in self.nodes:
            return  # never registered, or already gone
        del self.nodes[node.name]
        self.series.record("nodes_registered", self.node_count)
        job = node.current_job
        node.current_job = None
        if node._runner is not None and node._runner.is_alive:
            node._runner.interrupt("node failed")
        self.trace.emit(self.name, "node.failed", node=node.name,
                        requeued=job.job_id if job else None)
        if job is not None:
            job.requeue()
            self.idle_jobs.appendleft(job)  # retries jump the queue
            self.series.record("queue_size", self.queue_size)
            self._schedule_matchmaking()

    def pick_node_to_drain(self) -> Optional[ExecutionNodeHandle]:
        """Scale-down helper: prefer an idle node; else the most recently
        registered busy one; never a node already draining."""
        candidates = [n for n in self.nodes.values() if not n.draining]
        if not candidates:
            return None
        idle = [n for n in candidates if not n.busy]
        if idle:
            return max(idle, key=lambda n: n.registered_at)
        return max(candidates, key=lambda n: n.registered_at)

    def _finish_drain(self, node: ExecutionNodeHandle) -> None:
        self.deregister_node(node)
        if node.on_drained is not None:
            node.on_drained(node)

    # ------------------------------------------------------------------
    # Matchmaking
    # ------------------------------------------------------------------
    def _schedule_matchmaking(self) -> None:
        if self._match_pending:
            return
        self._match_pending = True
        self.env.process(self._negotiate(), name=f"{self.name}:negotiate")

    def _negotiate(self):
        if self.match_delay_s > 0:
            yield self.env.timeout(self.match_delay_s)
        self._match_pending = False
        # Scan the queue in order; a job whose requirements no free node
        # satisfies is skipped (it stays idle) without starving the jobs
        # behind it — Condor's negotiation behaves the same way. Once no
        # node is free every remaining job would be skipped, so the scan
        # stops there: a pass costs O(free nodes + jobs popped until the
        # pool is full).
        free = [n for n in self.nodes.values() if n.available]
        unmatched: deque[Job] = deque()
        progressed = False
        while free and self.idle_jobs:
            job = self.idle_jobs.popleft()
            requirements = job.requirements
            for i, node in enumerate(free):
                if node.satisfies(requirements):
                    break
            else:
                unmatched.append(job)
                continue
            del free[i]
            progressed = True
            node.current_job = job
            self.trace.emit(self.name, "job.match", job=job.job_id,
                            node=node.name)
            node._runner = self.env.process(self._run_job(job, node),
                                            name=f"run:{job.job_id}")
        # Preserve queue order for the jobs that found no machine.
        while unmatched:
            self.idle_jobs.appendleft(unmatched.pop())
        if progressed:
            # One record per pass: same-instant records overwrite each
            # other, so only the pass's final queue length is observable.
            self.series.record("queue_size", self.queue_size)

    def _run_job(self, job: Job, node: ExecutionNodeHandle):
        # node_failed() requeues the job and clears node.current_job before
        # its interrupt lands, so a wait ending at the failure's instant
        # resumes here first: each resume checks the node still holds the
        # job.
        try:
            job.mark_transferring(node.name)
            yield self.env.timeout(job.input_mb / node.transfer_mb_per_s)
            if node.current_job is not job:
                return
            job.mark_running(self.env)
            self.trace.emit(self.name, "job.start", job=job.job_id,
                            node=node.name)
            yield self.env.timeout(job.duration_s)
            yield self.env.timeout(job.output_mb / node.transfer_mb_per_s)
        except Interrupt:
            # node_failed() already requeued the job; just stop.
            return
        if node.current_job is not job:
            return
        job.mark_completed(self.env)
        node.jobs_completed += 1
        node.current_job = None
        node._runner = None
        self.trace.emit(self.name, "job.complete", job=job.job_id,
                        node=node.name, turnaround=job.turnaround)
        if node.draining:
            self._finish_drain(node)
        else:
            self._schedule_matchmaking()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def completed_jobs(self) -> list[Job]:
        return [j for j in self.all_jobs if j.state is JobState.COMPLETED]
