"""Tests for ClassAd-style requirement matchmaking (§6.1.1)."""

import random
from collections import deque

import pytest

from repro.grid.jobs import Job, JobState
from repro.grid.scheduler import CondorScheduler, ExecutionNodeHandle
from repro.sim.kernel import Environment


def add_node(sched, name, **attributes):
    node = ExecutionNodeHandle(name, transfer_mb_per_s=1e9,
                               attributes=attributes)
    sched.register_node(node)
    return node


def test_satisfies_semantics():
    node = ExecutionNodeHandle("n", attributes={
        "memory_mb": 4096, "cpus": 2, "arch": "x86_64", "has_gpu": False,
    })
    assert node.satisfies({})
    assert node.satisfies({"memory_mb": 2048})          # numeric ≥
    assert node.satisfies({"memory_mb": 4096})
    assert not node.satisfies({"memory_mb": 8192})
    assert node.satisfies({"arch": "x86_64"})           # exact match
    assert not node.satisfies({"arch": "aarch64"})
    assert node.satisfies({"has_gpu": False})           # bools exact
    assert not node.satisfies({"has_gpu": True})
    assert not node.satisfies({"missing_attr": 1})      # absent → no match


def test_bool_not_coerced_to_numeric():
    """has_gpu=True must not satisfy a numeric minimum of 1 by accident,
    nor vice versa."""
    node = ExecutionNodeHandle("n", attributes={"has_gpu": True, "slots": 1})
    assert not node.satisfies({"has_gpu": 1})
    assert not node.satisfies({"slots": True})


def test_job_matched_to_qualified_node_only():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    small = add_node(sched, "small", memory_mb=1024)
    big = add_node(sched, "big", memory_mb=8192)
    job = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0,
                           requirements={"memory_mb": 4096}))
    env.run()
    assert job.state is JobState.COMPLETED
    assert job.node_name == "big"
    assert small.jobs_completed == 0


def test_unmatchable_job_waits_without_starving_others():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    add_node(sched, "cpu-only", memory_mb=2048)
    gpu_job = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0,
                               requirements={"has_gpu": True},
                               name="gpu-job"))
    plain = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0,
                             name="plain"))
    env.run(until=50)
    # The plain job behind the unmatchable one still ran.
    assert plain.state is JobState.COMPLETED
    assert gpu_job.state is JobState.IDLE
    assert sched.queue_size == 1
    # A qualified node arriving later picks the waiting job up.
    add_node(sched, "gpu-box", has_gpu=True, memory_mb=2048)
    env.run(until=100)
    assert gpu_job.state is JobState.COMPLETED
    assert gpu_job.node_name == "gpu-box"


def test_queue_order_preserved_among_matchable_jobs():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    add_node(sched, "n0", memory_mb=2048)
    blocked = sched.submit(Job(duration_s=5, input_mb=0, output_mb=0,
                               requirements={"memory_mb": 9999},
                               name="blocked"))
    first = sched.submit(Job(duration_s=5, input_mb=0, output_mb=0,
                             name="first"))
    second = sched.submit(Job(duration_s=5, input_mb=0, output_mb=0,
                              name="second"))
    env.run(until=30)
    assert first.completed_at < second.completed_at
    assert blocked.state is JobState.IDLE


def test_heterogeneous_pool_parallel_matching():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    for i in range(2):
        add_node(sched, f"small-{i}", memory_mb=1024)
    for i in range(2):
        add_node(sched, f"big-{i}", memory_mb=8192)
    big_jobs = [sched.submit(Job(duration_s=100, input_mb=0, output_mb=0,
                                 requirements={"memory_mb": 4096}))
                for _ in range(4)]
    small_jobs = [sched.submit(Job(duration_s=100, input_mb=0, output_mb=0))
                  for _ in range(4)]
    env.run()
    assert all(j.node_name.startswith("big") for j in big_jobs)
    # Small jobs may run anywhere; everything completes.
    assert all(j.state is JobState.COMPLETED
               for j in big_jobs + small_jobs)
    # Big nodes served the memory-hungry jobs in two waves → makespan 200+.
    assert max(j.completed_at for j in big_jobs) == pytest.approx(200, abs=5)


# ---------------------------------------------------------------------------
# Differential: the negotiation pass against the full-queue scan
# ---------------------------------------------------------------------------

class FullScanScheduler(CondorScheduler):
    """Reference negotiation: every idle job is tested against every
    registered node on every pass, even once no node is free."""

    def _negotiate(self):
        if self.match_delay_s > 0:
            yield self.env.timeout(self.match_delay_s)
        self._match_pending = False
        unmatched: deque[Job] = deque()
        progressed = False
        while self.idle_jobs:
            job = self.idle_jobs.popleft()
            node = next(
                (n for n in self.nodes.values()
                 if n.available and n.satisfies(job.requirements)), None)
            if node is None:
                unmatched.append(job)
                continue
            progressed = True
            node.current_job = job
            self.series.record("queue_size", self.queue_size)
            self.trace.emit(self.name, "job.match", job=job.job_id,
                            node=node.name)
            node._runner = self.env.process(self._run_job(job, node),
                                            name=f"run:{job.job_id}")
        while unmatched:
            self.idle_jobs.appendleft(unmatched.pop())
        if progressed:
            self.series.record("queue_size", self.queue_size)


#: job requirements drawn by the traffic: plain, numeric minimums, exact
#: matches, and two no node ever advertises (unmatchable)
REQUIREMENTS = (
    {}, {}, {"memory_mb": 2048}, {"memory_mb": 8192}, {"arch": "x86_64"},
    {"has_gpu": True}, {"memory_mb": 4096, "has_gpu": True},
    {"arch": "sparc"}, {"memory_mb": 1 << 20},
)
NODE_KINDS = (
    {"memory_mb": 1024, "arch": "x86_64", "has_gpu": False},
    {"memory_mb": 4096, "arch": "x86_64", "has_gpu": False},
    {"memory_mb": 8192, "arch": "aarch64", "has_gpu": False},
    {"memory_mb": 8192, "arch": "x86_64", "has_gpu": True},
)


def drive_traffic(scheduler_cls, seed: int):
    """Seeded job arrivals plus node registrations, drains, failures and
    re-registrations. Arrivals, drains and registrations happen on integer
    instants, so they coincide with negotiation passes and job ends."""
    rng = random.Random(seed)
    env = Environment()
    sched = scheduler_cls(env, match_delay_s=rng.choice((0.0, 1.0)))
    spare = [ExecutionNodeHandle(f"n{i}", transfer_mb_per_s=rng.choice(
                 (1.0, 2.0)), attributes=rng.choice(NODE_KINDS))
             for i in range(8)]
    jobs = []

    def traffic():
        for _ in range(120):
            yield env.timeout(rng.choice((0, 1, 1, 2, 3)))
            roll = rng.random()
            if roll < 0.5:
                for _ in range(rng.randint(1, 4)):
                    job = Job(duration_s=rng.randint(1, 12),
                              input_mb=rng.choice((0, 2)), output_mb=0,
                              requirements=dict(rng.choice(REQUIREMENTS)),
                              name=f"j{len(jobs)}")
                    jobs.append(job)
                    sched.submit(job)
            elif roll < 0.7 and spare:
                sched.register_node(spare.pop(rng.randrange(len(spare))))
            elif roll < 0.8 and sched.nodes:
                node = sched.pick_node_to_drain()
                if node is not None:
                    node.on_drained = spare.append
                    sched.drain_node(node)
            elif roll < 0.9 and sched.nodes:
                # Failures land between the integer instants on which jobs
                # end; a failure at the very instant a job's wait ends has
                # its own regression test in test_grid_scheduler.py.
                yield env.timeout(0.5)
                if sched.nodes:
                    node = rng.choice(sorted(sched.nodes.values(),
                                             key=lambda n: n.name))
                    sched.node_failed(node)
                    spare.append(node)
                yield env.timeout(0.5)

    env.process(traffic())
    env.run(until=400)
    names = {job.job_id: job.name for job in jobs}
    matches = [(r.time, names[r.details["job"]], r.details["node"])
               for r in sched.trace.query(kind="job.match")]
    return (matches, sched.series["queue_size"].steps(),
            [job.name for job in sched.idle_jobs])


@pytest.mark.parametrize("seed", range(24))
def test_negotiation_matches_full_queue_scan(seed):
    reference = drive_traffic(FullScanScheduler, seed)
    assert drive_traffic(CondorScheduler, seed) == reference
    matches, queue_series, _idle = reference
    # The traffic exercised matching and the queue series.
    assert matches and len(queue_series) > 2


def test_traffic_leaves_unmatchable_jobs_queued():
    """At least some seeds end with a backlog, so the final idle-queue
    order comparison above is not vacuous."""
    assert any(drive_traffic(CondorScheduler, seed)[2]
               for seed in range(24))
