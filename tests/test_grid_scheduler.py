"""Tests for jobs and the Condor-like scheduler."""

import pytest

from repro.grid import CondorScheduler, ExecutionNodeHandle, Job, JobState
from repro.sim import Environment


def make_sched(env, match_delay=0.0):
    return CondorScheduler(env, match_delay_s=match_delay)


def add_node(sched, name="n0", rate=1e9):
    node = ExecutionNodeHandle(name, transfer_mb_per_s=rate)
    sched.register_node(node)
    return node


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------

def test_job_validation():
    with pytest.raises(ValueError):
        Job(duration_s=0)
    with pytest.raises(ValueError):
        Job(duration_s=10, input_mb=-1)


def test_job_ids_unique_and_name_defaults():
    a, b = Job(duration_s=1), Job(duration_s=1)
    assert a.job_id != b.job_id
    assert a.name == a.job_id
    assert Job(duration_s=1, name="custom").name == "custom"


def test_job_metrics_before_events_are_none():
    job = Job(duration_s=10)
    assert job.started_at is None
    assert job.turnaround is None


# ---------------------------------------------------------------------------
# Submission and matchmaking
# ---------------------------------------------------------------------------

def test_job_runs_on_registered_node():
    env = Environment()
    sched = make_sched(env)
    add_node(sched)
    job = sched.submit(Job(duration_s=100, input_mb=0, output_mb=0))
    env.run()
    assert job.state is JobState.COMPLETED
    assert job.turnaround == pytest.approx(100)
    assert job.node_name == "startd@n0" or job.node_name == "n0"


def test_queue_size_counts_idle_only():
    env = Environment()
    sched = make_sched(env)
    add_node(sched)
    jobs = [Job(duration_s=50, input_mb=0, output_mb=0) for _ in range(3)]
    sched.submit_many(jobs)
    assert sched.queue_size == 3  # matchmaking hasn't run yet
    env.run(until=1)
    assert sched.queue_size == 2  # one matched to the single node
    assert sched.running_jobs == 1
    env.run()
    assert sched.queue_size == 0
    assert all(j.state is JobState.COMPLETED for j in jobs)


def test_jobs_complete_fifo_on_single_node():
    env = Environment()
    sched = make_sched(env)
    add_node(sched)
    jobs = [Job(duration_s=10, input_mb=0, output_mb=0, name=f"j{i}")
            for i in range(3)]
    sched.submit_many(jobs)
    env.run()
    finish = [j.completed_at for j in jobs]
    assert finish == sorted(finish)
    assert [j.name for j in sorted(jobs, key=lambda j: j.completed_at)] == \
        ["j0", "j1", "j2"]


def test_parallel_nodes_share_queue():
    env = Environment()
    sched = make_sched(env)
    for i in range(4):
        add_node(sched, f"n{i}")
    jobs = [Job(duration_s=100, input_mb=0, output_mb=0) for _ in range(8)]
    sched.submit_many(jobs)
    env.run()
    # Two waves of four: makespan 200.
    assert env.now == pytest.approx(200)
    assert all(j.state is JobState.COMPLETED for j in jobs)


def test_transfer_time_added_to_execution():
    env = Environment()
    sched = make_sched(env)
    add_node(sched, rate=10.0)  # MB/s
    job = sched.submit(Job(duration_s=100, input_mb=50, output_mb=20))
    env.run()
    # 5 s in + 100 s run + 2 s out
    assert job.completed_at == pytest.approx(107.0)
    # Submission → execution start includes the input transfer.
    assert job.started_at - job.submitted_at == pytest.approx(5.0)


def test_match_delay_applies():
    env = Environment()
    sched = make_sched(env, match_delay=2.0)
    add_node(sched)
    job = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0))
    env.run()
    assert job.completed_at == pytest.approx(12.0)


def test_node_registration_triggers_matching():
    env = Environment()
    sched = make_sched(env)
    job = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0))

    def late_node(env):
        yield env.timeout(100)
        add_node(sched)

    env.process(late_node(env))
    env.run()
    assert job.completed_at == pytest.approx(110.0)
    assert job.started_at - job.submitted_at == pytest.approx(100.0)


def test_resubmission_of_same_job_rejected():
    env = Environment()
    sched = make_sched(env)
    job = sched.submit(Job(duration_s=10))
    with pytest.raises(ValueError):
        sched.submit(job)


def test_remove_idle_job():
    env = Environment()
    sched = make_sched(env)
    job = sched.submit(Job(duration_s=10))
    sched.remove(job)
    assert job.state is JobState.REMOVED
    assert sched.queue_size == 0
    with pytest.raises(ValueError):
        sched.remove(job)


def test_duplicate_node_name_rejected():
    env = Environment()
    sched = make_sched(env)
    add_node(sched, "n0")
    with pytest.raises(ValueError):
        add_node(sched, "n0")


def test_deregister_busy_node_rejected():
    env = Environment()
    sched = make_sched(env)
    node = add_node(sched)
    sched.submit(Job(duration_s=100, input_mb=0, output_mb=0))
    env.run(until=10)
    assert node.busy
    with pytest.raises(ValueError):
        sched.deregister_node(node)


def test_drain_idle_node_deregisters_immediately():
    env = Environment()
    sched = make_sched(env)
    node = add_node(sched)
    drained = []
    node.on_drained = drained.append
    sched.drain_node(node)
    assert sched.node_count == 0
    assert drained == [node]


def test_drain_busy_node_finishes_current_job():
    env = Environment()
    sched = make_sched(env)
    node = add_node(sched)
    job = sched.submit(Job(duration_s=100, input_mb=0, output_mb=0))
    extra = sched.submit(Job(duration_s=100, input_mb=0, output_mb=0))
    env.run(until=10)
    drained = []
    node.on_drained = drained.append
    sched.drain_node(node)
    env.run(until=150)
    assert job.state is JobState.COMPLETED
    assert drained == [node]
    # The second job never ran on the drained node.
    assert extra.state is JobState.IDLE
    assert sched.node_count == 0


def test_pick_node_to_drain_prefers_idle():
    env = Environment()
    sched = make_sched(env)
    busy = add_node(sched, "busy")
    sched.submit(Job(duration_s=1000, input_mb=0, output_mb=0))
    env.run(until=5)

    def later(env):
        yield env.timeout(1)
        idle = add_node(sched, "idle")
        assert sched.pick_node_to_drain() is idle

    env.process(later(env))
    env.run(until=10)
    assert busy.busy


def test_pick_node_to_drain_falls_back_to_newest_busy():
    env = Environment()
    sched = make_sched(env)
    first = add_node(sched, "first")
    sched.submit(Job(duration_s=1000, input_mb=0, output_mb=0))
    env.run(until=5)

    def later(env):
        yield env.timeout(1)
        second = add_node(sched, "second")
        sched.submit(Job(duration_s=1000, input_mb=0, output_mb=0))
        yield env.timeout(5)
        assert second.busy
        assert sched.pick_node_to_drain() is second
        sched.drain_node(second)
        # Already-draining nodes are not offered again.
        assert sched.pick_node_to_drain() is first

    env.process(later(env))
    env.run(until=50)


# ---------------------------------------------------------------------------
# Node failure at the instant one of the job's waits ends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("draining", [False, True], ids=["busy", "draining"])
@pytest.mark.parametrize("at", [2.0, 15.0], ids=["input-done", "job-done"])
def test_node_failing_as_a_wait_ends_requeues_the_job_once(draining, at):
    """The failure is processed before the job's wait ending at the same
    instant (it was scheduled first), so its interrupt lands behind that
    resume. The job must be requeued once and never completed, and a
    draining node must not be deregistered a second time."""
    env = Environment()
    sched = make_sched(env)
    node = ExecutionNodeHandle("n0", transfer_mb_per_s=1.0)
    # input done at 2.0; 10 s of work and 3 MB out: the job ends at 15.0
    job = Job(duration_s=10, input_mb=2, output_mb=3)

    def fail():
        yield env.timeout(at)
        sched.node_failed(node)

    env.process(fail())
    sched.register_node(node)
    sched.submit(job)
    drained = []
    if draining:
        env.run(until=1.0)
        node.on_drained = drained.append
        sched.drain_node(node)
    env.run()
    assert job.state is JobState.IDLE
    assert list(sched.idle_jobs) == [job]
    assert job.completed_at is None
    assert not sched.trace.query(kind="job.complete")
    assert [r.details["requeued"]
            for r in sched.trace.query(kind="node.failed")] == [job.job_id]
    assert sched.node_count == 0 and node.current_job is None
    assert drained == []  # the node failed; it never finished draining
    # The requeued job runs to completion once on the next node.
    add_node(sched, "n1")
    env.run()
    assert job.state is JobState.COMPLETED
    assert [r.details["job"] for r in sched.trace.query(
        kind="job.complete")] == [job.job_id]


def test_series_track_queue_and_nodes():
    env = Environment()
    # Non-zero match delay so the t=0 queue spike isn't collapsed by the
    # same-timestamp overwrite semantics of TimeSeries.
    sched = make_sched(env, match_delay=1.0)
    add_node(sched)
    sched.submit_many([Job(duration_s=10, input_mb=0, output_mb=0)
                       for _ in range(5)])
    env.run()
    queue = sched.series["queue_size"]
    nodes = sched.series["nodes_registered"]
    assert queue.maximum() == 5
    assert queue.current == 0
    assert nodes.current == 1
