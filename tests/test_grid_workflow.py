"""Tests for the BPEL-like workflow engine and the polymorph workload."""

from typing import get_type_hints

import pytest

from repro.grid.jobs import Job
from repro.grid.polymorph import (
    PolymorphSearchConfig,
    build_polymorph_workflow,
)
from repro.grid.scheduler import CondorScheduler, ExecutionNodeHandle
from repro.grid.workflow import (
    ForEachCompletion,
    Invoke,
    Sequence,
    SubmitJobs,
    WaitForJobs,
    Workflow,
    WorkflowContext,
)
from repro.sim.kernel import Environment


def make_ctx(env, nodes=4):
    sched = CondorScheduler(env, match_delay_s=0.0)
    for i in range(nodes):
        sched.register_node(ExecutionNodeHandle(f"n{i}", transfer_mb_per_s=1e9))
    return WorkflowContext(env, sched)


# ---------------------------------------------------------------------------
# Engine activities
# ---------------------------------------------------------------------------

def test_invoke_runs_action_after_delay():
    env = Environment()
    ctx = make_ctx(env)
    seen = []
    wf = Workflow("t", Invoke("svc", duration_s=5,
                              action=lambda c: seen.append(c.env.now) or "ok",
                              result_var="out"))
    wf.start(ctx)
    env.run()
    assert seen == [5.0]
    assert ctx.variables["out"] == "ok"
    assert wf.turnaround == 5.0


def test_invoke_validation():
    with pytest.raises(ValueError):
        Invoke("x", duration_s=-1)


def test_sequence_orders_activities():
    env = Environment()
    ctx = make_ctx(env)
    order = []
    wf = Workflow("t", Sequence(
        Invoke("a", duration_s=3, action=lambda c: order.append(("a", c.env.now))),
        Invoke("b", duration_s=4, action=lambda c: order.append(("b", c.env.now))),
    ))
    wf.start(ctx)
    env.run()
    assert order == [("a", 3.0), ("b", 7.0)]


def test_submit_and_wait_for_jobs():
    env = Environment()
    ctx = make_ctx(env, nodes=2)
    wf = Workflow("t", Sequence(
        SubmitJobs("batch", lambda c: [
            Job(duration_s=50, input_mb=0, output_mb=0) for _ in range(4)
        ]),
        WaitForJobs(),
    ))
    wf.start(ctx)
    env.run()
    # 4 jobs on 2 nodes → two waves of 50 s.
    assert wf.turnaround == pytest.approx(100.0)
    assert len(ctx.jobs) == 4


def test_submit_jobs_annotations_resolve():
    """The module's ``Sequence`` activity must not shadow a typing name
    its annotations use."""
    hints = get_type_hints(SubmitJobs.__init__)
    assert "job_factory" in hints


def test_wait_for_missing_variable_is_noop():
    env = Environment()
    ctx = make_ctx(env)
    wf = Workflow("t", WaitForJobs("nothing"))
    wf.start(ctx)
    env.run()
    assert wf.turnaround == 0.0


def test_for_each_completion_fans_out():
    env = Environment()
    ctx = make_ctx(env, nodes=4)
    spawned = []

    def follow_up(job):
        def factory(c):
            batch = [Job(duration_s=10, input_mb=0, output_mb=0)
                     for _ in range(2)]
            spawned.append((job.name, c.env.now))
            return batch
        return Sequence(
            SubmitJobs(f"fanout-{job.name}", factory,
                       result_var=f"batch-{job.job_id}"),
            WaitForJobs(f"batch-{job.job_id}"),
        )

    wf = Workflow("t", Sequence(
        SubmitJobs("seeds", lambda c: [
            Job(duration_s=20, input_mb=0, output_mb=0, name="s0"),
            Job(duration_s=40, input_mb=0, output_mb=0, name="s1"),
        ], result_var="seeds"),
        ForEachCompletion("seeds", follow_up),
    ))
    wf.start(ctx)
    env.run()
    # Fan-outs were triggered at each seed's completion time.
    assert spawned == [("s0", 20.0), ("s1", 40.0)]
    assert len(ctx.jobs) == 6
    assert wf.turnaround == pytest.approx(50.0)


def test_workflow_trace_records():
    env = Environment()
    ctx = make_ctx(env)
    wf = Workflow("traced", Invoke("a", duration_s=1))
    wf.start(ctx)
    env.run()
    kinds = [r.kind for r in ctx.trace.query(source="bpel")]
    assert kinds == ["workflow.start", "invoke.start", "invoke.done",
                     "workflow.done"]


# ---------------------------------------------------------------------------
# Polymorph workload
# ---------------------------------------------------------------------------

def test_polymorph_config_validation():
    with pytest.raises(ValueError):
        PolymorphSearchConfig(seed_durations_s=())
    with pytest.raises(ValueError):
        PolymorphSearchConfig(seed_durations_s=(0,))
    with pytest.raises(ValueError):
        PolymorphSearchConfig(refinement_mean_s=-5)
    with pytest.raises(ValueError):
        PolymorphSearchConfig(refinements_per_seed=-1)


def test_polymorph_total_jobs():
    config = PolymorphSearchConfig(seed_durations_s=(100, 200),
                                   refinements_per_seed=200)
    assert config.total_jobs == 402


def test_polymorph_small_run_structure():
    """A scaled-down search: structure (seeds → staggered batches) holds."""
    env = Environment()
    ctx = make_ctx(env, nodes=4)
    config = PolymorphSearchConfig(
        seed_durations_s=(100.0, 200.0),
        refinements_per_seed=6,
        refinement_mean_s=30.0,
        refinement_cv=0.1,
        setup_s=10, gather_s=10, generate_s=5,
    )
    run = build_polymorph_workflow(config)
    run.workflow.start(ctx)
    env.run()
    assert run.workflow.turnaround is not None
    assert len(ctx.jobs) == config.total_jobs == 14
    # Two refinement batches, generated after each seed completion.
    assert len(run.batches) == 2
    assert all(len(b) == 6 for b in run.batches)
    seeds = [j for j in ctx.jobs if j.tags.get("phase") == "seed"]
    batch_starts = sorted(
        min(j.submitted_at for j in b) for b in run.batches)
    seed_ends = sorted(j.completed_at for j in seeds)
    # Each batch was submitted after its seed completed (plus generate_s).
    assert batch_starts[0] >= seed_ends[0]
    assert batch_starts[1] >= seed_ends[1]


def test_polymorph_deterministic_across_runs():
    def run_once():
        env = Environment()
        ctx = make_ctx(env, nodes=4)
        config = PolymorphSearchConfig(
            seed_durations_s=(50.0,), refinements_per_seed=5,
            refinement_mean_s=20.0, setup_s=0, gather_s=0, generate_s=0)
        run = build_polymorph_workflow(config)
        run.workflow.start(ctx)
        env.run()
        return run.workflow.turnaround

    assert run_once() == run_once()


def test_polymorph_refinement_durations_sampled_around_mean():
    env = Environment()
    ctx = make_ctx(env, nodes=16)
    config = PolymorphSearchConfig(
        seed_durations_s=(10.0,), refinements_per_seed=100,
        refinement_mean_s=200.0, refinement_cv=0.3,
        setup_s=0, gather_s=0, generate_s=0)
    run = build_polymorph_workflow(config)
    run.workflow.start(ctx)
    env.run()
    refine = [j for j in ctx.jobs if j.tags.get("phase") == "refine"]
    mean = sum(j.duration_s for j in refine) / len(refine)
    assert mean == pytest.approx(200.0, rel=0.15)
