"""Chaos integration: the full stack under failures and churn.

Exercises several §5.2 monitoring requirements and the §1 availability claim
at once: monitoring survives VM migration ("Migration: so that any virtual
resource which moves from one physical host to another is monitored
correctly"), the elastic application rides through host failures, and the
system converges back to a consistent, constraint-clean state.

Topologies come from the stage builders in :mod:`tests.setups`; each test
only injects its fault and asserts.
"""

from repro.cloud import VMState
from repro.grid import Job, JobState
from repro.sim import Environment
from repro.sim.rng import RandomStreams
from tests.setups import elastic_grid, monitored_web, two_web_tenants


def test_monitoring_survives_migration():
    """A migrated VM's agent keeps publishing without interruption."""
    env = Environment()
    stage = monitored_web(env)
    sm, vm, journal = stage.sm, stage.vm, stage.journal

    env.run(until=env.now + 35)
    before = len(journal)
    assert before == 3

    target = next(h for h in sm.veem.hosts if h is not vm.host)

    def migrate(env):
        yield sm.veem.migrate(vm, target)

    env.process(migrate(env))
    env.run(until=env.now + 65)
    assert vm.host is target
    assert vm.state is VMState.RUNNING
    # No gap larger than ~2 publication periods across the migration window.
    stamps = [m.timestamp
              for m in journal.stream("svc-1", "svc.app.heartbeat")]
    assert all(b - a <= 20 for a, b in zip(stamps, stamps[1:]))
    assert len(journal) >= before + 5


def test_elastic_grid_rides_through_host_failure():
    """Jobs complete despite a mid-run host failure killing several exec
    VMs; the elasticity rules rebuild the cluster and the queue drains."""
    env = Environment()
    stage = elastic_grid(env)
    sm, scheduler, service = stage.sm, stage.scheduler, stage.service

    rng = RandomStreams(5).stream("jobs")
    jobs = [Job(duration_s=float(rng.uniform(60, 240)),
                input_mb=0, output_mb=0) for _ in range(60)]
    scheduler.submit_many(jobs)

    def chaos(env):
        yield env.timeout(300)
        # Fail the host carrying the most exec VMs, mid-run.
        victim = max(sm.veem.hosts, key=lambda h: len(h.vms))
        sm.veem.inject_host_failure(victim)
        yield env.timeout(600)
        sm.veem.recover_host(victim)

    env.process(chaos(env))
    env.run(until=env.now + 6000)

    assert all(j.state is JobState.COMPLETED for j in jobs), \
        f"{sum(j.state is not JobState.COMPLETED for j in jobs)} unfinished"
    # Some jobs were interrupted by the failure and re-ran elsewhere.
    assert sm.trace.query(kind="node.failed")
    assert sm.trace.query(kind="host.failed")
    # Constraint suite still clean at the end.
    assert service.check_constraints().ok


def test_two_tenants_with_failures_stay_isolated():
    env = Environment()
    stage = two_web_tenants(env)
    sm, a, b_svc = stage.sm, stage.a, stage.b

    # Kill one VM of tenant A; only A heals, B is untouched.
    victim = a.lifecycle.components["web"].vms[0]
    b_vms_before = list(b_svc.lifecycle.components["web"].vms)
    sm.veem.inject_vm_failure(victim)
    env.run(until=env.now + 120)
    assert a.instance_count("web") == 2
    assert b_svc.lifecycle.components["web"].vms == b_vms_before
    heal = sm.trace.last(kind="instance.heal")
    assert heal.details["service"] == "tenant-A"
