"""Unit tests for placement policies and constraints."""

import pytest

from repro.cloud.errors import CapacityError, PlacementError
from repro.cloud.placement import (
    Affinity,
    AntiAffinity,
    AttributeRequirement,
    BestFit,
    ComponentCap,
    FirstFit,
    Placer,
    RoundRobin,
    WorstFit,
)
from repro.cloud.veeh import Host
from repro.cloud.vm import DeploymentDescriptor, VirtualMachine
from repro.sim.kernel import Environment


def make_desc(component, service="svc", cpu=1.0, mem=1024.0, name=None):
    return DeploymentDescriptor(
        name=name or component, memory_mb=mem, cpu=cpu,
        disk_source="http://sm/images/base",
        service_id=service, component_id=component,
    )


def place(host, component, service="svc", cpu=1.0, mem=1024.0):
    env = host.env
    vm = VirtualMachine(env, f"{component}-{len(host.vms)}",
                        make_desc(component, service, cpu, mem))
    host.reserve(vm)
    return vm


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def hosts(env):
    return [Host(env, f"h{i}", cpu_cores=4, memory_mb=8192) for i in range(3)]


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def test_first_fit_takes_configured_order(hosts):
    placer = Placer(policy=FirstFit())
    assert placer.select(hosts, make_desc("a")) is hosts[0]


def test_best_fit_packs_tightest(hosts):
    place(hosts[1], "x", mem=6000)  # h1 has least free memory
    placer = Placer(policy=BestFit())
    assert placer.select(hosts, make_desc("a", mem=1000)) is hosts[1]


def test_worst_fit_spreads(hosts):
    place(hosts[0], "x", mem=2000)
    place(hosts[1], "x", mem=4000)
    placer = Placer(policy=WorstFit())
    assert placer.select(hosts, make_desc("a")) is hosts[2]


def test_round_robin_rotates(hosts):
    placer = Placer(policy=RoundRobin())
    picks = [placer.select(hosts, make_desc("a")).name for _ in range(4)]
    assert picks == ["h0", "h1", "h2", "h0"]


def test_capacity_filter_skips_full_hosts(hosts):
    place(hosts[0], "big", cpu=4, mem=8192)
    placer = Placer(policy=FirstFit())
    assert placer.select(hosts, make_desc("a")) is hosts[1]


def test_no_feasible_host_raises(env):
    tiny = Host(env, "tiny", cpu_cores=1, memory_mb=512)
    placer = Placer()
    with pytest.raises(PlacementError, match="no feasible host"):
        placer.select([tiny], make_desc("a", mem=1024))


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

def test_affinity_binds_to_anchor_host(hosts):
    place(hosts[2], "dbms")
    placer = Placer(policy=FirstFit(),
                    constraints=[Affinity("central", "dbms")])
    assert placer.select(hosts, make_desc("central")) is hosts[2]


def test_affinity_unanchored_allows_any_host(hosts):
    placer = Placer(constraints=[Affinity("central", "dbms")])
    # No dbms anywhere yet — the first component may go anywhere.
    assert placer.select(hosts, make_desc("central")) is hosts[0]


def test_affinity_ignores_other_services(hosts):
    place(hosts[2], "dbms", service="other-svc")
    placer = Placer(constraints=[Affinity("central", "dbms")])
    # Anchor belongs to a different service: not an anchor for ours.
    assert placer.select(hosts, make_desc("central", service="svc")) is hosts[0]


def test_affinity_does_not_constrain_other_components(hosts):
    place(hosts[2], "dbms")
    placer = Placer(constraints=[Affinity("central", "dbms")])
    assert placer.select(hosts, make_desc("web")) is hosts[0]


def test_anti_affinity_excludes_shared_host(hosts):
    place(hosts[0], "dbms")
    placer = Placer(constraints=[AntiAffinity("replica", "dbms")])
    assert placer.select(hosts, make_desc("replica")) is hosts[1]


def test_anti_affinity_can_make_placement_infeasible(env):
    host = Host(env, "only", cpu_cores=8, memory_mb=16384)
    place(host, "dbms")
    placer = Placer(constraints=[AntiAffinity("replica", "dbms")])
    with pytest.raises(PlacementError):
        placer.select([host], make_desc("replica"))


def test_attribute_requirement(hosts):
    hosts[1].attributes["zone"] = "secure"
    placer = Placer(constraints=[
        AttributeRequirement("dbms", "zone", "secure"),
    ])
    assert placer.select(hosts, make_desc("dbms")) is hosts[1]
    # Other components don't care about the attribute.
    assert placer.select(hosts, make_desc("web")) is hosts[0]


def test_component_cap_limits_per_host(hosts):
    # Paper setup: ≤ 4 Condor exec VMs per host.
    cap = ComponentCap("exec", 2)
    placer = Placer(constraints=[cap])
    place(hosts[0], "exec")
    place(hosts[0], "exec")
    assert placer.select(hosts, make_desc("exec")) is hosts[1]


def test_component_cap_validation():
    with pytest.raises(ValueError):
        ComponentCap("exec", 0)


def test_component_cap_counts_only_same_service(hosts):
    cap = ComponentCap("exec", 1)
    placer = Placer(constraints=[cap])
    place(hosts[0], "exec", service="other")
    # Different service's exec instance doesn't count toward our cap.
    assert placer.select(hosts, make_desc("exec", service="svc")) is hosts[0]


def test_constraints_compose(hosts):
    """Paper-style stack: co-locate CI with DBMS, cap exec at 4/host."""
    placer = Placer(constraints=[
        Affinity("central", "dbms"),
        ComponentCap("exec", 4),
    ])
    place(hosts[1], "dbms")
    assert placer.select(hosts, make_desc("central")) is hosts[1]
    for _ in range(4):
        target = placer.select(hosts, make_desc("exec"))
        place(target, "exec")
    # First four execs land on h0 (first fit), the fifth must move on.
    assert sum(vm.descriptor.component_id == "exec"
               for vm in hosts[0].vms) == 4
    assert placer.select(hosts, make_desc("exec")) is not hosts[0]


# ---------------------------------------------------------------------------
# FirstFit fast-path edge cases
# ---------------------------------------------------------------------------

def test_empty_host_list_is_a_capacity_error(env):
    placer = Placer()
    with pytest.raises(CapacityError, match="0 host"):
        placer.select([], make_desc("a"))
    assert placer.capacity_failures == 1 and placer.selections == 0
    # Same verdict off the fast path (constraints present).
    constrained = Placer(constraints=[AntiAffinity("a", "b")])
    with pytest.raises(CapacityError):
        constrained.select([], make_desc("a"))


def test_zero_free_capacity_hosts_are_skipped(env):
    full = Host(env, "full", cpu_cores=1, memory_mb=512)
    place(full, "filler", cpu=1, mem=512)
    spare = Host(env, "spare", cpu_cores=1, memory_mb=512)
    placer = Placer()
    assert placer.select([full, spare], make_desc("a", cpu=1, mem=512)) \
        is spare
    with pytest.raises(CapacityError):
        placer.select([full], make_desc("b", cpu=1, mem=512))


def test_anti_affinity_group_larger_than_host_count(hosts):
    # 3 hosts, 4 mutually anti-affine replicas: the fourth is infeasible
    # (a constraint failure, not a capacity failure — capacity exists).
    placer = Placer(constraints=[AntiAffinity("replica", "replica")])
    for _ in range(len(hosts)):
        place(placer.select(hosts, make_desc("replica")), "replica")
    with pytest.raises(PlacementError):
        placer.select(hosts, make_desc("replica"))
    assert placer.constraint_failures == 1
    assert placer.capacity_failures == 0


def test_release_then_reuse_of_freed_slot(env):
    host = Host(env, "h", cpu_cores=2, memory_mb=2048)
    placer = Placer()
    blocker = place(host, "a", cpu=2, mem=2048)
    with pytest.raises(CapacityError):
        placer.select([host], make_desc("b", cpu=1, mem=1024))
    host.release(blocker)
    assert placer.select([host], make_desc("b", cpu=1, mem=1024)) is host
    assert placer.capacity_failures == 1 and placer.selections == 1


# ---------------------------------------------------------------------------
# Host pins (descriptor.placement["host"], the solver-rescue mechanism)
# ---------------------------------------------------------------------------

def test_pinned_descriptor_goes_to_the_named_host(hosts):
    placer = Placer()
    d = make_desc("a")
    d.placement["host"] = "h2"
    assert placer.select(hosts, d) is hosts[2]
    assert placer.selections == 1


def test_pinned_host_without_room_is_a_capacity_error(hosts):
    place(hosts[2], "big", cpu=4, mem=8192)
    placer = Placer()
    d = make_desc("a")
    d.placement["host"] = "h2"
    with pytest.raises(CapacityError, match="pinned host"):
        placer.select(hosts, d)
    assert placer.capacity_failures == 1


def test_pinned_unknown_host_is_a_placement_error(hosts):
    placer = Placer()
    d = make_desc("a")
    d.placement["host"] = "nope"
    with pytest.raises(PlacementError, match="not in the pool"):
        placer.select(hosts, d)


def test_pin_bypasses_constraint_filtering(hosts):
    # The pinning caller (the solver) validated the joint assignment; the
    # placer only re-checks capacity, so a pin can land where the greedy
    # filter would have refused.
    place(hosts[0], "dbms")
    placer = Placer(constraints=[AntiAffinity("replica", "dbms")])
    d = make_desc("replica")
    d.placement["host"] = "h0"
    assert placer.select(hosts, d) is hosts[0]


def test_describe_strings():
    assert "central" in Affinity("central", "dbms").describe()
    assert "exec" in ComponentCap("exec", 4).describe()
    assert "zone" in AttributeRequirement("c", "zone", "eu").describe()
    assert "dbms" in AntiAffinity("r", "dbms").describe()
