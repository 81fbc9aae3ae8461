"""Property-based tests on cross-module invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    Affinity,
    AntiAffinity,
    ComponentCap,
    DeploymentDescriptor,
    Host,
    Placer,
    PlacementError,
    BestFit,
    FirstFit,
    WorstFit,
    VirtualMachine,
)
from repro.core.service_manager import ServiceAccountant
from repro.monitoring import DataSource, InformationModel, MulticastChannel
from repro.monitoring import AttributeType, Probe, ProbeAttribute
from repro.sim import Environment


# ---------------------------------------------------------------------------
# Placement invariants
# ---------------------------------------------------------------------------

_policies = st.sampled_from([FirstFit, BestFit, WorstFit])


@given(
    policy_cls=_policies,
    host_sizes=st.lists(st.tuples(st.floats(1, 8), st.floats(512, 16384)),
                        min_size=1, max_size=6),
    demands=st.lists(st.tuples(st.floats(0.5, 4), st.floats(256, 8192)),
                     min_size=1, max_size=20),
    cap=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_placement_never_violates_capacity_or_caps(policy_cls, host_sizes,
                                                   demands, cap):
    """Whatever the policy and demand sequence: no host is oversubscribed
    and no per-host cap is exceeded; infeasible demands raise cleanly."""
    env = Environment()
    hosts = [Host(env, f"h{i}", cpu_cores=c, memory_mb=m)
             for i, (c, m) in enumerate(host_sizes)]
    placer = Placer(policy=policy_cls(),
                    constraints=[ComponentCap("exec", cap)])
    placed = 0
    for i, (cpu, mem) in enumerate(demands):
        d = DeploymentDescriptor(
            name=f"vm{i}", memory_mb=mem, cpu=cpu, disk_source="x",
            service_id="svc", component_id="exec")
        try:
            host = placer.select(hosts, d)
        except PlacementError:
            continue
        vm = VirtualMachine(env, f"vm{i}", d)
        host.reserve(vm)
        placed += 1
    for host in hosts:
        assert host.cpu_free >= -1e-6
        assert host.memory_free >= -1e-6
        assert sum(vm.descriptor.component_id == "exec"
                   for vm in host.vms) <= cap
    assert placed <= len(demands)


@given(
    anchor_host=st.integers(0, 3),
    n_followers=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_affinity_always_lands_on_anchor_host(anchor_host, n_followers):
    env = Environment()
    hosts = [Host(env, f"h{i}", cpu_cores=32, memory_mb=65536)
             for i in range(4)]
    anchor = VirtualMachine(env, "anchor", DeploymentDescriptor(
        name="anchor", memory_mb=1024, cpu=1, disk_source="x",
        service_id="svc", component_id="db"))
    hosts[anchor_host].reserve(anchor)
    placer = Placer(constraints=[Affinity("app", "db")])
    for i in range(n_followers):
        d = DeploymentDescriptor(
            name=f"app{i}", memory_mb=512, cpu=0.5, disk_source="x",
            service_id="svc", component_id="app")
        chosen = placer.select(hosts, d)
        assert chosen is hosts[anchor_host]
        vm = VirtualMachine(env, f"app{i}", d)
        chosen.reserve(vm)


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_anti_affinity_never_shares(seed):
    env = Environment()
    hosts = [Host(env, f"h{i}", cpu_cores=8, memory_mb=16384)
             for i in range(3)]
    placer = Placer(constraints=[AntiAffinity("replica", "primary")])
    primary = VirtualMachine(env, "p", DeploymentDescriptor(
        name="p", memory_mb=1024, cpu=1, disk_source="x",
        service_id="svc", component_id="primary"))
    hosts[seed % 3].reserve(primary)
    for i in range(4):
        d = DeploymentDescriptor(
            name=f"r{i}", memory_mb=1024, cpu=1, disk_source="x",
            service_id="svc", component_id="replica")
        chosen = placer.select(hosts, d)
        assert chosen is not primary.host
        chosen.reserve(VirtualMachine(env, f"r{i}", d))


# ---------------------------------------------------------------------------
# Accounting invariants
# ---------------------------------------------------------------------------

@given(
    events=st.lists(st.sampled_from(["deploy", "release"]),
                    min_size=1, max_size=40),
    gap=st.floats(1, 100),
)
@settings(max_examples=60, deadline=None)
def test_accounting_counts_never_negative(events, gap):
    """Any deploy/release interleaving: the series equals deploys − releases
    applied so far; over-release raises instead of going negative."""
    env = Environment()
    acc = ServiceAccountant(env, "svc")

    def current():
        series = acc.series("c")
        return 0 if series is None else int(series.current)

    def drive(env):
        live = 0
        for event in events:
            yield env.timeout(gap)
            if event == "deploy":
                acc.instance_deployed("c")
                live += 1
            else:
                if live == 0:
                    with pytest.raises(ValueError):
                        acc.instance_released("c")
                else:
                    acc.instance_released("c")
                    live -= 1
            assert current() == live

    env.process(drive(env))
    env.run()
    usage = acc.usage("c", 0, env.now)
    assert usage.instance_seconds >= 0
    assert usage.peak_instances >= current()


# ---------------------------------------------------------------------------
# Information model under DHT churn with live probes
# ---------------------------------------------------------------------------

def test_infomodel_lookup_survives_node_churn():
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    ds = DataSource(env, "ds", "svc", net, infomodel=im)
    probes = []
    for i in range(20):
        probes.append(ds.add_probe(Probe(
            name=f"p{i}", qualified_name=f"uk.ucl.stream{i}.kpi",
            attributes=[ProbeAttribute("v", AttributeType.INTEGER, "u")],
            collector=lambda: (1,), data_rate_s=1000)))
    # Membership churn while the registrations are resident.
    im.ring.join("late-joiner-1")
    im.ring.join("late-joiner-2")
    im.ring.leave("im-node-0")
    for probe in probes:
        assert im.ring.get(f"/probe/{probe.probe_id}/name") == probe.name
        schema = im.schema_of(probe.probe_id)
        assert schema is not None and schema.attributes[0].units == "u"
    assert len({key.split("/")[2]
                for key in im.ring.keys_with_prefix("/probe/")}) == 20
