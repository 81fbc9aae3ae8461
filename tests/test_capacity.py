"""Tests for provider-side capacity planning and admission control (§8)."""

import pytest

from repro.cloud import (
    AdmissionController,
    CapacityError,
    HostType,
    demand_envelope,
    plan_capacity,
)
from repro.core.manifest import ManifestBuilder
from tests.oracles.packer import reference_plan


def polymorph_like():
    """The evaluation service: 2 fixed hosts + up to 16 quarter-host execs."""
    b = ManifestBuilder("polymorph")
    b.component("Orchestration", image_mb=4096, cpu=4, memory_mb=8192)
    b.component("GridMgmt", image_mb=4096, cpu=4, memory_mb=8192)
    b.component("exec", image_mb=2048, cpu=1, memory_mb=2048,
                initial=0, minimum=0, maximum=16)
    b.kpi("C", "exec", "q.size", default=0)
    b.rule("up", "@q.size > 4", "deployVM(exec)")
    b.per_host_cap("exec", 4)
    return b.build()


def small_web(maximum=4):
    b = ManifestBuilder("web")
    b.component("web", image_mb=512, cpu=1, memory_mb=2048,
                initial=1, minimum=1, maximum=maximum)
    if maximum > 1:
        b.kpi("C", "web", "w.load", default=0)
        b.rule("up", "@w.load > 4", "deployVM(web)")
    return b.build()


# ---------------------------------------------------------------------------
# Demand envelopes
# ---------------------------------------------------------------------------

def test_envelope_expands_bounds():
    env = demand_envelope(polymorph_like())
    assert len(env.floor) == 2          # two fixed components, exec min 0
    assert len(env.ceiling) == 2 + 16
    cpu, mem = env.totals("ceiling")
    assert cpu == 4 + 4 + 16 * 1
    assert mem == 2 * 8192 + 16 * 2048
    assert env.totals("floor") == (8, 16384)


def test_envelope_carries_per_host_caps():
    env = demand_envelope(polymorph_like())
    exec_demands = [d for d in env.ceiling if d.component == "exec"]
    assert all(d.per_host_cap == 4 for d in exec_demands)
    fixed = [d for d in env.ceiling if d.component == "GridMgmt"]
    assert fixed[0].per_host_cap is None


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

def test_plan_reproduces_testbed_sizing():
    """The paper's deployment: 2 dedicated hosts + 16 exec VMs at 4/host
    → exactly the six-server testbed at worst case."""
    plan = plan_capacity([polymorph_like()], HostType(4, 8192))
    assert plan.hosts_for_ceiling == 6
    assert plan.hosts_for_floor == 2
    assert plan.elasticity_headroom == 4


def test_per_host_cap_limits_packing():
    b = ManifestBuilder("dense")
    # Tiny instances that would fit 8/host by resources, capped at 2/host.
    b.component("tiny", image_mb=10, cpu=0.5, memory_mb=1024,
                initial=8, minimum=8, maximum=8)
    b.per_host_cap("tiny", 2)
    plan = plan_capacity([b.build()], HostType(4, 8192))
    assert plan.hosts_for_ceiling == 4  # 8 instances / cap 2


def test_oversized_instance_rejected():
    b = ManifestBuilder("huge")
    b.component("big", image_mb=10, cpu=16, memory_mb=1024)
    with pytest.raises(CapacityError, match="exceeds the host type"):
        plan_capacity([b.build()], HostType(4, 8192))


def test_empty_plan():
    plan = plan_capacity([], HostType())
    assert plan.hosts_for_floor == plan.hosts_for_ceiling == 0
    assert plan.elasticity_headroom == 0


def test_plan_summary_text():
    plan = plan_capacity([polymorph_like()])
    text = plan.summary()
    assert "floor: 2 host(s)" in text
    assert "ceiling: 6 host(s)" in text


def test_host_type_validation():
    with pytest.raises(ValueError):
        HostType(cpu_cores=0)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admission_within_pool():
    controller = AdmissionController(pool_hosts=6, host=HostType(4, 8192))
    controller.admit(polymorph_like())
    assert controller.committed_plan.hosts_for_ceiling == 6


def test_admission_rejects_overcommitment():
    controller = AdmissionController(pool_hosts=6, host=HostType(4, 8192))
    controller.admit(polymorph_like())
    # The pool is fully committed at worst case; nothing else fits.
    assert not controller.can_admit(small_web())
    with pytest.raises(CapacityError, match="cannot admit"):
        controller.admit(small_web())


def test_release_frees_commitment():
    controller = AdmissionController(pool_hosts=6, host=HostType(4, 8192))
    big = polymorph_like()
    controller.admit(big)
    controller.release(big)
    controller.admit(small_web())  # fits easily now
    assert len(controller.admitted) == 1


def test_multiple_small_services_share_hosts():
    controller = AdmissionController(pool_hosts=2, host=HostType(4, 8192))
    # Each web service peaks at 4 × (1 cpu, 2 GB); two of them fill 2 hosts.
    controller.admit(small_web())
    controller.admit(small_web())
    assert not controller.can_admit(small_web(maximum=1))
    assert controller.committed_plan.hosts_for_ceiling == 2


def test_admission_pool_validation():
    with pytest.raises(ValueError):
        AdmissionController(pool_hosts=0)


# ---------------------------------------------------------------------------
# Struct-of-arrays admission vs. the repack oracle
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402


def _manifest(spec):
    """Build a manifest from a draw: list of (cpu, mem, lo, hi, cap)."""
    b = ManifestBuilder(f"svc-{abs(hash(tuple(spec))) % 10 ** 8}")
    for i, (cpu, mem, lo, hi, cap) in enumerate(spec):
        name = f"c{i}"
        b.component(name, image_mb=64, cpu=cpu, memory_mb=mem,
                    initial=lo, minimum=lo, maximum=hi)
        if hi > lo:
            b.kpi("K", name, f"m{i}.load", default=0)
            b.rule(f"up{i}", f"@m{i}.load > 1", f"deployVM({name})")
        if cap is not None:
            b.per_host_cap(name, cap)
    return b.build()


_component = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),            # cpu
    st.sampled_from([512.0, 1024.0, 2048.0, 8192.0]),  # memory
    st.integers(0, 2),                                 # minimum
    st.integers(1, 6),                                 # extra above minimum
    st.sampled_from([None, 1, 2, 4]),                  # per-host cap
).map(lambda t: (t[0], t[1], t[2], t[2] + t[3], t[4]))

_manifests = st.lists(
    st.lists(_component, min_size=1, max_size=3).map(_manifest),
    min_size=1, max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(specs=_manifests, pool=st.integers(1, 12),
       data=st.data())
def test_incremental_admission_matches_repack_oracle(specs, pool, data):
    """The table-backed controller must agree with a from-scratch repack
    by the object packer after every admit/release — same verdicts, same
    committed plan — and so must ``plan_capacity``."""
    host = HostType(4, 8192)
    controller = AdmissionController(pool_hosts=pool, host=host)
    for manifest in specs:
        oracle = reference_plan(controller.admitted + [manifest], host)
        expected = oracle.hosts_for_ceiling <= pool
        assert controller.can_admit(manifest) is expected
        if expected:
            controller.admit(manifest)
        if controller.admitted and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(controller.admitted))
            controller.release(victim)
        plan = controller.committed_plan
        truth = reference_plan(controller.admitted, host)
        assert plan_capacity(controller.admitted, host) == truth
        assert plan.hosts_for_ceiling == truth.hosts_for_ceiling
        assert plan.hosts_for_floor == truth.hosts_for_floor
        assert plan.ceiling_cpu == pytest.approx(truth.ceiling_cpu)
        assert plan.ceiling_memory_mb == pytest.approx(truth.ceiling_memory_mb)
        assert plan.floor_cpu == pytest.approx(truth.floor_cpu)
        assert plan.floor_memory_mb == pytest.approx(truth.floor_memory_mb)
