"""Tests for provider-side capacity planning and admission control (§8)."""

import os

import pytest

from repro.cloud import capacity
from repro.cloud.capacity import (
    AdmissionController,
    HostType,
    demand_envelope,
    plan_capacity,
)
from repro.cloud.errors import CapacityError
from repro.cloud.veem import VEEM
from repro.control.plane import ControlPlane
from repro.core.manifest.builder import ManifestBuilder
from repro.experiments import scale
from repro.sim.kernel import Environment
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
    assert controller.committed_hosts == 6


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
    assert controller.committed_hosts == 2


def test_admission_pool_validation():
    with pytest.raises(ValueError):
        AdmissionController(pool_hosts=0)


# ---------------------------------------------------------------------------
# Struct-of-arrays admission vs. the repack oracle
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

#: Tier-1 default; CI's solver-fuzz step raises it for a harder sweep.
FUZZ_EXAMPLES = int(os.environ.get("SOLVER_FUZZ_EXAMPLES", "60"))


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


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(specs=_manifests, pool=st.integers(1, 12),
       data=st.data())
def test_incremental_admission_matches_repack_oracle(specs, pool, data):
    """The incremental controller must agree with a from-scratch repack
    by the object packer after every admit and release — same verdicts,
    same committed hosts and headroom, same what-if probe of the next
    manifest — and so must ``plan_capacity``. The three reads come first
    after each change, in a drawn order, so each of them in turn is the
    one that finds (or, after a release, rebuilds) the committed pack."""
    host = HostType(4, 8192)
    controller = AdmissionController(pool_hosts=pool, host=host)

    def check(upcoming):
        ceiling = reference_plan(controller.admitted, host).hosts_for_ceiling
        expected = {
            "headroom": pool - ceiling,
            "committed_hosts": ceiling,
            "probe": reference_plan(controller.admitted + [upcoming],
                                    host).hosts_for_ceiling,
        }
        read = {
            "headroom": lambda: controller.headroom,
            "committed_hosts": lambda: controller.committed_hosts,
            "probe": lambda: controller.probe(upcoming),
        }
        for name in data.draw(st.permutations(sorted(read))):
            assert read[name]() == expected[name], name

    for index, manifest in enumerate(specs):
        upcoming = specs[index + 1] if index + 1 < len(specs) else manifest
        oracle = reference_plan(controller.admitted + [manifest], host)
        expected = oracle.hosts_for_ceiling <= pool
        assert controller.can_admit(manifest) is expected
        if expected:
            controller.admit(manifest)
            check(upcoming)
        if controller.admitted and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(controller.admitted))
            controller.release(victim)
            check(upcoming)
        truth = reference_plan(controller.admitted, host)
        assert plan_capacity(controller.admitted, host) == truth


def _uniform(cpu, memory_mb, maximum, cap=None):
    """A one-component service of ``maximum`` identical instances."""
    return _manifest([(cpu, memory_mb, 1, maximum, cap)])


def _packed_rows(monkeypatch):
    """Record the number of rows each ``_pack_rows`` call packs."""
    sizes = []
    pack_rows = capacity._pack_rows

    def recording(rows, *args, **kwargs):
        rows = list(rows)
        sizes.append(len(rows))
        return pack_rows(rows, *args, **kwargs)

    monkeypatch.setattr(capacity, "_pack_rows", recording)
    return sizes


def _admit_against_oracle(controller, manifest):
    """Check the verdict with the object packer, admit on "yes", then
    check the committed hosts; returns the verdict."""
    host, pool = controller.host, controller.pool_hosts
    admitted = list(controller.admitted)
    verdict = controller.can_admit(manifest)
    assert verdict is (
        reference_plan(admitted + [manifest], host).hosts_for_ceiling <= pool)
    if verdict:
        controller.admit(manifest)
    ceiling = reference_plan(controller.admitted, host).hosts_for_ceiling
    assert controller.committed_hosts == ceiling
    assert controller.headroom == pool - ceiling
    return verdict


def test_equal_services_continue_the_committed_pack(monkeypatch):
    """Each of a stream of equal services sorts after the committed rows,
    so each verdict packs only the candidate's three rows, and admitting
    packs nothing more."""
    sizes = _packed_rows(monkeypatch)
    controller = AdmissionController(pool_hosts=4, host=HostType(4, 8192))
    # Two 3,000 MB instances per host: two services fill three hosts, and
    # a third would need five, although its memory passes the totals
    # screen (27,000 of 32,768 MB).
    verdicts = [_admit_against_oracle(controller, _uniform(1.0, 3000.0, 3))
                for _ in range(4)]
    assert verdicts == [True, True, False, False]
    assert sizes == [3, 3, 3, 3]


def test_a_larger_service_is_packed_in_full(monkeypatch):
    """A candidate row that sorts before a committed one (more memory)
    packs the committed rows and the candidate's together."""
    sizes = _packed_rows(monkeypatch)
    controller = AdmissionController(pool_hosts=3, host=HostType(4, 8192))
    for _ in range(2):
        assert _admit_against_oracle(controller, _uniform(0.5, 1024.0, 3))
    assert sizes == [3, 3]
    assert _admit_against_oracle(controller, _uniform(2.0, 4096.0, 3))
    assert sizes == [3, 3, 6 + 3]
    # The adopted full pack is continued by the next small service.
    assert _admit_against_oracle(controller, _uniform(0.5, 1024.0, 2))
    assert sizes == [3, 3, 9, 2]


def test_a_capped_service_continues_the_committed_pack(monkeypatch):
    """Every pack tallies each bin's components, so a capped candidate
    whose rows sort after the committed ones continues the committed pack
    like any other: each verdict packs only the candidate's rows."""
    sizes = _packed_rows(monkeypatch)
    controller = AdmissionController(pool_hosts=3, host=HostType(4, 8192))
    assert _admit_against_oracle(controller, _uniform(1.0, 2048.0, 4))
    # Four 1,024 MB instances fit one host by resources; at one per host
    # they need four more hosts, at two per host two more.
    assert not _admit_against_oracle(
        controller, _uniform(0.5, 1024.0, 4, cap=1))
    assert _admit_against_oracle(
        controller, _uniform(0.5, 1024.0, 4, cap=2))
    assert controller.committed_hosts == 3
    assert sizes == [4, 4, 4]
    assert _admit_against_oracle(controller, _uniform(0.5, 512.0, 1))
    assert sizes == [4, 4, 4, 1]


def test_the_federation_plan_packs_each_service_once(monkeypatch):
    """The coordinator's admission plan of 60 services over 4 sites packs
    each candidate's two ceiling rows and little else; repacking the
    committed ceiling for every verdict and every headroom read made 188
    packs over 2,358 rows."""
    sizes = _packed_rows(monkeypatch)
    cfg = scale.ScaleConfig(sites=4, services=60, hours=1, procs=2)
    env = Environment()
    control = ControlPlane(env)
    for s in range(cfg.sites):
        control.add_site(f"site-{s}", VEEM(env, name=f"site-{s}"),
                         pool_hosts=cfg.hosts_per_site,
                         host_type=cfg.host_type)
    _profiles, _requests, tally = scale._admit(control, cfg,
                                               scale._scale_manifest(cfg))
    assert tally == (60, 0, 0)
    assert len(sizes) <= 70
    assert sum(sizes) <= 123
