"""Tests for the constraint-model placement solver (repro.solver).

Covers the model/search core, the encoders, the control-plane rescue path
(greedy ``CapacityError`` → solver pins → admitted), what-if admission
(including its non-mutation guarantee), defragmenting migration plans,
and the typed rejection reasons that thread solver explanations into
``Rejected`` outcomes.
"""

import pytest

from repro.cloud.errors import CapacityError
from repro.cloud.images import ImageRepository
from repro.cloud.placement import AntiAffinity, PlacementConstraint
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.cloud.vm import DeploymentDescriptor
from repro.control.plane import ControlPlane
from repro.control.requests import (
    Admitted,
    Rejected,
    RejectCode,
    RejectionReason,
    RequestState,
)
from repro.core.manifest.builder import ManifestBuilder
from repro.core.service_manager.parser import ManifestParser
from repro.sim.kernel import Environment
from repro.solver.defrag import execute_plan, fragmentation_score, plan_defrag
from repro.solver.encode import (
    encode_admission,
    encode_service,
    snapshot_hosts,
)
from repro.solver.explain import PruneCode
from repro.solver.model import (
    HostView,
    Item,
    ModelConstraints,
    PlacementModel,
    SearchBudget,
    Solution,
    Unsolved,
)
from repro.solver.search import solve
from tests.oracles.solver import replay_safe, validate_assignment

TIMINGS = HypervisorTimings(define_s=1, boot_s=5, shutdown_s=1)


def make_model(items, hosts, constraints=None):
    return PlacementModel(
        items=[Item(index=i, name=n, component=c, service_id=s,
                    cpu=cpu, memory_mb=mem)
               for i, (n, c, s, cpu, mem) in enumerate(items)],
        hosts=[HostView(index=i, name=f"h{i}", cpu_free=cpu, mem_free=mem,
                        attributes=dict(attrs))
               for i, (cpu, mem, attrs) in enumerate(hosts)],
        constraints=constraints or ModelConstraints(),
    )


def make_veem(env, host_shapes, name="veem"):
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    repo.add("img", 64, href="img")
    veem = VEEM(env, name=name, repository=repo)
    for i, (cpu, mem) in enumerate(host_shapes):
        veem.add_host(Host(env, f"{name}-h{i}", cpu_cores=cpu,
                           memory_mb=mem, timings=TIMINGS))
    return veem


def verdict(report, site):
    """The what-if report's verdict for one site."""
    (found,) = [v for v in report.verdicts if v.site == site]
    return found


def ragged_manifest():
    """FFD admission packs this into 2×10-cpu bins (6+4, 5+5) but the
    greedy deployment order (5, 4, 6, 5) strands the last instance."""
    b = ManifestBuilder("ragged")
    for name, cpu in (("a", 5), ("b", 4), ("c", 6), ("d", 5)):
        b.component(name, image_mb=64, cpu=cpu, memory_mb=1024)
    return b.build()


def ffd_pessimal_manifest():
    """FFD (5+4, 4+3+2, 2) needs 3 bins of 10; the optimal joint packing
    (5+3+2, 4+4+2) needs only 2 — the solver_only what-if case."""
    b = ManifestBuilder("pessimal")
    for name, cpu in (("a", 5), ("b", 4), ("c", 4),
                      ("d", 3), ("e", 2), ("f", 2)):
        b.component(name, image_mb=64, cpu=cpu, memory_mb=512)
    return b.build()


# ---------------------------------------------------------------------------
# Search core
# ---------------------------------------------------------------------------

def test_solve_empty_model_is_trivially_sat():
    out = solve(make_model([], [(4, 4096, {})]))
    assert isinstance(out, Solution) and out.assignment == ()


def test_solve_finds_joint_packing_greedy_misses():
    # first-fit order 5,4,6,5 on two 10-cpu hosts dead-ends; jointly SAT.
    model = make_model(
        [(n, n, "svc", cpu, 256.0)
         for n, cpu in (("a", 5), ("b", 4), ("c", 6), ("d", 5))],
        [(10, 16384, {}), (10, 16384, {})],
    )
    out = solve(model)
    assert isinstance(out, Solution)
    assert validate_assignment(model, out.assignment) == []
    loads = {}
    for item, host in zip(model.items, out.assignment):
        loads[host] = loads.get(host, 0) + item.cpu
    assert sorted(loads.values()) == [10, 10]


def test_solve_is_deterministic():
    model = make_model(
        [(f"i{k}", f"c{k % 3}", "svc", 1 + k % 3, 256.0) for k in range(6)],
        [(6, 8192, {}), (6, 8192, {}), (6, 8192, {})],
    )
    first = solve(model)
    second = solve(model)
    assert isinstance(first, Solution)
    assert first.assignment == second.assignment
    assert first.nodes == second.nodes


def test_solve_does_not_mutate_the_model_hosts():
    model = make_model([("a", "a", "svc", 2, 1024.0)], [(4, 4096, {})])
    solve(model)
    assert model.hosts[0].cpu_free == 4 and model.hosts[0].mem_free == 4096
    assert model.hosts[0].resident == {}


def test_unsat_capacity_explanation():
    model = make_model([("a", "a", "svc", 8, 256.0)], [(4, 4096, {})])
    out = solve(model)
    assert isinstance(out, Unsolved) and not out.exhausted
    assert out.explanation.code is PruneCode.CAPACITY
    assert "a" in out.explanation.render()


def test_unsat_anti_affinity_explanation():
    cons = ModelConstraints(anti_affinities=(("r", "r"),))
    model = make_model(
        [("r-0", "r", "svc", 1, 256.0), ("r-1", "r", "svc", 1, 256.0)],
        [(8, 8192, {})], cons)
    out = solve(model)
    assert isinstance(out, Unsolved)
    assert out.explanation.code is PruneCode.ANTI_AFFINITY


def test_affinity_anchors_are_staged_first():
    # "central" must share a host with "dbms"; solver places dbms first so
    # the predicate binds — any order of items in the model.
    cons = ModelConstraints(affinities=(("central", "dbms"),))
    model = make_model(
        [("central", "central", "svc", 1, 256.0),
         ("dbms", "dbms", "svc", 1, 256.0)],
        [(2, 4096, {}), (2, 4096, {})], cons)
    out = solve(model)
    assert isinstance(out, Solution)
    assert out.assignment[0] == out.assignment[1]


def test_component_cap_respected():
    cons = ModelConstraints(caps=(("exec", 2),))
    model = make_model(
        [(f"exec-{k}", "exec", "svc", 1, 256.0) for k in range(4)],
        [(8, 8192, {}), (8, 8192, {})], cons)
    out = solve(model)
    assert isinstance(out, Solution)
    per_host = {}
    for host in out.assignment:
        per_host[host] = per_host.get(host, 0) + 1
    assert max(per_host.values()) <= 2


def test_attribute_requirement_restricts_candidates():
    cons = ModelConstraints(
        attribute_requirements=(("dbms", "zone", "secure"),))
    model = make_model(
        [("dbms", "dbms", "svc", 1, 256.0)],
        [(8, 8192, {}), (8, 8192, {"zone": "secure"})], cons)
    out = solve(model)
    assert isinstance(out, Solution) and out.assignment == (1,)


def test_budget_exhaustion_is_reported_not_wrong():
    # An UNSAT instance too big to refute within one node.
    model = make_model(
        [(f"i{k}", "c", "svc", 3, 256.0) for k in range(9)],
        [(8, 8192, {})] * 3)
    out = solve(model, SearchBudget(max_nodes=1))
    assert isinstance(out, Unsolved) and out.exhausted
    assert out.explanation.code is PruneCode.BUDGET


def test_search_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


def test_validate_assignment_flags_oversubscription_and_violations():
    cons = ModelConstraints(anti_affinities=(("a", "b"),))
    model = make_model(
        [("a", "a", "svc", 3, 1024.0), ("b", "b", "svc", 2, 1024.0)],
        [(4, 4096, {})], cons)
    problems = validate_assignment(model, (0, 0))
    assert any("oversubscribed" in p for p in problems)
    assert any("co-resident" in p for p in problems)
    assert validate_assignment(model, (0,)) == []   # b unplaced: only item a


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------

def test_encode_service_matches_descriptor_naming():
    b = ManifestBuilder("svc")
    b.component("web", image_mb=64, cpu=1, memory_mb=512, initial=3,
                minimum=1, maximum=3)
    env = Environment()
    veem = make_veem(env, [(4, 8192)])
    manifest = b.build()
    model = encode_service(
        manifest, veem.hosts, service_id="svc-1",
        constraints=ManifestParser().parse(manifest).placement_constraints())
    assert [i.name for i in model.items] == ["web", "web-1", "web-2"]
    assert all(i.service_id == "svc-1" for i in model.items)


def test_encode_service_compiles_manifest_placement():
    b = ManifestBuilder("svc")
    b.component("ci", image_mb=64, cpu=1, memory_mb=512)
    b.component("dbms", image_mb=64, cpu=1, memory_mb=512)
    b.colocate("ci", "dbms")
    env = Environment()
    veem = make_veem(env, [(4, 8192), (4, 8192)])
    manifest = b.build()
    model = encode_service(
        manifest, veem.hosts,
        constraints=ManifestParser().parse(manifest).placement_constraints())
    assert ("ci", "dbms") in model.constraints.affinities
    out = solve(model)
    assert isinstance(out, Solution)
    assert out.assignment[0] == out.assignment[1]


def test_snapshot_hosts_skips_failed_and_counts_residents():
    env = Environment()
    veem = make_veem(env, [(4, 8192), (4, 8192)])
    veem.submit(DeploymentDescriptor(
        name="a", cpu=1, memory_mb=512, disk_source="img",
        service_id="svc", component_id="app"))
    veem.hosts[1].failed = True
    views = snapshot_hosts(veem.hosts)
    assert [v.name for v in views] == [veem.hosts[0].name]
    assert views[0].resident == {("svc", "app"): 1}
    assert views[0].cpu_free == 3


def test_unsupported_constraint_type_refuses_to_encode():
    class Weird(PlacementConstraint):
        def admits(self, host, descriptor, universe=()):
            return True

    env = Environment()
    veem = make_veem(env, [(4, 8192)])
    with pytest.raises(ValueError, match="cannot encode"):
        encode_service(ragged_manifest(), veem.hosts,
                       constraints=[Weird()])


def test_encode_admission_packs_committed_plus_candidate():
    from repro.cloud.capacity import AdmissionController, HostType
    admission = AdmissionController(2, HostType(10, 16384))
    admission.admit(ragged_manifest())
    # committed ceiling already fills both bins jointly; another copy is
    # UNSAT on the pool's empty bins.
    model = encode_admission(admission, ragged_manifest())
    assert len(model.hosts) == 2
    out = solve(model)
    assert isinstance(out, Unsolved)
    assert out.explanation.code is PruneCode.CAPACITY


# ---------------------------------------------------------------------------
# Control-plane rescue (the headline fixture)
# ---------------------------------------------------------------------------

def test_greedy_placement_alone_strands_the_ragged_service():
    env = Environment()
    veem = make_veem(env, [(10, 16384), (10, 16384)])
    with pytest.raises(CapacityError):
        for name, cpu in (("a", 5), ("b", 4), ("c", 6), ("d", 5)):
            veem.submit(DeploymentDescriptor(
                name=name, cpu=cpu, memory_mb=1024, disk_source="img"))


def test_solver_rescue_admits_what_greedy_cannot_place():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, [(10, 16384), (10, 16384)]))
    control.register_tenant("acme")
    out = control.submit("acme", ragged_manifest())
    assert isinstance(out, Admitted)
    env.run(until=1_000)
    request = out.request
    assert request.state is RequestState.ACTIVE
    assert request.attempts == 2        # greedy failed once, pins landed
    assert int(control._m_solver_rescued.value) == 1
    rescues = control.trace.query(source="control", kind="request.rescue")
    assert len(rescues) == 1 and rescues[0].details["instances"] == 4
    # the joint packing really is on the site: both hosts exactly full
    veem = control.sites[0].site.veem
    assert sorted(h.cpu_free for h in veem.hosts) == [0, 0]


def test_terminal_rejection_carries_typed_reason_and_explanation():
    env = Environment()
    # 1 real host, admission believes 2: the second deploy can never land
    # and the solver's UNSAT explanation reaches the terminal reason.
    from repro.control.backpressure import RetryPolicy
    control = ControlPlane(env, retry=RetryPolicy(max_attempts=2,
                                                  initial_backoff_s=1.0))
    control.add_site("s", make_veem(env, [(4, 8192)]), pool_hosts=2)
    control.register_tenant("acme")

    def filler(name):
        b = ManifestBuilder(name)
        b.component("app", image_mb=64, cpu=4, memory_mb=8192)
        return b.build()

    first = control.submit("acme", filler("a"))
    doomed = control.submit("acme", filler("b"))
    assert isinstance(first, Admitted) and isinstance(doomed, Admitted)
    env.run(until=10_000)
    reason = doomed.request.reason
    assert isinstance(reason, RejectionReason)
    assert reason.code is RejectCode.DEPLOY_FAILED
    assert "deploy failed after 2 attempt" in reason
    assert reason.detail["solver"].startswith("[capacity]")


def test_hard_screen_rejections_are_typed():
    from repro.control.tenants import TenantQuota
    env = Environment()
    control = ControlPlane(env, max_queue_depth=0)
    control.add_site("s", make_veem(env, [(4, 8192)]))
    control.register_tenant("small", quota=TenantQuota(max_instances=1))

    def sized(name, instances):
        b = ManifestBuilder(name)
        b.component("app", image_mb=64, cpu=1, memory_mb=512,
                    initial=instances, minimum=instances, maximum=instances)
        return b.build()

    out = control.submit("small", sized("big", 3))
    assert isinstance(out, Rejected)
    assert isinstance(out.reason, RejectionReason)
    assert out.reason.code is RejectCode.QUOTA
    assert "quota" in out.reason          # substring compatibility
    rejected = control.trace.query(source="control", kind="request.rejected")
    assert rejected[0].details["code"] == "quota"


# ---------------------------------------------------------------------------
# What-if admission
# ---------------------------------------------------------------------------

def build_federation(env, shapes_by_site):
    control = ControlPlane(env)
    for name, shapes in shapes_by_site.items():
        control.add_site(name, make_veem(env, shapes, name=name))
    control.register_tenant("acme")
    return control


def admission_fingerprint(control):
    return [
        (s.name, s.headroom, s.admission.committed_hosts,
         len(s.admission.admitted),
         tuple((h.cpu_free, h.memory_free) for h in s.site.veem.hosts))
        for s in control.sites
    ]


def test_what_if_reports_the_site_submit_would_choose():
    env = Environment()
    control = build_federation(env, {
        "small": [(4, 8192)],
        "large": [(4, 8192), (4, 8192), (4, 8192)],
    })
    b = ManifestBuilder("svc")
    b.component("app", image_mb=64, cpu=4, memory_mb=8192)
    report = control.what_if(b.build())
    assert report.fits and report.chosen == "large"
    assert verdict(report, "small").admits_now
    assert verdict(report, "large").committed_cost == 1
    out = control.submit("acme", b.build())
    assert isinstance(out, Admitted) and out.site == "large"


def test_what_if_never_mutates_any_site():
    env = Environment()
    control = build_federation(env, {
        "a": [(10, 16384), (10, 16384)],
        "b": [(4, 8192)],
    })
    control.submit("acme", ragged_manifest())
    env.run(until=500)
    before = admission_fingerprint(control)
    for manifest in (ragged_manifest(), ffd_pessimal_manifest()):
        control.what_if(manifest, tenant="acme")
        control.what_if(manifest, exact=False)
    assert admission_fingerprint(control) == before


def test_what_if_solver_only_when_ffd_refuses_a_joint_fit():
    env = Environment()
    control = build_federation(env, {"s": [(10, 16384), (10, 16384)]})
    report = control.what_if(ffd_pessimal_manifest())
    site = verdict(report, "s")
    assert not site.admits_now and site.solver_fits
    assert report.chosen is None and report.solver_only == "s"
    assert "joint repack" in report.render()
    # greedy-only probe reports the FFD refusal instead
    greedy = control.what_if(ffd_pessimal_manifest(), exact=False)
    assert not greedy.fits
    assert verdict(greedy, "s").explanation.code is PruneCode.CAPACITY


def test_what_if_quota_screens():
    from repro.control.tenants import TenantQuota
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, [(8, 16384)] * 2))
    control.register_tenant("small", quota=TenantQuota(max_instances=2))
    b = ManifestBuilder("wide")
    b.component("app", image_mb=64, cpu=1, memory_mb=512, initial=4,
                minimum=4, maximum=4)
    report = control.what_if(b.build(), tenant="small")
    assert not report.fits
    assert report.explanation.code is PruneCode.QUOTA
    with pytest.raises(KeyError):
        control.what_if(b.build(), tenant="ghost")


def test_what_if_site_eligibility():
    env = Environment()
    control = build_federation(env, {"s": [(4, 8192)]})
    b = ManifestBuilder("avoider")
    b.component("app", image_mb=64, cpu=1, memory_mb=512)
    b.site_placement("app", avoid=["s"])
    report = control.what_if(b.build())
    assert not report.fits
    assert not verdict(report, "s").eligible
    assert "ineligible" in report.render()


# ---------------------------------------------------------------------------
# Defragmentation
# ---------------------------------------------------------------------------

def scatter(veem, layout, cpu=2, mem=1024, service=None):
    """Place one VM per (host, k) pair via pins; returns the VMs."""
    vms = []
    for i, host_name in enumerate(layout):
        d = DeploymentDescriptor(
            name=f"vm{i}", cpu=cpu, memory_mb=mem, disk_source="img",
            service_id=service or f"svc{i}", component_id="app",
            placement={"host": host_name})
        vms.append(veem.submit(d))
    return vms


def test_defrag_consolidates_and_replays_safely():
    env = Environment()
    veem = make_veem(env, [(8, 8192)] * 4, name="site")
    scatter(veem, ["site-h0"] * 3 + ["site-h1", "site-h2"])
    env.run(until=100)
    assert fragmentation_score(veem.hosts) > 0
    plan = plan_defrag(veem)
    assert plan and plan.hosts_before == 3 and plan.hosts_after == 2
    assert plan.score_after < plan.score_before
    assert replay_safe(plan, veem.hosts) == []
    execute_plan(veem, plan)
    env.run(until=10_000)
    assert sum(1 for h in veem.hosts if h.vms) == 2
    assert fragmentation_score(veem.hosts) == 0.0
    # a second pass finds nothing to do
    assert not plan_defrag(veem)


def test_defrag_never_moves_into_empty_hosts():
    env = Environment()
    veem = make_veem(env, [(8, 8192)] * 4, name="site")
    scatter(veem, ["site-h0"] * 2)
    env.run(until=100)
    assert not plan_defrag(veem)        # nothing to consolidate into


def test_defrag_respects_anti_affinity_both_ways():
    env = Environment()
    veem = make_veem(env, [(8, 8192)] * 3, name="site")
    veem.placer.add_constraint(AntiAffinity("app", "db"))
    # db on h0, app alone on h1, another service keeps h0 "fuller"
    for name, comp, host in (("db0", "db", "site-h0"),
                             ("x0", "web", "site-h0"),
                             ("app0", "app", "site-h1")):
        veem.submit(DeploymentDescriptor(
            name=name, cpu=1, memory_mb=512, disk_source="img",
            service_id="svc", component_id=comp,
            placement={"host": host}))
    env.run(until=100)
    plan = plan_defrag(veem)
    # the only beneficial move (app0 → h0) violates anti-affinity
    assert all(s.to_host != "site-h0" or s.vm_id != "veem-app0"
               for s in plan.steps)
    for step in plan.steps:
        assert (step.vm_id, step.to_host) != ("site-app0", "site-h0")
    assert not plan


def test_defrag_skips_unsupported_constraints():
    class Weird(PlacementConstraint):
        def admits(self, host, descriptor, universe=()):
            return True

    env = Environment()
    veem = make_veem(env, [(8, 8192)] * 3, name="site")
    veem.placer.add_constraint(Weird())
    scatter(veem, ["site-h0", "site-h1"])
    env.run(until=100)
    assert not plan_defrag(veem)


def test_defrag_executor_aborts_on_stale_plan():
    env = Environment()
    veem = make_veem(env, [(8, 8192)] * 3, name="site")
    vms = scatter(veem, ["site-h0"] * 2 + ["site-h1"])
    env.run(until=100)
    plan = plan_defrag(veem)
    assert plan
    # the world moves on: the planned VM disappears before execution
    veem.shutdown(veem.vms[plan.steps[0].vm_id])
    env.run(until=200)
    execute_plan(veem, plan)
    env.run(until=10_000)
    aborted = veem.trace.query(kind="defrag.aborted")
    assert len(aborted) == 1
    assert vms          # silence unused warning


def test_migration_plan_replay_catches_oversubscription():
    from repro.solver.defrag import MigrationPlan, MigrationStep
    env = Environment()
    veem = make_veem(env, [(2, 2048)] * 2, name="site")
    scatter(veem, ["site-h0", "site-h1"], cpu=2, mem=2048)
    env.run(until=100)
    bogus = MigrationPlan(
        steps=(MigrationStep("veem-vm0", "site-h0", "site-h1",
                             2.0, 2048.0),),
        score_before=0.5, score_after=0.0, hosts_before=2, hosts_after=1)
    problems = replay_safe(bogus, veem.hosts)
    assert problems and "oversubscribes" in problems[0]


def test_scale_harness_defrag_hook():
    from repro.experiments.scale import ScaleConfig, run_scale
    cfg = ScaleConfig(sites=2, services=12, hours=0.5, tenants=2,
                      defrag_every_h=0.2)
    report = run_scale(cfg)
    assert report.admitted == 12
    with pytest.raises(ValueError, match="defrag_every_h"):
        ScaleConfig(sites=1, services=1, hours=0.1, defrag_every_h=-1.0)
