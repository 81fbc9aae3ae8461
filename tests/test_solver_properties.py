"""Property-based tests for the solver (Hypothesis).

Two contracts:

1. **Differential completeness** — on any instance the greedy
   :class:`~repro.cloud.placement.Placer` manages to place in full, the
   solver must also find a solution (the solver strictly dominates the
   fast path: it only ever runs *after* greedy failed, so it may never be
   the reason an admissible service is refused). And every
   :class:`~repro.solver.Solution` must pass the independent
   :func:`~tests.oracles.solver.validate_assignment` oracle: no
   oversubscription, no constraint violations.

2. **What-if purity** — ``ControlPlane.what_if`` never mutates any site:
   admission ledgers, headroom and host free-capacity fingerprints are
   identical before and after arbitrary probes.

Generation notes: anti-affinity pairs are installed symmetrically and
affinity edges only point at alphabetically-earlier components (placed
first by the greedy run) so the final greedy state is a model witness —
the live one-directional / placement-order semantics would otherwise let
greedy "succeed" into states the joint model rejects, which is an
artefact of ordering, not a solver defect.
"""

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")

#: Tier-1 default; CI's solver-fuzz step raises it for a harder sweep.
MAX_EXAMPLES = int(os.environ.get("SOLVER_FUZZ_EXAMPLES", "60"))

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cloud import (  # noqa: E402
    AntiAffinity,
    Affinity,
    CapacityError,
    ComponentCap,
    Host,
    Placer,
    PlacementError,
    VirtualMachine,
)
from repro.cloud.vm import DeploymentDescriptor  # noqa: E402
from repro.control import ControlPlane  # noqa: E402
from repro.core.manifest import ManifestBuilder  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.solver import (  # noqa: E402
    SearchBudget,
    Solution,
    Unsolved,
    encode_items,
    snapshot_hosts,
    solve,
)
from repro.solver.encode import ItemSpec, compile_constraints  # noqa: E402
from tests.oracles.solver import validate_assignment  # noqa: E402

COMPONENTS = ("a", "b", "c")


@st.composite
def instances(draw):
    """A random placement instance: hosts, items, live constraints."""
    hosts = draw(st.lists(
        st.tuples(st.sampled_from((2.0, 4.0, 8.0)),
                  st.sampled_from((2048.0, 4096.0, 8192.0))),
        min_size=1, max_size=4))
    items = draw(st.lists(
        st.tuples(st.sampled_from(COMPONENTS),
                  st.sampled_from((1.0, 2.0, 3.0)),
                  st.sampled_from((512.0, 1024.0, 2048.0))),
        min_size=1, max_size=8))
    # Anchors must precede dependents in greedy placement order; sorting
    # by component name makes every edge (later -> earlier) a DAG edge
    # whose anchor is fully placed first.
    items.sort(key=lambda t: t[0])
    constraints = []
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(
            [("a", "b"), ("a", "c"), ("b", "c")]))
        constraints += [AntiAffinity(x, y), AntiAffinity(y, x)]
    if draw(st.booleans()):
        dep, anchor = draw(st.sampled_from(
            [("b", "a"), ("c", "a"), ("c", "b")]))
        constraints.append(Affinity(dep, anchor))
    if draw(st.booleans()):
        constraints.append(ComponentCap(draw(st.sampled_from(COMPONENTS)),
                                        draw(st.integers(1, 2))))
    return hosts, items, constraints


def run_greedy(env, host_shapes, item_rows, constraints):
    """The live fast path: place items one at a time, commit each pick."""
    hosts = [Host(env, f"h{i}", cpu_cores=cpu, memory_mb=mem)
             for i, (cpu, mem) in enumerate(host_shapes)]
    placer = Placer(constraints=constraints)
    for k, (comp, cpu, mem) in enumerate(item_rows):
        d = DeploymentDescriptor(
            name=f"{comp}-{k}", cpu=cpu, memory_mb=mem,
            disk_source="img", service_id="svc", component_id=comp)
        try:
            target = placer.select(hosts, d)
        except (CapacityError, PlacementError):
            return False
        target.reserve(VirtualMachine(env, d.name, d))
    return True


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(instances())
def test_solver_dominates_greedy_and_never_violates(instance):
    host_shapes, item_rows, constraints = instance
    env = Environment()
    # Model the pristine pool (snapshot before greedy mutates anything).
    views = snapshot_hosts(
        [Host(env, f"h{i}", cpu_cores=cpu, memory_mb=mem)
         for i, (cpu, mem) in enumerate(host_shapes)])
    model = encode_items(
        [ItemSpec(name=f"{comp}-{k}", component=comp, service_id="svc",
                  cpu=cpu, memory_mb=mem)
         for k, (comp, cpu, mem) in enumerate(item_rows)],
        views, compile_constraints(constraints))
    out = solve(model, SearchBudget(max_nodes=50_000))

    if isinstance(out, Solution):
        problems = validate_assignment(model, out.assignment)
        assert problems == [], problems

    greedy_ok = run_greedy(env, host_shapes, item_rows, constraints)
    if greedy_ok and not (isinstance(out, Unsolved) and out.exhausted):
        assert isinstance(out, Solution), (
            f"greedy placed all {len(item_rows)} items but the solver "
            f"said {out.explanation.render()}")


@st.composite
def manifests(draw):
    n = draw(st.integers(1, 3))
    b = ManifestBuilder(f"svc-{n}")
    names = []
    for k in range(n):
        name = f"comp{k}"
        names.append(name)
        count = draw(st.integers(1, 2))
        b.component(name, image_mb=64,
                    cpu=draw(st.sampled_from((1, 2, 4))),
                    memory_mb=draw(st.sampled_from((512, 1024, 4096))),
                    initial=count, minimum=count, maximum=count)
    if len(names) >= 2 and draw(st.booleans()):
        b.colocate(names[0], names[1])
    return b.build()


@settings(max_examples=max(10, MAX_EXAMPLES // 3), deadline=None)
@given(st.lists(manifests(), min_size=1, max_size=3))
def test_what_if_is_pure(probe_manifests):
    env = Environment()
    control = ControlPlane(env)
    control.add_site("near", _veem(env, "near", [(4.0, 8192.0)] * 2))
    control.add_site("far", _veem(env, "far", [(8.0, 16384.0)]))
    control.register_tenant("acme")
    # Occupy some capacity so probes run against a non-trivial ledger.
    seed = ManifestBuilder("seed")
    seed.component("app", image_mb=64, cpu=2, memory_mb=2048)
    control.submit("acme", seed.build())
    env.run(until=300)

    before = _fingerprint(control)
    for manifest in probe_manifests:
        control.what_if(manifest, tenant="acme")
        control.what_if(manifest, exact=False)
    assert _fingerprint(control) == before


def _veem(env, name, shapes):
    from repro.cloud import VEEM, ImageRepository
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    repo.add("img", 64, href="img")
    veem = VEEM(env, name=name, repository=repo)
    for i, (cpu, mem) in enumerate(shapes):
        veem.add_host(Host(env, f"{name}-h{i}", cpu_cores=cpu,
                           memory_mb=mem))
    return veem


def _fingerprint(control):
    return [
        (s.name, s.headroom,
         s.admission.committed_plan.hosts_for_ceiling,
         len(s.admission.admitted),
         tuple((h.cpu_free, h.memory_free) for h in s.site.veem.hosts))
        for s in control.sites
    ]
