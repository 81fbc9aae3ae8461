"""Tests for federated multi-site deployment and cross-site migration."""

import pytest

from repro.cloud.errors import PlacementError
from repro.cloud.federation import FederatedCloud, Site, SiteConstraint
from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host
from repro.cloud.veem import VEEM
from repro.cloud.vm import DeploymentDescriptor, VMState
from repro.sim.kernel import Environment


def make_site(env, name, n_hosts=2, trusted=True):
    repo = ImageRepository(bandwidth_mb_per_s=100)
    repo.add("base", size_mb=100, href="http://sm/images/base")
    veem = VEEM(env, name=f"veem-{name}", repository=repo)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"{name}-h{i}", cpu_cores=4, memory_mb=8192))
    return Site(name=name, veem=veem, attributes={"trusted": trusted})


def make_desc(component="web", service="svc", **kw):
    kw.setdefault("memory_mb", 1024)
    kw.setdefault("cpu", 1)
    return DeploymentDescriptor(
        name=component, disk_source="http://sm/images/base",
        service_id=service, component_id=component, **kw,
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cloud(env):
    cloud = FederatedCloud(env)
    cloud.add_site(make_site(env, "london"))
    cloud.add_site(make_site(env, "madrid"))
    cloud.add_site(make_site(env, "offshore", trusted=False))
    return cloud


def test_submit_routes_to_first_site(cloud, env):
    vm = cloud.submit(make_desc())
    assert cloud.site_of(vm).name == "london"
    env.run(until=vm.on_running)
    assert vm.state is VMState.RUNNING


def test_avoid_constraint_excludes_site(cloud, env):
    cloud.add_constraint(SiteConstraint(component="dbms",
                                        avoid=frozenset({"london"})))
    vm = cloud.submit(make_desc("dbms"))
    assert cloud.site_of(vm).name == "madrid"
    # Unconstrained components still go to london.
    other = cloud.submit(make_desc("web"))
    assert cloud.site_of(other).name == "london"


def test_favour_constraint_prefers_site(cloud):
    cloud.add_constraint(SiteConstraint(component="web",
                                        favour=frozenset({"madrid"})))
    vm = cloud.submit(make_desc("web"))
    assert cloud.site_of(vm).name == "madrid"


def test_require_trusted_excludes_untrusted(cloud):
    cloud.add_constraint(SiteConstraint(require_trusted=True))
    sites = [s.name for s in cloud.eligible_sites(make_desc())]
    assert "offshore" not in sites


def test_global_constraint_applies_to_all_components(cloud):
    cloud.add_constraint(SiteConstraint(avoid=frozenset({"london", "madrid"})))
    vm = cloud.submit(make_desc("anything"))
    assert cloud.site_of(vm).name == "offshore"


def test_spillover_when_site_full(cloud, env):
    # Fill london entirely, next submission spills to madrid.
    for _ in range(8):
        cloud.submit(make_desc(cpu=1, memory_mb=2048))
    vm = cloud.submit(make_desc())
    assert cloud.site_of(vm).name == "madrid"


def test_no_site_available_raises(env):
    cloud = FederatedCloud(env)
    cloud.add_site(make_site(env, "only", n_hosts=1))
    cloud.add_constraint(SiteConstraint(avoid=frozenset({"only"})))
    with pytest.raises(PlacementError, match="cannot place"):
        cloud.submit(make_desc())


def test_cross_site_migration_moves_vm(cloud, env):
    vm = cloud.submit(make_desc())
    env.run(until=vm.on_running)
    madrid = cloud.sites[1]

    result = {}

    def migrate(env):
        new_vm = yield cloud.migrate_cross_site(vm, madrid)
        result["vm"] = new_vm

    env.process(migrate(env))
    env.run()
    new_vm = result["vm"]
    assert vm.state is VMState.STOPPED
    assert new_vm.state is VMState.RUNNING
    assert cloud.site_of(new_vm).name == "madrid"
    start = cloud.trace.first(kind="vm.xmigrate.start")
    done = cloud.trace.last(kind="vm.xmigrate.done")
    assert start.details["from_site"] == "london"
    assert done.details["site"] == "madrid"
    # WAN transfer of image+memory must take non-trivial time.
    assert done.time > start.time


def test_cross_site_migration_respects_constraints(cloud, env):
    vm = cloud.submit(make_desc("dbms"))
    env.run(until=vm.on_running)
    cloud.add_constraint(SiteConstraint(component="dbms",
                                        avoid=frozenset({"madrid"})))
    with pytest.raises(PlacementError):
        cloud.migrate_cross_site(vm, cloud.sites[1])


def test_cross_site_migration_same_site_rejected(cloud, env):
    vm = cloud.submit(make_desc())
    env.run(until=vm.on_running)
    with pytest.raises(PlacementError):
        cloud.migrate_cross_site(vm, cloud.sites[0])


def test_migrate_non_running_rejected(cloud):
    vm = cloud.submit(make_desc())
    with pytest.raises(PlacementError):
        cloud.migrate_cross_site(vm, cloud.sites[1])


def test_unknown_vm_not_managed(cloud, env):
    outside = make_site(env, "other")
    vm = outside.veem.submit(make_desc())
    with pytest.raises(PlacementError):
        cloud.site_of(vm)


def test_shutdown_via_federation(cloud, env):
    vm = cloud.submit(make_desc())
    env.run(until=vm.on_running)

    def do(env):
        yield cloud.shutdown(vm)

    env.process(do(env))
    env.run()
    assert vm.state is VMState.STOPPED


def test_duplicate_site_rejected(cloud, env):
    with pytest.raises(ValueError):
        cloud.add_site(make_site(env, "london"))


def test_wan_bandwidth_validation(env):
    with pytest.raises(ValueError):
        FederatedCloud(env, wan_bandwidth_mb_per_s=0)
