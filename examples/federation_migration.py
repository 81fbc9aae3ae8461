#!/usr/bin/env python3
"""Federation (§2, MDL5): multi-site placement and cross-site migration.

Builds a federation of three sites (two trusted EU sites and an untrusted
offshore site), expresses MDL5 administrative constraints (favour a site,
avoid untrusted locations for the database), deploys a small service across
the federation, and finally migrates a component cross-site for business
continuity — "replication of virtual machines to other locations for example
for business continuity purposes" (§2).

Run:  python examples/federation_migration.py
"""

from repro.cloud.federation import FederatedCloud, Site, SiteConstraint
from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.cloud.vm import DeploymentDescriptor
from repro.sim.kernel import Environment


def make_site(env, name, *, trusted=True, hosts=2):
    repo = ImageRepository(bandwidth_mb_per_s=100)
    repo.add("base", size_mb=1024, href="http://sm.internal/images/base")
    veem = VEEM(env, name=f"veem-{name}", repository=repo)
    timings = HypervisorTimings(define_s=2, boot_s=30, shutdown_s=5)
    for i in range(hosts):
        veem.add_host(Host(env, f"{name}-h{i}", cpu_cores=8,
                           memory_mb=16384, timings=timings))
    return Site(name=name, veem=veem, attributes={"trusted": trusted})


def descriptor(component):
    return DeploymentDescriptor(
        name=component, memory_mb=2048, cpu=1,
        disk_source="http://sm.internal/images/base",
        service_id="federated-svc", component_id=component,
    )


def main() -> None:
    env = Environment()
    cloud = FederatedCloud(env, wan_bandwidth_mb_per_s=25.0)
    london = cloud.add_site(make_site(env, "london"))
    madrid = cloud.add_site(make_site(env, "madrid"))
    cloud.add_site(make_site(env, "offshore", trusted=False))

    # MDL5 administrative constraints.
    cloud.add_constraint(SiteConstraint(
        component="dbms", require_trusted=True))          # data sovereignty
    cloud.add_constraint(SiteConstraint(
        component="web", favour=frozenset({"madrid"})))   # latency to users

    print("eligible sites per component:")
    for component in ("dbms", "web", "batch"):
        sites = [s.name for s in cloud.eligible_sites(descriptor(component))]
        print(f"  {component:<6} → {sites}")

    dbms = cloud.submit(descriptor("dbms"))
    web = cloud.submit(descriptor("web"))
    batch = cloud.submit(descriptor("batch"))
    env.run(until=env.all_of([dbms.on_running, web.on_running,
                              batch.on_running]))
    print(f"\n[t={env.now:7.1f}s] deployed:")
    for vm in (dbms, web, batch):
        print(f"  {vm.descriptor.component_id:<6} {vm.vm_id:<16} "
              f"site={cloud.site_of(vm).name:<9} host={vm.host.name}")

    # Business continuity: London is scheduled for maintenance — move the
    # DBMS to Madrid. Cross-site moves pay WAN transfer of disk + memory.
    print(f"\n[t={env.now:7.1f}s] migrating dbms london → madrid ...")
    result = {}

    def migrate(env):
        new_vm = yield cloud.migrate_cross_site(dbms, madrid)
        result["vm"] = new_vm

    env.process(migrate(env))
    env.run()
    new_vm = result["vm"]
    print(f"[t={env.now:7.1f}s] migration complete: {new_vm.vm_id} on "
          f"{new_vm.host.name} (old VM {dbms.vm_id} is {dbms.state.value})")

    print("\nfederation trace:")
    for record in cloud.trace.query():
        print(f"  t={record.time:8.1f}s {record.kind:<20} {record.details}")


if __name__ == "__main__":
    main()
