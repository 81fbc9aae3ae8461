#!/usr/bin/env python3
"""Quickstart: define a manifest, deploy it, watch one elasticity action.

Builds a two-component service (a database plus an elastic web tier) with
the fluent manifest API, deploys it on a two-host simulated site through the
Service Manager, publishes a sessions KPI from a monitoring agent, and lets
the elasticity rule add a web instance when the load rises.

Run:  python examples/quickstart.py
"""

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.ovf_xml import manifest_to_xml
from repro.core.service_manager.manager import ServiceManager
from repro.monitoring.agents import MonitoringAgent
from repro.sim.kernel import Environment


def build_manifest():
    """The service definition manifest — the paper's central artefact."""
    builder = ManifestBuilder("quickstart-shop")
    builder.network("internal")
    builder.component(
        "db", image_mb=2048, cpu=2, memory_mb=4096,
        networks=["internal"], startup_order=0,
        info="database backend",
    )
    builder.component(
        "web", image_mb=1024, cpu=1, memory_mb=1024,
        networks=["internal"], startup_order=1,
        initial=1, minimum=1, maximum=3,
        info="stateless web tier",
        customisation={"db_host": "${ip.internal.db}"},  # MDL6
    )
    builder.application("shop-app")
    builder.kpi("LoadBalancer", "web", "com.shop.lb.sessions",
                frequency_s=10, units="sessions", default=0)
    builder.kpi("WebTier", "web", "com.shop.web.instances",
                frequency_s=10, default=1)
    builder.rule(
        "ScaleWebUp",
        "(@com.shop.lb.sessions / 100 > @com.shop.web.instances) && "
        "(@com.shop.web.instances < 3)",
        "deployVM(web)",
    )
    builder.rule(
        "ScaleWebDown",
        "(@com.shop.lb.sessions == 0) && (@com.shop.web.instances > 1)",
        "undeployVM(web)",
        cooldown_s=30,
    )
    return builder.build()


def main() -> None:
    manifest = build_manifest()
    print("=== Concrete XML syntax (excerpt) ===")
    print("\n".join(manifest_to_xml(manifest).splitlines()[:20]))
    print("    ...\n")

    # A two-host site managed by a VEEM.
    env = Environment()
    veem = VEEM(env, repository=ImageRepository(bandwidth_mb_per_s=100))
    timings = HypervisorTimings(define_s=2, boot_s=30, shutdown_s=5)
    for i in range(2):
        veem.add_host(Host(env, f"host-{i}", cpu_cores=8, memory_mb=16384,
                           timings=timings))
    sm = ServiceManager(env, veem)

    # Deploy (the §5.1.1 seven-step workflow) and wait for completion.
    service = sm.deploy(manifest)
    env.run(until=service.deployment)
    print(f"[t={env.now:7.1f}s] service deployed: "
          f"db×{service.instance_count('db')}, "
          f"web×{service.instance_count('web')}")
    web_vm = service.lifecycle.components["web"].vms[0]
    print(f"              web customisation: {web_vm.descriptor.customisation}")

    # A monitoring agent bridges the application and the infrastructure.
    sessions = {"count": 0}
    agent = MonitoringAgent(env, service_id=service.service_id,
                            component="LoadBalancer", network=sm.network)
    agent.expose("com.shop.lb.sessions", lambda: sessions["count"],
                 frequency_s=10)
    agent.expose("com.shop.web.instances",
                 lambda: service.instance_count("web"), frequency_s=10)

    # Load rises → the rule engine adds web instances.
    sessions["count"] = 250
    env.run(until=env.now + 120)
    print(f"[t={env.now:7.1f}s] after load spike (250 sessions): "
          f"web×{service.instance_count('web')}")

    # Load vanishes → scale back down to the minimum.
    sessions["count"] = 0
    env.run(until=env.now + 300)
    print(f"[t={env.now:7.1f}s] after load drop: "
          f"web×{service.instance_count('web')}")

    # Semantic constraints (the §4.2.2 OCL invariants) hold throughout.
    report = service.check_constraints()
    print(f"constraint check: {report.summary()}")

    print("\nrule firings:")
    for name, stats in service.interpreter.stats().items():
        print(f"  {name}: {stats['firings']} firing(s)")


if __name__ == "__main__":
    main()
