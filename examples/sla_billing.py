#!/usr/bin/env python3
"""SLAs, protection and billing — the paper's §8 future work, implemented.

Deploys a web service whose manifest carries a **service-level objective**
(95% of samples must see response time < 2 s over each 10-minute window,
50 EUR credit per breached window), drives a load spike that the elasticity
rule is too slow to absorb, and shows:

* the SLA monitor sampling the objective and detecting the breach,
* the protection hook forcing a scale-up ahead of the (deliberately
  sluggish) elasticity rule,
* the invoice: instance-hours priced per component, breach credits deducted.

Run:  python examples/sla_billing.py
"""

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.hutn import manifest_to_text
from repro.core.service_manager.billing import BillingService, PriceSchedule
from repro.core.service_manager.lifecycle import ScaleError
from repro.core.service_manager.manager import ServiceManager
from repro.core.sla import SLAMonitor
from repro.monitoring.agents import MonitoringAgent
from repro.monitoring.measurements import AttributeType
from repro.sim.kernel import Environment


def build_manifest():
    b = ManifestBuilder("webshop")
    b.component("db", image_mb=2048, cpu=2, memory_mb=4096, startup_order=0)
    b.component("web", image_mb=1024, cpu=1, memory_mb=1024, startup_order=1,
                initial=1, minimum=1, maximum=4)
    b.application("webshop-app")
    b.kpi("LB", "web", "shop.response.time", type_name="double",
          frequency_s=30, units="s", default=0)
    b.kpi("Web", "web", "shop.web.instances", frequency_s=30, default=1)
    # A deliberately glacial rule: it reacts only to a sustained 20-minute
    # mean and waits 10 minutes between firings, so a sharp spike breaches
    # the SLO long before the rule catches up — the SLA protection hook has
    # to act first.
    b.rule("slow-up",
           "(mean(@shop.response.time, 1200) > 2) && "
           "(@shop.web.instances < 4)",
           "deployVM(web)", cooldown_s=600)
    b.slo("responsive", "@shop.response.time < 2",
          evaluation_period_s=30, target_compliance=0.95,
          assessment_window_s=600, penalty_per_breach=50)
    return b.build()


def main() -> None:
    manifest = build_manifest()
    print("=== manifest (textual syntax, SLA section at the end) ===")
    print(manifest_to_text(manifest))

    env = Environment()
    veem = VEEM(env, repository=ImageRepository(bandwidth_mb_per_s=100))
    timings = HypervisorTimings(define_s=2, boot_s=40, shutdown_s=5)
    for i in range(3):
        veem.add_host(Host(env, f"host-{i}", cpu_cores=8, memory_mb=16384,
                           timings=timings))
    sm = ServiceManager(env, veem)
    service = sm.deploy(manifest, service_id="webshop-1")
    env.run(until=service.deployment)
    print(f"[t={env.now:7.1f}s] deployed: web×{service.instance_count('web')}")

    # SLA monitor with a protection hook that forces capacity.
    monitor = SLAMonitor(env, "webshop-1", manifest.sla,
                         kpi_defaults=manifest.kpi_defaults(),
                         trace=sm.trace)
    monitor.subscribe_to(sm.network)

    def protect(slo, compliance):
        try:
            vm = service.lifecycle.scale_up("web")
            print(f"[t={env.now:7.1f}s] SLA protection: {slo.name} at "
                  f"{compliance:.0%} compliance → deployed {vm.vm_id}")
            return True
        except ScaleError:
            return False

    monitor.add_protection_hook(protect)
    monitor.start()

    # Application model: response time degrades with load per instance.
    load = {"sessions": 60}

    def response_time():
        instances = max(service.instance_count("web"), 1)
        per_instance = load["sessions"] / instances
        return 0.4 + max(per_instance - 80, 0) * 0.05  # knee at 80 sessions

    agent = MonitoringAgent(env, service_id="webshop-1", component="LB",
                            network=sm.network)
    agent.expose("shop.response.time", response_time, frequency_s=30,
                 type=AttributeType.DOUBLE, units="s")
    agent.expose("shop.web.instances",
                 lambda: service.instance_count("web"), frequency_s=30)

    billing_start = env.now
    env.run(until=env.now + 1800)          # calm half hour
    print(f"[t={env.now:7.1f}s] load spike: 60 → 400 sessions")
    load["sessions"] = 400
    env.run(until=env.now + 2700)          # spike + recovery
    load["sessions"] = 60
    env.run(until=env.now + 1800)

    print("\n=== SLA statement ===")
    for name, entry in monitor.statement().items():
        print(f"  {name}: compliance {entry['compliance']:.1%} "
              f"(target {entry['target']:.0%}), "
              f"{entry['breaches']} breach(es), "
              f"{entry['penalties']:.2f} EUR credits")

    billing = BillingService(
        service.lifecycle.accountant,
        PriceSchedule(rates=(("db", 0.40), ("web", 0.15)),
                      deployment_fee=0.05),
        sla_monitor=monitor,
    )
    print("\n=== invoice ===")
    print(billing.invoice(billing_start).render())


if __name__ == "__main__":
    main()
