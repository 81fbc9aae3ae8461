#!/usr/bin/env python3
"""The §3 motivating example: an SAP-style ERP system on the cloud.

Demonstrates every architectural constraint the paper derives from the SAP
architecture:

* the Central Instance and DBMS are **co-located** on the same host,
* the Central Instance is **not replicable**,
* Dialog Instances scale with the Web Dispatcher's sessions KPI
  (``com.sap.webdispatcher.kpis.sessions``),
* instance-specific customisation (CI/DB addresses) is injected at
  deployment time (MDL6).

A business-day session profile (quiet → peak → quiet) drives the system.

Run:  python examples/sap_elastic_erp.py
"""

from repro.apps.sap import (
    SAPConfig,
    SessionWorkload,
    deploy_sap,
    drive_sessions,
)
from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.core.service_manager.lifecycle import ScaleError
from repro.core.service_manager.manager import ServiceManager
from repro.experiments.fig11 import render_ascii_chart
from repro.sim.kernel import Environment


def main() -> None:
    env = Environment()
    veem = VEEM(env, repository=ImageRepository(bandwidth_mb_per_s=100))
    timings = HypervisorTimings(define_s=2, boot_s=40, shutdown_s=8)
    for i in range(5):
        veem.add_host(Host(env, f"host-{i}", cpu_cores=8, memory_mb=16384,
                           timings=timings))
    sm = ServiceManager(env, veem)

    cfg = SAPConfig(sessions_per_di=100, max_dialog_instances=6)
    sap = deploy_sap(env, sm, cfg)
    env.run(until=sap.service.deployment)

    lifecycle = sap.service.lifecycle
    ci = lifecycle.components["CentralInstance"].vms[0]
    dbms = lifecycle.components["DBMS"].vms[0]
    print(f"[t={env.now:7.1f}s] SAP system deployed")
    print(f"  DBMS            on {dbms.host.name}")
    print(f"  CentralInstance on {ci.host.name}   "
          f"(co-location constraint: {'OK' if ci.host is dbms.host else 'VIOLATED'})")
    print(f"  CI customisation: {ci.descriptor.customisation}")
    di = lifecycle.components["DialogInstance"].vms[0]
    print(f"  DialogInstance customisation: {di.descriptor.customisation}")

    # The central instance cannot be replicated — the manifest encodes it and
    # the lifecycle manager refuses.
    try:
        lifecycle.scale_up("CentralInstance")
    except ScaleError as exc:
        print(f"  scale-up of CentralInstance refused: {exc}")

    # A business day: quiet morning, sustained peak, evening wind-down.
    workload = SessionWorkload(
        phases=(
            (1800.0, 0.05),   # 06:00–06:30: trickle
            (5400.0, 0.55),   # peak: ~330 concurrent sessions at steady state
            (2700.0, 0.10),   # wind-down
        ),
        session_duration_s=600.0,
    )
    day_start = env.now
    env.process(drive_sessions(env, sap.dispatcher, workload))
    env.run(until=env.now + workload.total_duration_s + 1800)

    print(f"\n[t={env.now:7.1f}s] business day complete")
    sessions = sap.dispatcher.series["sessions"]
    instances = sap.dispatcher.series["dialog_instances"]
    print(f"  peak sessions: {sessions.maximum():.0f}")
    print(f"  peak dialog instances: {instances.maximum():.0f} "
          f"(max {cfg.max_dialog_instances})")
    print(f"  dialog instances now: {sap.dialog_instance_count} "
          f"(min {cfg.min_dialog_instances})")
    print(f"  rejected sessions: {sap.dispatcher.rejected_sessions}")

    report = sap.service.check_constraints()
    print(f"  semantic constraints: {report.summary()}")

    end = env.now
    print("\n" + render_ascii_chart(sessions, day_start, end, width=68,
                                    label="active web sessions"))
    print("\n" + render_ascii_chart(instances, day_start, end, width=68,
                                    label="dialog instances"))


if __name__ == "__main__":
    main()
