"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``validate <manifest>``
    Parse a manifest (``.xml`` or textual ``.rsm``) and run the
    well-formedness rules; exit 1 on errors.
``convert <manifest> --to {xml,text}``
    Translate between the two concrete syntaxes (same abstract syntax).
``generate-agent <manifest> <component>``
    Emit the §4.2.3 monitoring-agent stub for one ADL component.
``generate-validator <manifest> <service-id>``
    Emit the §4.2.3 stand-alone validation-instrument script.
``table3 [--small]``
    Run the §6 evaluation (dedicated vs. elastic) and print Table 3.
``fig11 [--small] [--width N]``
    Regenerate Fig. 11 as text charts.
``weekly``
    Run the §6.1.4 weekly estimate.
``capacity <manifest> [<manifest> ...] [--hosts N]``
    Plan provider capacity for a workload mix (§8): hosts needed for the
    guaranteed floor and the worst-case ceiling; with ``--hosts`` also run
    admission control over the pool.
``plan <manifest> [--sites N] [--hosts N]``
    What-if admission over a synthetic federation: would the manifest fit,
    on which site, at what committed cost? Site-by-site verdicts include
    the exact solver's second opinion where greedy FFD admission refuses;
    exit 0 iff the manifest fits somewhere.
``control-demo [--tenants N] [--services N] [--hosts N]``
    Run the multi-tenant control-plane demo: tenants burst-submit services
    against a two-site federation, the plane admits what fits, queues the
    rest fairly, and drains the queue as services are released. A second
    phase deploys an elastic service and shows the causal span chain from
    a KPI publication to the VEE it caused, plus the time-constraint audit.
``scale [--sites N] [--services M] [--hours H] [--procs P]``
    Run the federation scale harness: an N-site federation under the
    control plane, M services with SAP-style session tides, H simulated
    hours; prints events/sec, wall-clock per simulated hour, and peak RSS
    per 1k VMs (summed over all workers). ``--procs P`` shards the sites
    across P worker processes with epoch barriers; ``--verify-oracle``
    re-runs single-process and fails on any decision divergence.
``experiment <name> [--sweep k=v1,v2 ...] [--seed N] [--procs P]``
    Run a named scenario (workload generator + optional chaos schedule)
    across a parameter sweep; every cell runs through the real control
    plane, the §16 invariants are checked after each cell, and one
    deterministic JSON line per cell lands in ``runs/``. ``--list``
    prints the scenario catalogue. Exit 1 if any cell violates an
    invariant.
``obs-report [--chrome FILE] [--jsonl FILE]``
    Run the same scenario and print the observability report: the span
    tree, a Prometheus-style metrics dump, and the §4.2.3 time-constraint
    audit; optionally export Chrome trace-event / JSONL files.
``report <runs/*.jsonl> [--filter k=v] [--metrics a,b,...]``
    Analytics over the experiment corpus: per-run summary tables,
    percentiles, ASCII sparklines per swept parameter, cell-vs-baseline
    and run-vs-run diffs, and a violations section pointing at cell
    indices and flight-recorder dumps. Output is deterministic (same
    corpus ⇒ byte-identical report); exit 1 if any record failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .core.manifest.validation import Severity, validate_manifest

__all__ = ["main"]


class _LoadError(Exception):
    """A manifest that could not be read or parsed; :func:`main` reports
    it as ``parse error: <message>`` and exits 1."""


def _load_manifest(path: str):
    from .core.manifest.hutn import manifest_from_text
    from .core.manifest.ovf_xml import manifest_from_xml

    try:
        text = Path(path).read_text()
        if text.lstrip().startswith("<"):
            return manifest_from_xml(text)
        return manifest_from_text(text)
    except Exception as exc:
        raise _LoadError(exc) from exc


def _positive_int(text: str) -> int:
    """An ``argparse`` type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """An ``argparse`` type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An ``argparse`` type: a finite number above zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {value:g}")
    return value


def _non_negative_float(text: str) -> float:
    """An ``argparse`` type: a finite number of at least zero."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least 0, got {value:g}")
    return value


def _cmd_validate(args) -> int:
    manifest = _load_manifest(args.manifest)
    issues = validate_manifest(manifest)
    for issue in issues:
        print(issue)
    errors = [i for i in issues if i.severity is Severity.ERROR]
    if errors:
        print(f"INVALID: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print(f"OK: {manifest.service_name} "
          f"({len(manifest.virtual_systems)} component(s), "
          f"{len(manifest.elasticity_rules)} rule(s), "
          f"{len(tuple(manifest.sla))} SLO(s))")
    return 0


def _cmd_convert(args) -> int:
    from .core.manifest.hutn import manifest_to_text
    from .core.manifest.ovf_xml import manifest_to_xml

    manifest = _load_manifest(args.manifest)
    if args.to == "xml":
        print(manifest_to_xml(manifest))
    else:
        print(manifest_to_text(manifest), end="")
    return 0


def _cmd_generate_agent(args) -> int:
    from .core.codegen import generate_agent_stub

    manifest = _load_manifest(args.manifest)
    try:
        source = generate_agent_stub(manifest, args.component)
    except (KeyError, ValueError) as exc:
        message = exc.args[0]
        if isinstance(exc, KeyError):
            names = [c.name for c in manifest.application.components]
            message += f"; components: {', '.join(names)}"
        print(f"error: {message}", file=sys.stderr)
        return 1
    print(source)
    return 0


def _cmd_generate_validator(args) -> int:
    from .core.codegen import generate_validation_script

    manifest = _load_manifest(args.manifest)
    print(generate_validation_script(manifest, args.service_id))
    return 0


def _workload(small: bool):
    from .grid.polymorph import PolymorphSearchConfig

    if small:
        return PolymorphSearchConfig(
            seed_durations_s=(600.0, 900.0), refinements_per_seed=48,
            refinement_mean_s=90.0, setup_s=20, gather_s=20, generate_s=5)
    return PolymorphSearchConfig()


def _cmd_table3(args) -> int:
    from .experiments.polymorph import run_dedicated, run_elastic, table3

    workload = _workload(args.small)
    print("running dedicated baseline ...", file=sys.stderr)
    dedicated = run_dedicated(workload)
    print("running elastic cloud ...", file=sys.stderr)
    elastic = run_elastic(workload)
    rows = table3(dedicated, elastic)
    for key, value in rows.items():
        if value is None:
            print(f"{key:<36} N/A")
        elif key.endswith(("saving", "time")) and abs(value) < 1:
            print(f"{key:<36} {value * 100:10.2f}%")
        else:
            print(f"{key:<36} {value:10.2f}")
    return 0


def _cmd_fig11(args) -> int:
    from .experiments.fig11 import render_run
    from .experiments.polymorph import run_dedicated, run_elastic

    workload = _workload(args.small)
    for run in (run_dedicated(workload), run_elastic(workload)):
        print(render_run(run, width=args.width))
        print()
    return 0


def _cmd_weekly(args) -> int:
    from .experiments.weekly import run_week

    result = run_week()
    print(f"searches:        {result.search_count}")
    print(f"busy fraction:   {result.busy_fraction:.3f}")
    print(f"elastic usage:   {result.elastic_node_seconds / 3600:.1f} "
          f"node-hours")
    print(f"dedicated usage: {result.dedicated_node_seconds / 3600:.1f} "
          f"node-hours")
    print(f"saving:          {result.saving * 100:.2f}%  (paper: 69.18%)")
    return 0


def _cmd_capacity(args) -> int:
    from .cloud.capacity import AdmissionController, HostType, plan_capacity
    from .cloud.errors import CapacityError

    manifests = [_load_manifest(path) for path in args.manifests]
    host = HostType(cpu_cores=args.host_cpu, memory_mb=args.host_memory)
    plan = plan_capacity(manifests, host)
    print(f"host type: {host.cpu_cores:.0f} cores / "
          f"{host.memory_mb / 1024:.0f} GB")
    print(plan.summary())
    if args.hosts is not None:
        controller = AdmissionController(args.hosts, host)
        for manifest, path in zip(manifests, args.manifests):
            try:
                controller.admit(manifest)
                print(f"admit {manifest.service_name} ({path}): OK "
                      f"(committed ceiling {controller.committed_hosts} / "
                      f"{args.hosts} hosts)")
            except CapacityError as exc:
                print(f"admit {manifest.service_name} ({path}): REFUSED — "
                      f"{exc}")
                return 1
    return 0


def _cmd_plan(args) -> int:
    from .cloud.images import ImageRepository
    from .cloud.veeh import Host, HypervisorTimings
    from .cloud.veem import VEEM
    from .control.plane import ControlPlane
    from .sim.kernel import Environment

    manifest = _load_manifest(args.manifest)
    env = Environment()
    control = ControlPlane(env)
    timings = HypervisorTimings()
    for s in range(args.sites):
        name = f"site-{s}"
        veem = VEEM(env, name=name,
                    repository=ImageRepository(bandwidth_mb_per_s=1000))
        for i in range(args.hosts):
            veem.add_host(Host(env, f"{name}-h{i}",
                               cpu_cores=args.host_cpu,
                               memory_mb=args.host_memory, timings=timings))
        control.add_site(name, veem)
    # Pre-admit copies of the manifest to probe a partially-committed
    # federation rather than an empty one.
    remaining = args.admitted
    for site in control.sites:
        while remaining > 0 and site.admission.can_admit(manifest):
            site.admission.admit(manifest)
            remaining -= 1
    report = control.what_if(manifest, exact=not args.greedy_only)
    print(report.render())
    return 0 if report.fits else 1


def _build_demo_plane(env, trace, args):
    """A two-site federation sharing one trace log (causal chains cross
    the control plane / VEEM boundary, so every layer must write to the
    same log)."""
    from .cloud.images import ImageRepository
    from .cloud.veeh import Host, HypervisorTimings
    from .cloud.veem import VEEM
    from .control.plane import ControlPlane
    from .control.tenants import TenantQuota

    control = ControlPlane(env, trace=trace)
    timings = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)

    def make_veem(site_name, n_hosts):
        veem = VEEM(env, name=site_name, trace=trace,
                    repository=ImageRepository(bandwidth_mb_per_s=1000))
        for i in range(n_hosts):
            veem.add_host(Host(env, f"{site_name}-h{i}", cpu_cores=4,
                               memory_mb=8192, timings=timings))
        return veem

    # a two-site federation, second site half the size of the first
    control.add_site("north", make_veem("north", args.hosts))
    control.add_site("south", make_veem("south", max(1, args.hosts // 2)))
    quota = TenantQuota(max_services=args.quota)
    for i in range(args.tenants):
        control.register_tenant(f"tenant-{i}", quota=quota,
                                weight=1 + i % 2)
    return control


def _demo_churn_phase(env, control, args, emit) -> None:
    """Phase 1: tenants burst-submit, the plane admits/queues, then the
    demo drains everything by releasing actives in waves."""
    from .control.requests import Admitted, Queued
    from .core.manifest.builder import ManifestBuilder

    def service(name):
        return (ManifestBuilder(name)
                .component("app", image_mb=256, cpu=4, memory_mb=8192)
                .build())

    emit(f"{args.tenants} tenant(s) × {args.services} service(s) against "
         f"{args.hosts + max(1, args.hosts // 2)} hosts "
         f"(quota: {args.quota} services/tenant)")
    for round_no in range(args.services):
        for i in range(args.tenants):
            name = f"tenant-{i}"
            out = control.submit(name, service(f"{name}-svc{round_no}"))
            if isinstance(out, Admitted):
                emit(f"  t={env.now:6.1f}  {out.request.request_id:<8} "
                     f"{name:<10} ADMITTED -> {out.site}")
            elif isinstance(out, Queued):
                emit(f"  t={env.now:6.1f}  {out.request.request_id:<8} "
                     f"{name:<10} queued (depth {out.depth})")
            else:
                emit(f"  t={env.now:6.1f}  {out.request.request_id:<8} "
                     f"{name:<10} REJECTED: {out.reason}")
    env.run(until=1_000)

    # drain: release the oldest actives in waves until everyone has run
    while control.queue_depth > 0 or control.active_requests():
        for request in sorted(control.active_requests(),
                              key=lambda r: r.admitted_at or 0.0)[:3]:
            control.release(request)
        env.run(until=env.now + 200)

    stats = control.stats()
    emit("\ncounters:")
    for key in ("submitted", "admitted", "queued", "rejected", "retried",
                "released"):
        emit(f"  {key:<10} {stats[key]}")
    depth = control.series["queue.depth"]
    emit(f"peak queue depth: {depth.maximum():.0f}")
    waits = [r.wait_time for r in control.requests.values() if r.wait_time]
    if waits:
        emit(f"queue wait: mean {sum(waits) / len(waits):.1f}s, "
             f"max {max(waits):.1f}s over {len(waits)} queued request(s)")
    for name, row in stats["tenants"].items():
        emit(f"  {name:<10} services={row['services']} "
             f"queued={row['queued']}")


def _demo_elasticity_phase(env, trace, control, emit):
    """Phase 2: one elastic service whose KPI stream triggers a scale-up —
    the end-to-end causal chain kpi.publish → rule.firing → vm.deploy,
    audited against the rule's declared time constraint (§4.2.3)."""
    from .core.manifest.builder import ManifestBuilder
    from .monitoring.agents import MonitoringAgent
    from .obs.audit import TimeConstraintAuditor
    from .obs.exporters import render_span_tree

    b = ManifestBuilder("elastic")
    b.component("web", image_mb=128, cpu=1, memory_mb=1024,
                initial=1, minimum=1, maximum=3)
    b.kpi("LB", "web", "demo.web.load", frequency_s=5, default=0)
    b.rule("up", "@demo.web.load > 80", "deployVM(web)",
           time_constraint_ms=30_000)
    out = control.submit("tenant-0", b.build())
    request = out.request
    env.run(until=env.now + 5)
    service = request.service
    env.run(until=service.deployment)
    site = next(s for s in control.sites if s.name == request.site)
    load = {"value": 0}
    agent = MonitoringAgent(env, service_id=service.service_id,
                            component="LB", network=site.manager.network,
                            trace=trace)
    agent.expose("demo.web.load", lambda: load["value"], frequency_s=5)
    load["value"] = 100      # sustained overload: the rule must scale up
    env.run(until=env.now + 90)
    agent.stop()
    env.run(until=env.now + 30)

    emit(f"\nelasticity: {service.service_id} scaled web to "
         f"{service.instance_count('web')} instance(s)")
    deploys = [s for s in trace.find_spans(kind="vm.deploy")
               if s.details.get("service") == service.service_id]
    publishes = trace.find_spans(source="monitoring", kind="kpi.publish")
    chain = next(
        ((pub, dep) for dep in deploys for pub in publishes
         if trace.is_ancestor(pub, dep)), None)
    if chain is not None:
        pub, dep = chain
        emit(f"causal chain: kpi.publish #{pub.span_id} is an ancestor of "
             f"vm.deploy #{dep.span_id} ({dep.details.get('vm')})")
        emit(render_span_tree(trace, root=pub))
    else:
        emit("causal chain: NOT FOUND — no vm.deploy descends from a "
             "kpi.publish span")
    report = TimeConstraintAuditor(trace).audit()
    emit(report.render())
    return service


def _cmd_control_demo(args) -> int:
    from .sim.kernel import Environment
    from .sim.tracing import TraceLog

    env = Environment()
    trace = TraceLog(env)
    control = _build_demo_plane(env, trace, args)
    _demo_churn_phase(env, control, args, print)
    _demo_elasticity_phase(env, trace, control, print)
    return 0


def _cmd_scale(args) -> int:
    import json

    from .experiments.scale import (
        ScaleConfig,
        run_scale,
        verify_against_oracle,
    )

    try:
        cfg = ScaleConfig(
            sites=args.sites, services=args.services, hours=args.hours,
            tenants=args.tenants,
            random_seed=args.seed, monitor_period_s=args.monitor_period,
            elastic_fraction=args.elastic_fraction,
            procs=args.procs, epoch_s=args.epoch,
            defrag_every_h=args.defrag_every,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    say = lambda m: print(m, file=sys.stderr)  # noqa: E731
    profiler = None
    if args.profile:
        if cfg.procs > 1:
            print("--profile needs --procs 1 (worker kernels live in "
                  "other processes)", file=sys.stderr)
            return 2
        from .obs.profile import SimProfiler
        profiler = SimProfiler()
    if args.verify_oracle:
        if cfg.procs <= 1:
            print("--verify-oracle needs --procs > 1", file=sys.stderr)
            return 2
        sharded, oracle, divergences = verify_against_oracle(
            cfg, progress=say)
        print(sharded.render())
        print()
        print(oracle.render())
        if divergences:
            print("\nORACLE DIVERGENCE:", file=sys.stderr)
            for line in divergences:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\noracle agreement: sharded --procs {cfg.procs} matches "
              f"--procs 1 decision-for-decision")
        return 0
    report = run_scale(cfg, progress=say, profiler=profiler)
    print(report.render())
    if profiler is not None:
        with open(args.profile, "w") as fh:
            json.dump(profiler.chrome_trace(), fh, sort_keys=True)
        print(profiler.render(), file=sys.stderr)
        print(f"profile written to {args.profile} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_report(args) -> int:
    from .obs.report import report_main

    metrics = None
    if args.metrics:
        metrics = tuple(m.strip() for m in args.metrics.split(",")
                        if m.strip())
    try:
        return report_main(args.paths, filters=args.filter or (),
                           metrics=metrics)
    except BrokenPipeError:
        # `repro report ... | head` closes stdout early; redirect the
        # remaining writes to devnull so shutdown doesn't traceback.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_experiment(args) -> int:
    from .scenarios.runner import SCENARIOS, run_experiment, scenario_names
    from .scenarios.workloads import WorkloadError

    if args.list or not args.name:
        width = max(len(n) for n in SCENARIOS)
        for name in scenario_names():
            print(f"{name:<{width}}  {SCENARIOS[name].description}")
        return 0
    say = lambda m: print(m, file=sys.stderr)  # noqa: E731
    try:
        result = run_experiment(
            args.name, sweep=args.sweep, seed=args.seed, procs=args.procs,
            hours=args.hours, out_dir=args.out, progress=say)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    return 0 if result.ok else 1


def _cmd_obs_report(args) -> int:
    """Run the control-demo scenario and print the observability report:
    span tree, metrics dump, and the §4.2.3 time-constraint audit."""
    import json

    from .obs.audit import TimeConstraintAuditor
    from .obs.exporters import (
        chrome_trace,
        export_jsonl,
        prometheus_text,
        render_span_tree,
    )
    from .sim.kernel import Environment
    from .sim.tracing import TraceLog

    env = Environment()
    trace = TraceLog(env)
    control = _build_demo_plane(env, trace, args)
    quiet = lambda *_: None  # noqa: E731 - scenario output is not the report
    _demo_churn_phase(env, control, args, quiet)
    _demo_elasticity_phase(env, trace, control, quiet)

    print(f"== span tree ({len(trace.spans)} span(s), "
          f"{len(trace.records)} record(s)) ==")
    print(render_span_tree(trace, max_depth=args.depth))
    print("\n== metrics ==")
    print(prometheus_text(env.metrics))
    print("== time-constraint audit (§4.2.3) ==")
    report = TimeConstraintAuditor(trace).audit()
    print(report.render())
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(chrome_trace(trace), fh)
        print(f"chrome trace written to {args.chrome} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            export_jsonl(trace, fh)
        print(f"jsonl trace written to {args.jsonl}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On-demand cloud provisioning (RESERVOIR) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("convert", help="convert between concrete syntaxes")
    p.add_argument("manifest")
    p.add_argument("--to", choices=("xml", "text"), required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("generate-agent",
                       help="emit a monitoring-agent stub (§4.2.3)")
    p.add_argument("manifest")
    p.add_argument("component")
    p.set_defaults(func=_cmd_generate_agent)

    p = sub.add_parser("generate-validator",
                       help="emit a validation-instrument script (§4.2.3)")
    p.add_argument("manifest")
    p.add_argument("service_id")
    p.set_defaults(func=_cmd_generate_validator)

    p = sub.add_parser("table3", help="run the §6 evaluation")
    p.add_argument("--small", action="store_true",
                   help="scaled-down workload (fast)")
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("fig11", help="regenerate Fig. 11 text charts")
    p.add_argument("--small", action="store_true")
    p.add_argument("--width", type=_positive_int, default=72)
    p.set_defaults(func=_cmd_fig11)

    p = sub.add_parser("weekly", help="run the §6.1.4 weekly estimate")
    p.set_defaults(func=_cmd_weekly)

    p = sub.add_parser("capacity",
                       help="plan provider capacity for a workload mix (§8)")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--hosts", type=_positive_int, default=None,
                   help="pool size for admission control")
    p.add_argument("--host-cpu", type=_positive_float, default=4.0)
    p.add_argument("--host-memory", type=_positive_float, default=8192.0)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("plan",
                       help="what-if admission: would this manifest fit, "
                            "where, at what committed cost? (DESIGN §15)")
    p.add_argument("manifest")
    p.add_argument("--sites", type=_positive_int, default=2)
    p.add_argument("--hosts", type=_positive_int, default=4,
                   help="hosts per site")
    p.add_argument("--host-cpu", type=_positive_float, default=4.0)
    p.add_argument("--host-memory", type=_positive_float, default=8192.0)
    p.add_argument("--admitted", type=_non_negative_int, default=0,
                   help="pre-admit this many copies of the manifest "
                        "before probing")
    p.add_argument("--greedy-only", action="store_true",
                   help="skip the exact solver second opinion")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("control-demo",
                       help="multi-tenant control-plane demo (DESIGN §11)")
    p.add_argument("--tenants", type=_positive_int, default=4)
    p.add_argument("--services", type=_non_negative_int, default=4,
                   help="services submitted per tenant")
    p.add_argument("--hosts", type=_positive_int, default=6,
                   help="hosts at the larger site")
    p.add_argument("--quota", type=_positive_int, default=3,
                   help="max concurrent services per tenant")
    p.set_defaults(func=_cmd_control_demo)

    p = sub.add_parser("scale",
                       help="federation scale harness: N sites, M services, "
                            "H simulated hours (DESIGN §13)")
    p.add_argument("--sites", type=int, default=100)
    p.add_argument("--services", type=int, default=10_000)
    p.add_argument("--hours", type=_positive_float, default=1.0)
    p.add_argument("--tenants", type=int, default=8)
    p.add_argument("--monitor-period", type=_positive_float, default=60.0,
                   help="session-KPI publication period (s)")
    p.add_argument("--elastic-fraction", type=float, default=0.25,
                   help="fraction of services whose burst trips scale-up")
    p.add_argument("--seed", type=int, default=2010)
    p.add_argument("--procs", type=int, default=1,
                   help="worker processes; >1 shards the federation's "
                        "sites across a spawn pool with epoch barriers")
    p.add_argument("--epoch", type=_positive_float, default=600.0,
                   help="simulated seconds between shard barriers")
    p.add_argument("--defrag-every", type=_non_negative_float, default=0.0,
                   metavar="H",
                   help="run a defragmenting migration pass per site every "
                        "H simulated hours (0 = off)")
    p.add_argument("--verify-oracle", action="store_true",
                   help="also run the --procs 1 oracle and fail on any "
                        "decision-outcome divergence")
    p.add_argument("--profile", metavar="FILE", default=None,
                   help="attach the sim-time profiler and write a "
                        "Chrome-trace JSON (--procs 1 only)")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("experiment",
                       help="run a named scenario across a parameter sweep "
                            "with invariant checking (DESIGN §16)")
    p.add_argument("name", nargs="?", default=None,
                   help="scenario name (see --list)")
    p.add_argument("--sweep", nargs="*", default=[], metavar="KEY=V1,V2",
                   help="sweep axes; config fields (sites, services, hours, "
                        "procs, seed ...) or workload parameters (load, "
                        "alpha ...)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--procs", type=int, default=None)
    p.add_argument("--hours", type=_positive_float, default=None)
    p.add_argument("--out", default="runs",
                   help="directory for per-cell JSONL (default: runs/)")
    p.add_argument("--list", action="store_true",
                   help="print the scenario catalogue and exit")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report",
                       help="analytics over the experiment JSONL corpus "
                            "(tables, percentiles, sparklines, diffs — "
                            "DESIGN §17)")
    p.add_argument("paths", nargs="+", metavar="JSONL",
                   help="experiment JSONL file(s), e.g. runs/*.jsonl")
    p.add_argument("--filter", action="append", metavar="KEY=VALUE",
                   help="keep records whose field or sweep-cell key "
                        "equals VALUE (repeatable)")
    p.add_argument("--metrics", default=None, metavar="A,B,...",
                   help="comma-separated record fields for the tables "
                        "(default: admitted,queued,rejected,peak_vms,"
                        "final_vms,peak_queue_depth)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("obs-report",
                       help="observability report over the control-demo "
                            "scenario (span tree, metrics, audit — "
                            "DESIGN §12)")
    p.add_argument("--tenants", type=_positive_int, default=2)
    p.add_argument("--services", type=_non_negative_int, default=2,
                   help="services submitted per tenant")
    p.add_argument("--hosts", type=_positive_int, default=3,
                   help="hosts at the larger site")
    p.add_argument("--quota", type=_positive_int, default=2,
                   help="max concurrent services per tenant")
    p.add_argument("--depth", type=_non_negative_int, default=6,
                   help="max span-tree depth to print")
    p.add_argument("--chrome", metavar="FILE", default=None,
                   help="also write a Chrome trace-event JSON file")
    p.add_argument("--jsonl", metavar="FILE", default=None,
                   help="also write records and spans as JSON lines")
    p.set_defaults(func=_cmd_obs_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _LoadError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
