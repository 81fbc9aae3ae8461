"""Micro-benchmarks of the hot paths.

Unlike the experiment benches (one deterministic run each), these exercise
small operations repeatedly under pytest-benchmark's measurement loop:
kernel event throughput, the XDR codec, DHT routing, expression evaluation
and rule-engine passes — the operations whose cost bounds how large a
simulated cloud the harness can drive.
"""

import itertools

import pytest

from repro.core.manifest.expressions import parse_expression
from repro.monitoring.codec import (
    PacketEncoder,
    decode_measurement,
    encode_measurement,
    peek_header,
)
from repro.monitoring.dht import DHTRing
from repro.monitoring.distribution import MulticastChannel, PubSubBroker
from repro.monitoring.measurements import (
    AttributeType,
    Measurement,
    ProbeAttribute,
)
from repro.monitoring.probes import DataSource, Probe
from repro.sim.kernel import Environment
from tests.oracles.broker import ReferenceBroker
from tests.oracles.kernel import HeapEnvironment
from tests.oracles.rules import FullPassInterpreter


def test_kernel_event_throughput(benchmark):
    """Schedule-and-run 10k timeout events."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(100):
                yield env.timeout(1)

        for _ in range(100):
            env.process(ticker(env))
        env.run()
        return env.now

    assert benchmark(run) == 100.0


def test_kernel_process_spawn(benchmark):
    """Spawn 1k short-lived processes."""

    def run():
        env = Environment()

        def short(env):
            yield env.timeout(1)

        for _ in range(1000):
            env.process(short(env))
        env.run()

    benchmark(run)


_MEASUREMENT = Measurement(
    qualified_name="uk.ucl.condor.schedd.queuesize",
    service_id="polymorph-1", probe_id="probe-7",
    timestamp=1234.5, values=(42, 3.25, "busy", True), seqno=17,
)
_PACKET = encode_measurement(_MEASUREMENT)


def test_codec_encode(benchmark):
    assert benchmark(encode_measurement, _MEASUREMENT) == _PACKET


def test_codec_decode(benchmark):
    assert benchmark(decode_measurement, _PACKET) == _MEASUREMENT


def test_codec_header_peek(benchmark):
    """The routing-only decode the fabric performs per packet."""
    header = benchmark(peek_header, _PACKET)
    assert header.qualified_name == _MEASUREMENT.qualified_name
    assert header.service_id == _MEASUREMENT.service_id


def test_codec_encode_cached_prefix(benchmark):
    """Steady-state probe encode: cached header prefix + per-packet fields."""
    encoder = PacketEncoder(_MEASUREMENT.qualified_name,
                            _MEASUREMENT.service_id, _MEASUREMENT.probe_id)
    assert benchmark(encoder.encode, _MEASUREMENT) == _PACKET


# ---------------------------------------------------------------------------
# Distribution fabric: broker fan-out at 1k subscriptions, probe emission
# ---------------------------------------------------------------------------

def _fanout_broker(broker):
    """A ``broker`` with 1 000 exact subscriptions (50 services × 20
    streams) plus a sprinkle of glob subscribers, and 100 steady-state
    packets — pre-encoded by the producers' cached-prefix PacketEncoder,
    each matching exactly one exact subscription and one glob."""
    env = Environment()
    net = broker(env)

    def sink(m):
        pass

    for i in range(1000):
        net.subscribe(sink, service_id=f"svc-{i % 50}",
                      qualified_name=f"uk.ucl.kpi.stream{i}")
    for i in range(10):
        net.subscribe(sink, service_id=f"svc-{i}",
                      qualified_name="uk.ucl.kpi.*")
    traffic = []
    for i in range(100):
        stream = (i * 7) % 1000
        m = Measurement(f"uk.ucl.kpi.stream{stream}", f"svc-{stream % 50}",
                        "probe-1", 0.0, (i,), seqno=i)
        encoder = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
        traffic.append((m, encoder.encode(m)))
    return net, traffic


def _publish_all(net, traffic):
    publish = net.publish
    for m, packet in traffic:
        publish(m, packet=packet)


def test_broker_fanout_indexed_1k(benchmark):
    """Routed delivery of 100 packets through 1k+ subscriptions, warm
    route cache: each packet is one cache lookup and one lazy decode (a
    miss would scan the subscriptions once for its key). It keeps the name
    of the removed topic index because ``BENCH_baseline.json`` keys on it."""
    net, traffic = _fanout_broker(PubSubBroker)
    benchmark(_publish_all, net, traffic)
    assert net.bytes_delivered > 0


def test_broker_fanout_reference_1k(benchmark):
    """Same traffic through the seed's linear-scan broker (the oracle in
    ``tests/oracles/broker.py``) — the baseline the ≥5× route-cache and
    lazy-decode speedup is measured against."""
    net, traffic = _fanout_broker(ReferenceBroker)
    benchmark(_publish_all, net, traffic)
    assert net.bytes_delivered > 0


def test_multicast_fanout_50(benchmark):
    """A federation site's fabric: 100 pre-encoded packets through a
    multicast channel of 50 service-pinned members (one per service, as
    each service's rule interpreter subscribes), every packet matching one
    member. The route cache answers which member without a member scan."""
    env = Environment()
    net = MulticastChannel(env)
    matched = []
    for i in range(50):
        net.subscribe(matched.append, service_id=f"svc-{i}")
    traffic = []
    for i in range(100):
        m = Measurement("uk.ucl.kpi.load", f"svc-{i % 50}", "probe-1", 0.0,
                        (i,), seqno=i)
        encoder = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
        traffic.append((m, encoder.encode(m)))
    benchmark(_publish_all, net, traffic)
    assert len(matched) == net.packets_published
    assert net.bytes_delivered == 50 * net.bytes_published


def test_probe_emission_throughput(benchmark):
    """End-to-end producer hot path: collect → cached-prefix encode →
    publish → cached route → lazy decode → consumer callback, ×100."""
    env = Environment()
    net = PubSubBroker(env)
    net.subscribe(lambda m: None, service_id="svc-1",
                  qualified_name="uk.ucl.emit.kpi")
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(Probe(
        name="emitter", qualified_name="uk.ucl.emit.kpi",
        attributes=[ProbeAttribute("value", AttributeType.INTEGER, "jobs")],
        collector=lambda: (7,), data_rate_s=30.0,
    ), start=False)
    emit = ds.emit_now

    def run():
        for _ in range(100):
            emit("emitter")

    benchmark(run)
    assert net.packets_published >= 100


def test_obs_overhead(benchmark):
    """Cost of the observability layer itself: span open → ambient emit →
    close, plus registry counter/histogram updates, ×500. Gated so the
    tracing machinery stays cheap enough to leave on in every run."""
    from repro.sim.tracing import TraceLog

    def run():
        env = Environment()
        trace = TraceLog(env)
        counter = env.metrics.counter("bench.obs.events")
        hist = env.metrics.histogram("bench.obs.span_s")
        for i in range(500):
            with trace.span_scope("bench", "op", i=i) as span:
                trace.emit("bench", "tick")
                counter.inc()
            hist.observe(span.duration)
        return counter.value

    assert benchmark(run) == 500


def test_dht_put_get(benchmark):
    ring = DHTRing(vnodes=32)
    for i in range(8):
        ring.join(f"node-{i}")
    keys = [f"/schema/probe-{i}/name" for i in range(200)]

    def run():
        for i, key in enumerate(keys):
            ring.put(key, i)
        return sum(ring.get(key) for key in keys)

    assert benchmark(run) == sum(range(200))


def test_dht_churn(benchmark):
    """Join/leave cycles with 500 resident keys."""

    def run():
        ring = DHTRing(vnodes=16)
        for i in range(4):
            ring.join(f"base-{i}")
        for i in range(500):
            ring.put(f"/k/{i}", i)
        ring.join("extra")
        ring.leave("base-0")
        return len(ring)

    assert benchmark(run) == 500


_EXPR = parse_expression(
    "(@uk.ucl.condor.schedd.queuesize / "
    "(@uk.ucl.condor.exec.instances.size + 1) > 4) && "
    "(@uk.ucl.condor.exec.instances.size < 16)"
)
_BINDINGS = {
    "uk.ucl.condor.schedd.queuesize": 200.0,
    "uk.ucl.condor.exec.instances.size": 5.0,
}.get


def test_expression_evaluation(benchmark):
    assert benchmark(_EXPR.evaluate, _BINDINGS) == 1.0


def test_expression_parse(benchmark):
    text = _EXPR.unparse()
    result = benchmark(parse_expression, text)
    assert result.kpi_references() == _EXPR.kpi_references()


def test_rule_engine_evaluation_pass(benchmark):
    """One evaluateRules() pass over 20 installed rules with live records."""
    from repro.core.manifest.elasticity import ElasticityRule
    from repro.core.service_manager.rules import RuleInterpreter

    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: False)
    for i in range(20):
        interp.install(ElasticityRule.from_text(
            f"rule-{i}", f"(@kpi.stream{i} > {i * 10}) && (@kpi.other < 5)",
            "notify()", defaults={f"kpi.stream{i}": 0, "kpi.other": 0}))
    for i in range(20):
        interp.notify(Measurement(f"kpi.stream{i}", "svc", "p", 0.0, (i,)))

    benchmark(interp.evaluate_rules)


def test_rule_engine_sparse_churn(benchmark):
    """Pass cost must track the *dirty* rule count, not the installed count.

    100 installed rules, but each iteration dirties exactly one KPI: the
    incremental engine should evaluate ~1 rule per pass. Only a changed
    value dirties a KPI, so the iterations alternate two values that both
    keep the rule cold.
    """
    from repro.core.manifest.elasticity import ElasticityRule
    from repro.core.service_manager.rules import RuleInterpreter

    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: False)
    n = 100
    for i in range(n):
        interp.install(ElasticityRule.from_text(
            f"rule-{i}", f"(@kpi.stream{i} > {n}) && (@kpi.stream{i} < {2 * n})",
            "notify()", defaults={f"kpi.stream{i}": 0}))
    interp.evaluate_rules()  # settle: every fresh rule goes cold
    churn = itertools.cycle([
        Measurement("kpi.stream42", "svc", "p", 0.0, (3,)),
        Measurement("kpi.stream42", "svc", "p", 0.0, (4,)),
    ])

    def one_dirty_pass():
        interp.notify(next(churn))
        interp.evaluate_rules()

    benchmark(one_dirty_pass)
    assert interp.last_pass["installed"] == n
    assert interp.last_pass["evaluated"] == 1


def test_rule_engine_full_pass_compiled(benchmark):
    """The non-incremental baseline with compiled conditions: isolates the
    expression-compilation win from the dirty-set win."""
    from repro.core.manifest.elasticity import ElasticityRule

    env = Environment()
    interp = FullPassInterpreter(env, "svc", executor=lambda a, r: False,
                                 compiled=True)
    for i in range(20):
        interp.install(ElasticityRule.from_text(
            f"rule-{i}", f"(@kpi.stream{i} > {i * 10}) && (@kpi.other < 5)",
            "notify()", defaults={f"kpi.stream{i}": 0, "kpi.other": 0}))
    for i in range(20):
        interp.notify(Measurement(f"kpi.stream{i}", "svc", "p", 0.0, (i,)))

    benchmark(interp.evaluate_rules)
    assert interp.last_pass["evaluated"] == 20


def test_manifest_xml_round_trip(benchmark):
    from repro.core.manifest.ovf_xml import manifest_from_xml, manifest_to_xml
    from repro.experiments.polymorph import TestbedConfig, polymorph_manifest

    manifest = polymorph_manifest(TestbedConfig())

    def round_trip():
        return manifest_from_xml(manifest_to_xml(manifest))

    assert benchmark(round_trip) == manifest


def test_control_plane_churn(benchmark):
    """Full control-plane churn round: burst-submit 8 services from 3
    tenants onto a 4-host site, drain the queue through releases."""
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host, HypervisorTimings
    from repro.cloud.veem import VEEM
    from repro.control.plane import ControlPlane
    from repro.control.tenants import TenantQuota
    from repro.core.manifest.builder import ManifestBuilder

    timings = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)
    manifests = [
        ManifestBuilder(f"svc{i}")
        .component("app", image_mb=64, cpu=4, memory_mb=8192)
        .build()
        for i in range(8)
    ]

    def churn():
        env = Environment()
        control = ControlPlane(env)
        veem = VEEM(env,
                    repository=ImageRepository(bandwidth_mb_per_s=1000))
        for i in range(4):
            veem.add_host(Host(env, f"h{i}", cpu_cores=4, memory_mb=8192,
                               timings=timings))
        control.add_site("site", veem)
        for t in range(3):
            control.register_tenant(f"t{t}",
                                    quota=TenantQuota(max_services=3))
        for i, manifest in enumerate(manifests):
            control.submit(f"t{i % 3}", manifest, service_id=f"svc-{i}")
        env.run(until=500)
        while control.active_requests() or control.queue_depth:
            for request in control.active_requests():
                control.release(request)
            env.run(until=env.now + 500)
        return control.stats()["released"]

    assert benchmark(churn) == 8


def test_solver_fallback_admission(benchmark):
    """Greedy-fails → solver-rescues round trip: submit a service whose
    sequential placement strands an instance on a 2-host site, let the
    control plane re-plan it with the constraint solver and drive the
    pinned deployment to ACTIVE. Gates the full fallback path — encode,
    search, pin replay — that runs between a CapacityError and a reject."""
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host, HypervisorTimings
    from repro.cloud.veem import VEEM
    from repro.control.plane import ControlPlane
    from repro.control.requests import RequestState
    from repro.core.manifest.builder import ManifestBuilder

    timings = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)
    builder = ManifestBuilder("ragged")
    for name, cpu in (("a", 5), ("b", 4), ("c", 6), ("d", 5)):
        builder.component(name, image_mb=64, cpu=cpu, memory_mb=1024)
    manifest = builder.build()

    def rescue():
        env = Environment()
        control = ControlPlane(env)
        veem = VEEM(env,
                    repository=ImageRepository(bandwidth_mb_per_s=1000))
        for i in range(2):
            veem.add_host(Host(env, f"h{i}", cpu_cores=10, memory_mb=16384,
                               timings=timings))
        control.add_site("site", veem)
        control.register_tenant("t")
        outcome = control.submit("t", manifest)
        env.run(until=500)
        assert outcome.request.state is RequestState.ACTIVE
        return int(control._m_solver_rescued.value)

    assert benchmark(rescue) == 1


def test_whatif_federation_probe(benchmark):
    """Exact what-if probe across a partially loaded 4-site federation:
    greedy verdict per site plus the solver's second opinion where FFD
    refuses. what_if is pure, so one federation serves every iteration."""
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host, HypervisorTimings
    from repro.cloud.veem import VEEM
    from repro.control.plane import ControlPlane
    from repro.core.manifest.builder import ManifestBuilder

    timings = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)
    env = Environment()
    control = ControlPlane(env)
    for s in range(4):
        veem = VEEM(env, name=f"site-{s}",
                    repository=ImageRepository(bandwidth_mb_per_s=1000))
        for i in range(4):
            veem.add_host(Host(env, f"site-{s}-h{i}", cpu_cores=10,
                               memory_mb=16384, timings=timings))
        control.add_site(f"site-{s}", veem)
    control.register_tenant("t")
    filler = (ManifestBuilder("filler")
              .component("app", image_mb=64, cpu=6, memory_mb=8192)
              .build())
    for i in range(6):
        control.submit("t", filler, service_id=f"filler-{i}")
    env.run(until=500)
    probe = ManifestBuilder("probe")
    for name, cpu in (("a", 5), ("b", 4), ("c", 4), ("d", 3),
                      ("e", 2), ("f", 2)):
        probe.component(name, image_mb=64, cpu=cpu, memory_mb=512)
    probe = probe.build()

    report = benchmark(control.what_if, probe)
    assert report.fits or report.solver_only


def test_kernel_10m_events(benchmark):
    """Pure-timeout churn, 10M events, at the scale harness's signature
    shape: synchronized waves of same-instant timeouts (every monitoring
    agent in a federation ticks on the same 60 s grid).

    The headline metric is drain-side dispatch throughput — events/sec
    with the (timed-separately) creation loops subtracted — measured on
    the calendar-queue kernel and compared against the heap oracle running
    one identical wave. Same-instant waves are the heap's worst case
    (every sift compares tied ``(time, priority)`` prefixes) and the
    wheel's best (one bucket adoption, then pure deque pops), which is
    precisely the workload the kernel was rebuilt for.
    """
    import gc
    from time import perf_counter

    def churn(kernel, waves, per_wave):
        env = kernel()
        state = {"wave": 0, "create_s": 0.0}
        timeout = env.timeout

        def next_wave(_event):
            w = state["wave"]
            if w >= waves:
                return
            state["wave"] = w + 1
            t0 = perf_counter()
            for _ in range(per_wave - 1):
                timeout(60.0)
            tail = timeout(60.0)
            tail.callbacks.append(next_wave)
            state["create_s"] += perf_counter() - t0

        first = env.timeout(0.0)
        first.callbacks.append(next_wave)
        # One wave of events is live at a time (memory-bounded); GC off so
        # collector pauses don't land on either kernel's account.
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            env.run()
            wall = perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        return env.events_processed, wall, state["create_s"]

    def wheel_churn():
        return churn(Environment, waves=10, per_wave=1_000_000)

    events, wall, create_s = benchmark.pedantic(
        wheel_churn, rounds=1, iterations=1)
    heap_events, heap_wall, heap_create_s = churn(
        HeapEnvironment, waves=1, per_wave=1_000_000)

    drain_eps = events / (wall - create_s)
    heap_drain_eps = heap_events / (heap_wall - heap_create_s)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["drain_events_per_sec"] = round(drain_eps)
    benchmark.extra_info["heap_drain_events_per_sec"] = round(heap_drain_eps)
    benchmark.extra_info["end_to_end_events_per_sec"] = round(events / wall)
    benchmark.extra_info["heap_end_to_end_events_per_sec"] = round(
        heap_events / heap_wall)
    benchmark.extra_info["drain_speedup"] = round(
        drain_eps / heap_drain_eps, 2)
    assert events > 10_000_000
    assert drain_eps >= 5 * heap_drain_eps


def test_scale_rss_per_1k_vms(benchmark):
    """Peak RSS per 1k peak VMs of a small federation scale run.

    Runs ``python -m repro scale`` in a fresh interpreter (so the figure is
    not polluted by whatever this process has already allocated) and parses
    the footprint line of the report. Gated as a memory metric by
    ``check_regression.py`` — a footprint regression won't move any median.
    """
    import os
    import re
    import subprocess
    import sys

    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    cmd = [sys.executable, "-m", "repro", "scale", "--sites", "4",
           "--services", "1000", "--hours", "0.5", "--seed", "2010"]

    def run():
        out = subprocess.run(
            cmd, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        match = re.search(r"\(([0-9.]+) MB per 1k VMs\)", out.stdout)
        assert match, out.stdout
        return float(match.group(1))

    rss_mb_per_1k = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rss_mb_per_1k_vms"] = rss_mb_per_1k
    assert rss_mb_per_1k > 0


def test_scale_parallel_speedup(benchmark):
    """Sharded scale harness speedup: `--procs 4` vs `--procs 1`, each in
    a fresh interpreter, on a federation big enough for the per-site
    simulation work to dominate the coordinator's planning phase.

    Requires 4 usable cores; on smaller boxes the bench skips and the
    regression gate treats it as conditional (present in the baseline only
    when produced on capable hardware).
    """
    import os
    import re
    import subprocess
    import sys

    if len(os.sched_getaffinity(0)) < 4:
        pytest.skip("needs >= 4 usable CPUs for a parallel speedup")

    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src"))

    def run_once(procs):
        cmd = [sys.executable, "-m", "repro", "scale", "--sites", "40",
               "--services", "2000", "--hours", "0.5", "--seed", "2010",
               "--procs", str(procs)]
        out = subprocess.run(
            cmd, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        match = re.search(r"wall-clock/sim-h:\s+([0-9.]+) s", out.stdout)
        assert match, out.stdout
        return float(match.group(1))

    def measure():
        single = run_once(1)
        sharded = run_once(4)
        return single, sharded

    single, sharded = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = single / sharded if sharded else 0.0
    benchmark.extra_info["wall_s_per_sim_h_procs1"] = single
    benchmark.extra_info["wall_s_per_sim_h_procs4"] = sharded
    benchmark.extra_info["parallel_speedup"] = round(speedup, 2)
    assert speedup >= 2.0, (
        f"--procs 4 must be >= 2x faster than --procs 1 "
        f"(got {speedup:.2f}x: {single:.2f}s vs {sharded:.2f}s)")


def test_scenario_runner_overhead(benchmark):
    """End-to-end cost of one experiment cell through the scenario factory:
    seeded workload generation (flash crowd), chaos injection (a recovering
    host crash), the settle window, and the full §16 invariant sweep over a
    2-site federation.

    Headline-gated: this is the per-cell constant every sweep pays, so a
    regression here multiplies across whole experiment grids. The bare
    harness run is timed alongside and the factory's multiplier is recorded
    as ``scenario_overhead_x`` — generation + checking must stay a small
    fraction of the simulation itself.
    """
    from time import perf_counter

    from repro.experiments.scale import ScaleConfig, run_scale
    from repro.scenarios.chaos import HostCrash

    cell = ScaleConfig(
        sites=2, services=64, hours=0.25, random_seed=7,
        workload="flash-crowd", settle_s=120.0, check_invariants=True,
        chaos=(HostCrash(at_s=465.0, site="site-0",
                         recover_after_s=240.0),))
    bare = ScaleConfig(sites=2, services=64, hours=0.25, random_seed=7)

    report = benchmark(run_scale, cell)
    assert report.violations == ()
    assert report.admitted == 64

    t0 = perf_counter()
    run_scale(bare)
    bare_wall = perf_counter() - t0
    overhead = report.wall_s / bare_wall if bare_wall > 0 else 0.0
    benchmark.extra_info["cell_wall_s"] = round(report.wall_s, 4)
    benchmark.extra_info["bare_wall_s"] = round(bare_wall, 4)
    benchmark.extra_info["scenario_overhead_x"] = round(overhead, 2)


def test_metrics_merge_overhead(benchmark):
    """Telemetry shipping cost per epoch barrier: snapshot a worker-shaped
    registry, pickle it across the "pipe", and fold it into a coordinator
    registry with ``merge_snapshot``.

    The registry is populated by actually running the CI smoke federation
    (2 sites x 8 services, 0.25 h), so the instrument mix — per-site
    counters, labelled histograms, control-plane tallies — matches what a
    real worker ships. The measured round-trip is the *first* epoch's
    worst case (every instrument ships); later epochs ship deltas only.
    Headline-gated, and additionally bounded against the epoch's own
    simulation wall-clock: merging must stay under 5 % or per-epoch
    telemetry would tax the parallel harness it instruments.
    """
    import pickle
    from time import perf_counter

    from repro.experiments.scale import FederationRun, ScaleConfig
    from repro.obs.metrics import (
        MetricsRegistry,
        SnapshotCursor,
        canonical_view,
    )

    cfg = ScaleConfig(sites=2, services=8, hours=0.25, settle_s=120.0)
    t0 = perf_counter()
    env = FederationRun(cfg, [f"site-{s}" for s in range(cfg.sites)]).env
    env.run(until=cfg.duration_s + cfg.settle_s)
    sim_wall = perf_counter() - t0
    epochs = max(1, int((cfg.duration_s + cfg.settle_s) // cfg.epoch_s))
    epoch_wall = sim_wall / epochs

    def roundtrip():
        snap = SnapshotCursor().snapshot(env.metrics)
        coordinator = MetricsRegistry()
        coordinator.merge_snapshot(pickle.loads(pickle.dumps(snap)))
        return coordinator

    coordinator = benchmark(roundtrip)
    assert canonical_view(coordinator) == canonical_view(env.metrics)

    t0 = perf_counter()
    roundtrip()
    merge_s = perf_counter() - t0
    fraction = merge_s / epoch_wall if epoch_wall > 0 else 0.0
    benchmark.extra_info["instruments"] = len(env.metrics)
    benchmark.extra_info["epoch_wall_s"] = round(epoch_wall, 4)
    benchmark.extra_info["merge_fraction_of_epoch"] = round(fraction, 5)
    assert fraction < 0.05, (
        f"epoch telemetry merge took {fraction:.1%} of the epoch's "
        f"simulation wall-clock ({merge_s:.4f}s vs {epoch_wall:.4f}s)")
