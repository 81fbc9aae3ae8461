"""Ablation benches for the design choices the paper calls out.

Each bench varies one knob of the §6 setup on a scaled-down workload (same
structure: 2 staggered seeds, refinement batches) and prints the sweep.
"""

import pytest

from repro.experiments.polymorph import TestbedConfig, run_elastic
from repro.grid.polymorph import PolymorphSearchConfig
from repro.monitoring.codec import encode_measurement, naive_json_size
from repro.monitoring.measurements import Measurement

SMALL = PolymorphSearchConfig(
    seed_durations_s=(600.0, 900.0),
    refinements_per_seed=48,
    refinement_mean_s=90.0,
    setup_s=20, gather_s=20, generate_s=5,
)


def test_monitoring_period_sweep(benchmark):
    """§4.2.1: the monitoring rate must be "balanced against expected
    response time". Slow publication delays spike detection and lengthens
    the run. (The relationship is not strictly monotone at the fast end:
    very fast monitoring also accelerates scale-*down* reactions to
    transient queue dips — exactly the duplicate-response hazard the paper
    warns the rate must be balanced against.)"""

    def sweep():
        out = {}
        for period in (5.0, 30.0, 300.0):
            cfg = TestbedConfig(monitoring_period_s=period)
            out[period] = run_elastic(SMALL, cfg).turnaround_s
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n  monitoring period (s) → turn-around (s):",
          {k: round(v) for k, v in results.items()})
    # Slow monitoring is unambiguously worse than either fast setting.
    assert results[300.0] > results[5.0]
    assert results[300.0] > results[30.0]


def test_scale_threshold_sweep(benchmark):
    """The §6.1.2 rule's jobs-per-instance threshold (4): lower thresholds
    scale earlier (more nodes, faster); higher thresholds save more."""

    def sweep():
        out = {}
        for threshold in (1.0, 4.0, 16.0):
            cfg = TestbedConfig(scale_threshold=threshold)
            r = run_elastic(SMALL, cfg)
            out[threshold] = (r.turnaround_s, r.mean_nodes_run)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n  threshold → (turnaround s, mean nodes):",
          {k: (round(t), round(n, 2)) for k, (t, n) in results.items()})
    # Aggressive scaling allocates at least as many nodes on average...
    assert results[1.0][1] >= results[16.0][1]
    # ...and conservative scaling must not be faster.
    assert results[16.0][0] >= results[1.0][0]


def test_image_prestaging(benchmark):
    """§6.1.4: "relying on pre-existing images to avoid replication" trades
    storage for provisioning latency."""

    def compare():
        base = run_elastic(SMALL, TestbedConfig(prestage_images=False))
        pre = run_elastic(SMALL, TestbedConfig(prestage_images=True))
        return base.turnaround_s, pre.turnaround_s

    base_t, pre_t = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\n  turnaround: copy-on-deploy={base_t:.0f}s "
          f"prestaged={pre_t:.0f}s (saves {base_t - pre_t:.0f}s)")
    assert pre_t < base_t
    # The saving is in the order of the per-VM image copy time.
    assert base_t - pre_t > 30


def test_app_vs_infra_kpi(benchmark):
    """§7: EC2-style CPU-utilisation triggers cannot see the scheduling
    process. A node running its single job is 100% busy whether the queue
    holds 1 job or 200, so utilisation over-provisions during the seed phase
    — application-level queue KPIs allocate strictly less."""

    def compare():
        app = run_elastic(SMALL, TestbedConfig(trigger_mode="app"))
        infra = run_elastic(SMALL, TestbedConfig(trigger_mode="infra"))
        return app, infra

    app, infra = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\n  app KPI:   turnaround={app.turnaround_s:.0f}s "
          f"mean nodes={app.mean_nodes_run:.2f}")
    print(f"  infra KPI: turnaround={infra.turnaround_s:.0f}s "
          f"mean nodes={infra.mean_nodes_run:.2f}")
    assert infra.mean_nodes_run > app.mean_nodes_run
    assert app.jobs_completed == infra.jobs_completed == SMALL.total_jobs


def test_placement_policies(benchmark):
    """VEEM placement policy (§2): packing vs. spreading the exec VMs.

    With the per-host cap of 4 all policies fit 16 VMs on 4+ hosts; the
    difference is how many *hosts* are touched at mid scale — BestFit packs,
    WorstFit spreads. (On real hardware that changes consolidation/power;
    here we verify the policies drive measurably different placements.)
    """
    from repro.cloud.images import ImageRepository
    from repro.cloud.placement import BestFit, ComponentCap, Placer, WorstFit
    from repro.cloud.veeh import Host
    from repro.cloud.veem import VEEM
    from repro.cloud.vm import DeploymentDescriptor
    from repro.sim.kernel import Environment

    def used_hosts(policy):
        env = Environment()
        repo = ImageRepository()
        repo.add("img", size_mb=10)
        veem = VEEM(env, repository=repo,
                    placer=Placer(policy=policy,
                                  constraints=[ComponentCap("exec", 4)]))
        for i in range(6):
            veem.add_host(Host(env, f"h{i}", cpu_cores=4, memory_mb=8192))
        for i in range(8):   # half the maximum cluster
            veem.submit(DeploymentDescriptor(
                name=f"exec-{i}", memory_mb=2048, cpu=1,
                disk_source=repo.get("img").href,
                service_id="svc", component_id="exec"))
        env.run()
        return sum(1 for h in veem.hosts if h.vms)

    def compare():
        return used_hosts(BestFit()), used_hosts(WorstFit())

    packed, spread = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\n  hosts used for 8 exec VMs: BestFit={packed} WorstFit={spread}")
    assert packed < spread
    assert packed == 2   # 4-per-host cap → 8 VMs pack onto exactly 2 hosts
    assert spread == 6   # spread across every host


def test_codec_size(benchmark):
    """§5.2.6: "the measurement encoding is made as small as possible by only
    sending the values" — XDR + information-model split vs. a
    self-describing JSON encoding."""

    m = Measurement(
        qualified_name="uk.ucl.condor.schedd.queuesize",
        service_id="polymorph-1", probe_id="probe-7",
        timestamp=1234.5, values=(42,), seqno=17,
    )
    names, units = ["queuesize"], ["jobs"]

    def sizes():
        return len(encode_measurement(m)), naive_json_size(m, names, units)

    xdr, json_ = benchmark.pedantic(sizes, rounds=1, iterations=1)
    ratio = json_ / xdr
    print(f"\n  wire bytes: XDR={xdr} JSON={json_} (JSON {ratio:.2f}× larger)")
    assert xdr < json_
    assert ratio > 1.5


def test_rule_cooldown_prevents_thrashing(benchmark):
    """Design choice: the per-rule cooldown (defaulting to the trigger's
    time constraint). Without it, one sustained queue spike would fire the
    deploy action on every evaluation tick."""
    from repro.core.manifest.elasticity import ElasticityRule
    from repro.core.service_manager.rules import RuleInterpreter
    from repro.monitoring.measurements import Measurement
    from repro.sim.kernel import Environment

    def count_firings(cooldown_s):
        env = Environment()
        calls = []
        rule = ElasticityRule.from_text(
            "up", "@q.size > 4", "deployVM(x)", defaults={"q.size": 0},
            time_constraint_ms=5000, cooldown_s=cooldown_s)
        interp = RuleInterpreter(
            env, "svc", executor=lambda a, r: calls.append(env.now) or True)
        interp.install(rule)
        interp.notify(Measurement("q.size", "svc", "p", 0.0, (100,)))
        interp.start()
        env.run(until=120)
        return len(calls)

    def compare():
        return count_firings(0.001), count_firings(None)  # None → default 5 s

    unthrottled, throttled = benchmark.pedantic(compare, rounds=1,
                                                iterations=1)
    print(f"\n  firings in 120 s of sustained condition: "
          f"no cooldown={unthrottled}, default cooldown={throttled}")
    assert throttled < unthrottled
    assert throttled == pytest.approx(120 / 5, abs=2)


def test_distribution_framework_utilisation(benchmark):
    """§5.2.5: the distribution framework is interchangeable; the trade-off
    is network utilisation. Multicast delivers every packet to every member;
    topic-routed pub/sub delivers only matches."""
    from repro.monitoring.consumers import MeasurementStore
    from repro.monitoring.distribution import MulticastChannel, PubSubBroker
    from repro.monitoring.measurements import ProbeAttribute, AttributeType
    from repro.monitoring.probes import DataSource, Probe
    from repro.sim.kernel import Environment

    def run(framework_cls):
        env = Environment()
        net = framework_cls(env)
        # Ten consumers, each interested in one of ten disjoint streams.
        for i in range(10):
            store = MeasurementStore()
            store.subscribe_to(net, qualified_name=f"uk.ucl.stream{i}.kpi")
        ds = DataSource(env, "ds", "svc", net)
        for i in range(10):
            ds.add_probe(Probe(
                name=f"p{i}", qualified_name=f"uk.ucl.stream{i}.kpi",
                attributes=[ProbeAttribute("v", AttributeType.INTEGER)],
                collector=lambda: (1,), data_rate_s=10))
        env.run(until=101)
        return net.bytes_published, net.bytes_delivered

    def compare():
        return run(MulticastChannel), run(PubSubBroker)

    (mc_pub, mc_del), (ps_pub, ps_del) = benchmark.pedantic(
        compare, rounds=1, iterations=1)
    print(f"\n  multicast: published={mc_pub}B delivered={mc_del}B "
          f"(amplification ×{mc_del / mc_pub:.0f})")
    print(f"  pub/sub:   published={ps_pub}B delivered={ps_del}B "
          f"(amplification ×{ps_del / ps_pub:.0f})")
    assert mc_pub == ps_pub                 # same producer traffic
    assert mc_del == 10 * mc_pub            # every member gets every packet
    assert ps_del == ps_pub                 # exactly one interested consumer


def test_dht_vnode_balance(benchmark):
    """§5.2.7 information model: virtual nodes even out the key
    distribution across DHT nodes."""
    from repro.monitoring.dht import DHTRing

    def imbalance(vnodes):
        ring = DHTRing(vnodes=vnodes)
        for i in range(6):
            ring.join(f"node-{i}")
        for i in range(3000):
            ring.put(f"/schema/probe-{i}/name", i)
        return ring.imbalance()

    def compare():
        return imbalance(1), imbalance(64)

    few, many = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\n  max/mean keys per node: 1 vnode → {few:.2f}, "
          f"64 vnodes → {many:.2f}")
    assert many < few
    assert many < 1.5


def test_bootstrap_instances_sweep(benchmark):
    """The documented rule-set completion: the bootstrap size controls how
    quickly the seed jobs start from a cold (zero-instance) cluster. One
    bootstrap instance serialises the two seeds; two runs them in parallel
    (the dedicated baseline's behaviour); more buys nothing at this stage."""

    # A seed-dominated workload (tiny refinement batches): with a large
    # batch phase the ratio rule would mask the serialisation.
    seed_bound = PolymorphSearchConfig(
        seed_durations_s=(600.0, 900.0), refinements_per_seed=4,
        refinement_mean_s=30.0, setup_s=20, gather_s=20, generate_s=5)

    def sweep():
        out = {}
        for n in (1, 2, 4):
            # Bootstrap paced at the monitoring period: without that, the
            # 30 s-stale instances KPI lets the rule overshoot the target
            # size at cold start, masking the knob entirely.
            cfg = TestbedConfig(bootstrap_instances=n,
                                bootstrap_cooldown_s=35.0)
            out[n] = run_elastic(seed_bound, cfg).turnaround_s
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n  bootstrap instances → turn-around (s):",
          {k: round(v) for k, v in results.items()})
    # One instance serialises the seeds: slower by roughly a seed length.
    assert results[1] > results[2] + 400
    # Over-bootstrapping beyond the seed parallelism doesn't speed it up
    # much further (seeds are the bottleneck, not batch capacity).
    assert abs(results[4] - results[2]) < results[2] * 0.1


def test_suspend_pool_vs_cold_deploy(benchmark):
    """VM suspend/resume (§1 "booting, suspending or shutting down systems
    as required") as a warm-standby alternative to cold deployment: resume
    skips image replication, boot and registration."""
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host, HypervisorTimings
    from repro.cloud.veem import VEEM
    from repro.cloud.vm import DeploymentDescriptor
    from repro.sim.kernel import Environment

    def latencies():
        env = Environment()
        repo = ImageRepository(bandwidth_mb_per_s=22.0)
        repo.add("exec", size_mb=4096)
        timings = HypervisorTimings(define_s=3, boot_s=50, shutdown_s=10,
                                    suspend_s=8, resume_s=6)
        veem = VEEM(env, repository=repo)
        veem.add_host(Host(env, "h0", cpu_cores=8, memory_mb=16384,
                           timings=timings))
        d = DeploymentDescriptor(
            name="exec", memory_mb=2048, cpu=1,
            disk_source=repo.get("exec").href,
            service_id="svc", component_id="exec")
        # Cold: submit → running.
        vm = veem.submit(d)
        env.run(until=vm.on_running)
        cold = vm.provisioning_time
        # Warm: suspend, then measure resume latency.
        done = {}

        def cycle(env):
            yield veem.suspend(vm)
            t0 = env.now
            yield veem.resume(vm)
            done["resume"] = env.now - t0

        env.process(cycle(env))
        env.run()
        return cold, done["resume"]

    cold, resume = benchmark.pedantic(latencies, rounds=1, iterations=1)
    print(f"\n  cold deploy: {cold:.0f}s; resume from suspend: {resume:.0f}s "
          f"({cold / resume:.0f}× faster)")
    assert resume < cold / 10
