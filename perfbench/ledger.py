"""Per-layer ledger for a traced workload run, measured from outside ``src/``.

:class:`Ledger` installs class-level wrappers on public methods at the
layer boundaries (codec, broker, rule engine, VEEM, control plane,
auditor, shard pool, metric merge, kernel drain) and a per-dispatch hook
through ``Environment.profile``. Each wrapped call is a span; a span's
*self* time is its duration minus the time covered by the spans nested in
it, so the self times of all rows never double-count and, together with
the time outside every span, sum to the traced wall-clock.

Dispatches owned by the Condor negotiator process (``<schedd>:negotiate``)
are charged to their own row from the profile hook: the hook reports each
dispatch's wall time after the fact, and the spans that closed inside it
are subtracted.

Install only for a traced run: every wrapped call pays a few hundred
nanoseconds, and the drain loop switches to its profiled copy.
"""

from __future__ import annotations

import functools
from time import perf_counter

__all__ = ["Ledger", "ROWS"]

#: Span rows, in report order.
ROWS = (
    "sim.dispatch",
    "grid.negotiate",
    "monitoring.codec.encode",
    "monitoring.publish",
    "core.rules.notify",
    "core.rules",
    "cloud.veem.submit",
    "cloud.veem.shutdown",
    "control.submit",
    "obs.audit",
    "sim.shard.spawn",
    "sim.shard.epoch",
    "sim.shard.stop",
    "sim.shard.merge",
)


class Ledger:
    """Span rows (calls, self seconds) and counters for one traced run."""

    def __init__(self) -> None:
        #: row name -> [calls, self seconds]
        self.rows: dict[str, list] = {name: [0, 0.0] for name in ROWS}
        #: plain tallies gathered at the boundaries (events, firings, ...)
        self.counts: dict[str, float] = {}
        #: open spans, innermost last; each is [child seconds, hook mark]
        self._stack: list[list] = []
        #: inclusive seconds of the outermost spans; the row self times
        #: must add up to exactly this
        self.outer_s = 0.0
        #: environments the profile hook is attached to. ``Environment``
        #: has ``__slots__`` (no ``__dict__``, no weakrefs), so the ledger
        #: tracks them itself instead of tagging the objects.
        self.envs: list = []
        #: trace logs and distribution fabrics created during the run,
        #: read once the run is over
        self.trace_logs: list = []
        self.fabrics: list = []
        #: duration of each ShardPool.epoch call, and each worker's event
        #: count from the final barrier
        self.epoch_s: list[float] = []
        self.shard_events: list[int] = []
        #: perf_counter() when the pool's final barrier returned
        self.stopped_at: float | None = None
        self._patches: list[tuple] = []

    # -- counters ----------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- spans -------------------------------------------------------------
    def _span(self, name: str, fn, *, counted: bool = True, after=None):
        stack = self._stack
        row = self.rows[name]
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ledger.count(name + ".raised")
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if counted:
                    row[0] += 1
                row[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    ledger.outer_s += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self._span(name, getattr(owner, attr), **kw))

    def _track(self, owner, into: list) -> None:
        """Record every instance ``owner.__init__`` builds."""
        init = owner.__init__

        @functools.wraps(init)
        def tracked(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)

        self._patch(owner, "__init__", tracked)

    # -- the profile hook --------------------------------------------------
    def _hook(self, event, callbacks, wall_s: float) -> None:
        # Called by the profiled drain after each dispatch. The innermost
        # open span is the Environment.run that is draining; frame[1] marks
        # how much nested span time it had before this dispatch began.
        if callbacks is None:
            return
        frame = self._stack[-1]
        owner = getattr(callbacks[0], "__self__", None)
        name = getattr(owner, "name", None)
        if isinstance(name, str) and name.endswith(":negotiate"):
            nested = frame[0] - frame[1]
            row = self.rows["grid.negotiate"]
            row[0] += 1
            row[1] += wall_s - nested
            frame[0] += wall_s - nested
            if type(event).__name__ == "Timeout":
                # The resume after the match delay runs the matching scan.
                self.count("grid.negotiations")
        frame[1] = frame[0]

    # -- installation ------------------------------------------------------
    def install(self) -> "Ledger":
        from repro.cloud.veem import VEEM
        from repro.control.plane import ControlPlane
        from repro.core.service_manager.rules import RuleInterpreter
        from repro.monitoring.codec import PacketEncoder
        from repro.monitoring.distribution import DistributionFramework
        from repro.obs.audit import TimeConstraintAuditor
        from repro.obs.metrics import MetricsRegistry
        from repro.sim.kernel import Environment
        from repro.sim.shard import ShardPool
        from repro.sim.tracing import TraceLog

        ledger = self
        env_init = Environment.__init__

        @functools.wraps(env_init)
        def env_tracked(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            if not env.reference:
                env.profile(ledger._hook)
                ledger.envs.append(env)

        self._patch(Environment, "__init__", env_tracked)
        self._wrap(Environment, "run", "sim.dispatch")
        self._wrap(PacketEncoder, "encode", "monitoring.codec.encode")
        self._wrap(DistributionFramework, "publish", "monitoring.publish")
        # A batch publish is spent inside the per-packet publishes it makes;
        # only those count as calls.
        self._wrap(DistributionFramework, "publish_many",
                   "monitoring.publish", counted=False)
        self._track(DistributionFramework, self.fabrics)
        self._wrap(RuleInterpreter, "notify", "core.rules.notify")

        def after_pass(args, fired, _elapsed):
            ledger.count("core.rules.firings", len(fired))
            ledger.count("core.rules.evaluated",
                         args[0].last_pass.get("evaluated", 0))

        self._wrap(RuleInterpreter, "evaluate_rules", "core.rules",
                   after=after_pass)
        self._wrap(VEEM, "submit", "cloud.veem.submit")
        self._wrap(VEEM, "shutdown", "cloud.veem.shutdown")
        self._wrap(ControlPlane, "submit", "control.submit")

        def after_audit(_args, report, _elapsed):
            ledger.count("obs.audit.firings", len(report.findings))

        self._wrap(TimeConstraintAuditor, "audit", "obs.audit",
                   after=after_audit)
        self._wrap(ShardPool, "__init__", "sim.shard.spawn")

        def after_epoch(_args, _reports, elapsed):
            ledger.epoch_s.append(elapsed)

        def after_stop(_args, reports, _elapsed):
            ledger.stopped_at = perf_counter()
            ledger.shard_events.extend(r.events_processed for r in reports)

        self._wrap(ShardPool, "epoch", "sim.shard.epoch", after=after_epoch)
        self._wrap(ShardPool, "stop", "sim.shard.stop", after=after_stop)
        self._wrap(MetricsRegistry, "merge_snapshot", "sim.shard.merge")
        self._track(TraceLog, self.trace_logs)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for env in self.envs:
            env.profile(None)

    # -- results -----------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        """Sum of every row's self time."""
        return sum(self_s for _calls, self_s in self.rows.values())

    def metrics(self) -> dict[str, float]:
        """The ledger's rows and tallies under the benchmark's metric names
        (times in seconds). Read once the traced run has finished."""
        rows, counts = self.rows, self.counts
        out: dict[str, float] = {}
        for name in ROWS:
            calls, self_s = rows[name]
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
        out["core.rules.passes"] = rows["core.rules"][0]
        out["grid.negotiate.dispatches"] = rows["grid.negotiate"][0]
        for name in ("core.rules.evaluated", "core.rules.firings",
                     "obs.audit.firings", "grid.negotiations"):
            out[name] = counts.get(name, 0)
        out["cloud.veem.failed"] = (counts.get("cloud.veem.submit.raised", 0)
                                    + counts.get("cloud.veem.shutdown.raised",
                                                 0))
        out["sim.events"] = sum(env.events_processed for env in self.envs)
        out["sim.dead_skipped"] = sum(env.dead_skipped for env in self.envs)
        published = sum(f.packets_published for f in self.fabrics)
        decoded = sum(f.packets_decoded for f in self.fabrics)
        out["monitoring.packets_decoded"] = decoded
        out["monitoring.decode_ratio"] = decoded / published if published else 0.0
        evaluated = out["core.rules.evaluated"]
        out["core.rules.fire_ratio"] = (out["core.rules.firings"] / evaluated
                                        if evaluated else 0.0)
        out["obs.trace.records"] = sum(len(t.records) for t in self.trace_logs)
        out["obs.trace.spans"] = sum(len(t.spans) for t in self.trace_logs)
        matched = sum(1 for t in self.trace_logs for r in t.records
                      if r.kind == "job.match")
        negotiations = out["grid.negotiations"]
        out["grid.match_yield"] = matched / negotiations if negotiations else 0.0
        epochs = sorted(self.epoch_s)
        out["sim.shard.epochs"] = len(epochs)
        out["sim.shard.first_epoch_s"] = self.epoch_s[0] if epochs else 0.0
        out["sim.shard.epoch_p50_s"] = (epochs[len(epochs) // 2]
                                        if epochs else 0.0)
        out["sim.shard.epoch_wait_s"] = (rows["sim.shard.epoch"][1]
                                         + rows["sim.shard.stop"][1])
        out["sim.shard.stop_s"] = rows["sim.shard.stop"][1]
        events = self.shard_events
        out["sim.shard.imbalance"] = (max(events) * len(events) / sum(events)
                                      if events and sum(events) else 0.0)
        return out
