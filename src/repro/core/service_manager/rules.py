"""The rule engine (RuleInterpreter) — §5.1's Drools-equivalent.

Implements the §4.2.2 OCL contract precisely:

* ``notify(e: Event)`` — incoming monitoring events are appended to the
  record store (here: latest-value per qualified name, plus the trailing
  windows the installed conditions' window operations read — a stream no
  window reads keeps only its latest sample);
* ``evaluate(qe: QualifiedElement)`` — the latest record's value, else the
  built-in time parameter of that name (§4.2.1), else the KPI's declared
  default;
* ``evaluateRules()`` — for every installed rule whose condition evaluates
  ``> 0``, the associated actions are invoked against the VEEM interface.

The store, the windows and the resolution order are the service's
:class:`~repro.monitoring.consumers.ServiceBindings`, the one reading of a
KPI that the SLA monitor and the generated validator share.

Evaluation scheduling follows §4.2.2's guidance: "it is for the
implementation to determine when the rules should be checked to fit within
particular timing constraints rather than tying checks to the reception of
any specific monitoring event" — the interpreter runs a periodic evaluation
loop whose period defaults to half the tightest rule time-constraint, so
every enabling event is acted on inside its window. A per-rule cooldown
(defaulting to the time constraint) prevents duplicate responses to one
sustained condition spike.

Incremental evaluation
----------------------

A pass no longer re-evaluates every installed rule. At install time each
rule's KPI reference list is resolved once into a KPI→rules inverted index;
``notify()`` marks the measurement's qualified name *dirty* when its values
differ from the stored latest sample's (or it is the KPI's first). A pass
then considers only:

* rules referencing a KPI dirtied since the last pass,
* *hot* rules — those whose last evaluation held (fired, was refused by the
  executor, or errored): a sustained condition must re-fire once its
  cooldown lapses even with no new measurements, and an error must keep
  surfacing in the trace, exactly as a full pass would;
* *periodic* rules — those with window operations, ``system.time.*``
  references, or no KPI references at all: their conditions can change with
  the clock alone, so they are checked on every pass.

A rule whose last evaluation was false and whose KPIs' values are
unchanged is provably still false (conditions are pure functions of
``float(latest.value)`` per KPI for non-periodic rules, and equal values
give equal floats), so skipping it cannot change the firing journal.
The evaluate-everything tree-walking engine this must match is the
differential oracle ``FullPassInterpreter`` in ``tests/oracles/rules.py``.

Idle ticks
----------

A pass with no dirty KPI, no periodic rule and every hot rule inside its
cooldown evaluates nothing. The incremental loop does not wake up for such
passes when nothing can change before the next one: up to the kernel's
``quiet_until`` no notify, install or stop can run, so it charges the idle
ticks before that bound (and before the first cooldown lapse) to the pass
counters and waits for the first grid tick at or after it (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Optional

from ...monitoring.consumers import ServiceBindings
from ...monitoring.distribution import DistributionFramework
from ...monitoring.measurements import Measurement
from ...sim.kernel import Environment, Interrupt
from ...sim.tracing import TraceLog
from ..manifest.elasticity import ElasticityAction, ElasticityRule
from ..manifest.expressions import BUILTIN_KPIS, Bindings

__all__ = ["RuleFiring", "RuleInterpreter"]

#: Executes one action; returns True if the action was actually carried out
#: (False = refused, e.g. scale-down with nothing left to remove).
ActionExecutor = Callable[[ElasticityAction, ElasticityRule], bool]


@dataclass(frozen=True)
class RuleFiring:
    """A record of one rule firing (for audits and the instruments)."""

    time: float
    rule: str
    actions_run: int


@dataclass
class _InstalledRule:
    rule: ElasticityRule
    #: install sequence — candidate sets are re-sorted by this so the
    #: incremental engine fires rules in exactly full-pass order
    seq: int
    #: the rule's KPI reference list, resolved once at install time
    refs: frozenset[str]
    #: compiled condition closure
    cond: Callable[[Bindings], float]
    #: re-evaluated every pass: window ops / time KPIs / no refs at all
    periodic: bool
    #: last evaluation held or errored — must be re-checked next pass
    hot: bool = False
    last_fired: Optional[float] = None
    firings: int = 0
    suppressed_evaluations: int = 0


class RuleInterpreter:
    """Per-service ECA engine installed by the Service Lifecycle Manager."""

    def __init__(self, env: Environment, service_id: str, *,
                 executor: ActionExecutor,
                 trace: Optional[TraceLog] = None,
                 kpi_defaults: Optional[dict[str, float]] = None):
        self.env = env
        self.service_id = service_id
        self.executor = executor
        self.trace = trace if trace is not None else TraceLog(env)
        #: what the conditions read: the latest samples, and the windows
        #: a stream is kept in from the first install of a rule that reads
        #: it through a window, as far back as its longest one (DESIGN.md §9)
        self.bindings = ServiceBindings(env, service_id, kpi_defaults)
        self._rules: dict[str, _InstalledRule] = {}
        # Sets ``_period``, the evaluation period in force: recomputed when
        # the rule set changes, read on every pass of the evaluation loop.
        self._refresh_period()
        self._loop = None
        self._seq = 0
        #: KPI qualified name → installed rules referencing it
        self._kpi_index: dict[str, list[_InstalledRule]] = {}
        #: KPIs whose latest values changed since the last evaluation pass
        self._dirty: set[str] = set()
        self._periodic: list[_InstalledRule] = []
        self._hot: dict[str, _InstalledRule] = {}
        #: live network subscriptions, cancelled by detach() on undeploy
        self._subscriptions: list = []
        #: span of the most recent measurement per indexed KPI — the causal
        #: parent for firings that measurement enables
        self._kpi_spans: dict[str, object] = {}
        self.firings: list[RuleFiring] = []
        self.evaluations = 0
        #: of those, idle passes the evaluation loop accounted without
        #: waking up (see :meth:`_jump`)
        self.ticks_jumped = 0
        #: cumulative number of per-rule condition evaluations
        self.rules_evaluated = 0
        #: cumulative number of rules skipped by the incremental pass
        self.rules_skipped = 0
        #: breakdown of the most recent pass, for validation and benches
        self.last_pass: dict[str, int] = {}
        env.metrics.add_source(self)

    def metric_rows(self):
        # The per-pass tallies stay plain ints (the evaluation pass is a
        # microsecond-scale hot path); the registry reads them as gauges.
        # A service with no elasticity rule publishes no rule-engine stream.
        if not self._rules:
            return
        labels = {"service": self.service_id}
        yield "core.rules.installed", labels, len(self._rules)
        yield "core.rules.evaluations", labels, self.evaluations
        yield "core.rules.rules_evaluated", labels, self.rules_evaluated
        yield "core.rules.rules_skipped", labels, self.rules_skipped
        yield "core.rules.ticks_jumped", labels, self.ticks_jumped
        yield "core.rules.firings", labels, len(self.firings)

    # ------------------------------------------------------------------
    # Installation (§5.1.1 step 3)
    # ------------------------------------------------------------------
    def install(self, rule: ElasticityRule) -> None:
        if rule.name in self._rules:
            raise ValueError(f"rule {rule.name!r} already installed")
        refs = rule.kpi_references()
        expression = rule.trigger.expression
        cond = expression.compile()
        periodic = (
            self.bindings.watch(expression)
            or not refs
            or not refs.isdisjoint(BUILTIN_KPIS)
        )
        installed = _InstalledRule(rule=rule, seq=self._seq, refs=refs,
                                   cond=cond, periodic=periodic)
        self._seq += 1
        self._rules[rule.name] = installed
        if periodic:
            self._periodic.append(installed)
        for name in refs:
            self._kpi_index.setdefault(name, []).append(installed)
        # A fresh rule has never been evaluated: check it on the next pass.
        self._set_hot(installed, True)
        self._refresh_period()

    def install_all(self, rules) -> None:
        for rule in rules:
            self.install(rule)

    @property
    def rules(self) -> list[ElasticityRule]:
        return [ir.rule for ir in self._rules.values()]

    @property
    def eval_period_s(self) -> float:
        return self._period

    def _refresh_period(self) -> None:
        # Called whenever the rule set changes; a running loop waits the
        # new period from its next pass on.
        if self._rules:
            self._period = min(ir.rule.trigger.time_constraint_s
                               for ir in self._rules.values()) / 2.0
        else:
            self._period = 5.0

    # ------------------------------------------------------------------
    # Monitoring input (OCL: RuleInterpreter::notify)
    # ------------------------------------------------------------------
    def notify(self, measurement: Measurement) -> None:
        if measurement.service_id != self.service_id:
            return  # multiple service instances operate independently
        previous = self.bindings.notify(measurement)
        name = measurement.qualified_name
        if name in self._kpi_index:
            # A sample repeating the stored values cannot change any
            # condition that reads only the latest values (DESIGN.md §9).
            if previous is None or previous.values != measurement.values:
                self._dirty.add(name)
            # Delivery is synchronous from the publisher's span scope, so the
            # ambient span here *is* the KPI publication — remember it as the
            # causal parent for any firing this measurement enables.
            span = self.env.current_span
            if span is not None:
                self._kpi_spans[name] = span

    def subscribe_to(self, network: DistributionFramework):
        subscription = network.subscribe(self.notify,
                                         service_id=self.service_id)
        self._subscriptions.append(subscription)
        return subscription

    def detach(self) -> None:
        """Cancel the interpreter's network subscriptions.

        Called on service undeploy so a torn-down service stops occupying
        the fabric's routing structures (and its route caches are
        invalidated)."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()

    # ------------------------------------------------------------------
    # Evaluation (OCL: RuleInterpreter::evaluateRules / evaluate)
    # ------------------------------------------------------------------
    def _set_hot(self, installed: _InstalledRule, flag: bool) -> None:
        if flag:
            if not installed.hot:
                installed.hot = True
                self._hot[installed.rule.name] = installed
        elif installed.hot:
            installed.hot = False
            del self._hot[installed.rule.name]

    def _candidates(self) -> list[_InstalledRule]:
        """The rules this pass must evaluate, in install order.

        Cost scales with the number of dirty KPIs plus hot/periodic rules,
        not with the number of installed rules.
        """
        dirty = self._dirty
        selected: dict[int, _InstalledRule] = {}
        for name in dirty:
            for installed in self._kpi_index.get(name, ()):
                selected[installed.seq] = installed
        for installed in self._periodic:
            selected[installed.seq] = installed
        for installed in self._hot.values():
            selected[installed.seq] = installed
        return [selected[seq] for seq in sorted(selected)]

    def _due(self) -> float:
        """The first instant at which a pass evaluates some rule even if no
        new input arrives: ``-inf`` while a KPI is dirty, a rule is periodic
        or a hot rule has never fired, else the earliest cooldown lapse of
        the hot rules (``inf`` when none is hot)."""
        if self._dirty or self._periodic:
            return -inf
        due = inf
        for installed in self._hot.values():
            if installed.last_fired is None:
                return -inf
            lapse = installed.last_fired + installed.rule.effective_cooldown_s
            if lapse < due:
                due = lapse
        return due

    def _charge_idle(self, passes: int) -> None:
        """Account ``passes`` incremental passes that evaluate nothing: the
        only candidates are hot rules inside their cooldown."""
        installed = len(self._rules)
        cooling = len(self._hot)
        self.evaluations += passes
        self.rules_skipped += passes * (installed - cooling)
        self.last_pass = {
            "installed": installed,
            "candidates": cooling,
            "evaluated": 0,
            "cooldown_skipped": cooling,
            "skipped": installed - cooling,
            "dirty_kpis": 0,
        }

    def evaluate_rules(self) -> list[RuleFiring]:
        """One incremental evaluation pass."""
        now = self.env.now
        if not self._dirty and now < self._due():
            self._charge_idle(1)
            return []
        self.evaluations += 1
        bindings = self.bindings
        work = self._candidates()
        dirty_kpis = len(self._dirty)
        self._dirty.clear()
        fired: list[RuleFiring] = []
        evaluated = 0
        cooldown_skipped = 0
        for installed in work:
            rule = installed.rule
            if (installed.last_fired is not None
                    and now < installed.last_fired
                    + rule.effective_cooldown_s):
                # Within cooldown: the full engine skips without evaluating,
                # so hot/cold state is untouched here too.
                cooldown_skipped += 1
                continue
            evaluated += 1
            try:
                holds = installed.cond(bindings) > 0.0
            except Exception as exc:
                self.trace.emit("rule-engine", "rule.error",
                                rule=rule.name, service=self.service_id,
                                error=str(exc))
                # The full engine re-raises (and re-traces) the error every
                # pass; keep the rule hot so the incremental one does too.
                self._set_hot(installed, True)
                continue
            if not holds:
                self._set_hot(installed, False)
                continue
            # Held: a sustained condition re-fires after its cooldown even
            # with no new measurements, so it must stay on the check list.
            self._set_hot(installed, True)
            # The firing span parents under the most recent measurement that
            # the rule references — the publication that enabled the
            # condition — making "which KPI caused this adjustment, and did
            # it land inside the time constraint?" a tree walk (§4.2.3).
            enabling = None
            for ref in installed.refs:
                span = self._kpi_spans.get(ref)
                if span is not None and (enabling is None
                                         or span.start >= enabling.start):
                    enabling = span
            firing_span = self.trace.span(
                "rule-engine", "rule.firing", parent=enabling,
                rule=rule.name, service=self.service_id,
                time_constraint_s=rule.trigger.time_constraint_s)
            actions_run = 0
            with self.trace.activate(firing_span):
                for action in rule.actions:
                    if self.executor(action, rule):
                        actions_run += 1
                        self.trace.emit(
                            "rule-engine", "elasticity.action",
                            rule=rule.name, service=self.service_id,
                            operation=action.operation.value,
                            component_ref=action.component_ref,
                        )
            if actions_run:
                installed.last_fired = now
                installed.firings += 1
                firing = RuleFiring(now, rule.name, actions_run)
                self.firings.append(firing)
                fired.append(firing)
                self.trace.close_span(firing_span, "fired",
                                      actions_run=actions_run)
            else:
                installed.suppressed_evaluations += 1
                self.trace.close_span(firing_span, "suppressed")
        self.rules_evaluated += evaluated
        self.rules_skipped += len(self._rules) - len(work)
        self.last_pass = {
            "installed": len(self._rules),
            "candidates": len(work),
            "evaluated": evaluated,
            "cooldown_skipped": cooldown_skipped,
            "skipped": len(self._rules) - len(work),
            "dirty_kpis": dirty_kpis,
        }
        return fired

    # ------------------------------------------------------------------
    # Periodic evaluation loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._loop is None or not self._loop.is_alive:
            self._loop = self.env.process(
                self._evaluation_loop(),
                name=f"rule-engine:{self.service_id}",
            )

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_alive:
            self._loop.interrupt("engine stopped")
        self._loop = None

    def _evaluation_loop(self):
        env = self.env
        try:
            delay = self._period
            while True:
                yield env.timeout(delay)
                self.evaluate_rules()
                delay = self._period
                # Only a tick due before anything else can act may start
                # a run of idle ticks; the common busy case stops here.
                if env.now + delay < env.quiet_until:
                    delay = self._jump(delay)
        except Interrupt:
            pass

    def _jump(self, period: float) -> float:
        """The wait until the next pass that can observe anything.

        The loop ticks on the grid ``now + period``, ``+ period``, ... A
        tick before :meth:`_due` and before the kernel's ``quiet_until``
        is an idle pass: no notify, install or stop can run before the
        latter, so no KPI turns dirty and no rule turns hot by then. Those
        ticks are charged here without waking up, and the loop waits for
        the first grid point at or after the bound, computed by the same
        repeated additions as the ticking timeouts, so it lands on the same
        timestamp in the same bucket position.
        """
        now = self.env.now
        bound = min(self.env.quiet_until, self._due())
        tick = now + period
        if not now < tick < bound or bound == inf:
            return period
        skipped = 0
        while tick < bound:
            skipped += 1
            tick += period
        delay = tick - now
        if now + delay != tick:
            # The grid point is not exactly ``now`` plus any one delay
            # we computed: take the next tick as usual.
            return period
        self._charge_idle(skipped)
        self.ticks_jumped += skipped
        return delay

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "firings": ir.firings,
                "suppressed": ir.suppressed_evaluations,
                "last_fired": ir.last_fired,
                "periodic": ir.periodic,
                "hot": ir.hot,
            }
            for name, ir in self._rules.items()
        }
