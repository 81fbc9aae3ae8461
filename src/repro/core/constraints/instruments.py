"""Generated monitoring instruments (§4.2.3).

"We can assist in identifying and flagging such errors by programmatically
generating monitoring instruments which will validate run-time constraints
... These are currently of two forms. The first is simply responsible for
gathering and reporting the values of specific KPIs described in the
manifest. The second will validate the correct enforcement of elasticity
rules by evaluating incoming monitoring events and verifying where
appropriate that suitable adjustment operations were invoked by matching
entries and time frames in infrastructural logs."

The UCL-MDA tool emitted Java; here the "generation" step takes a manifest
and returns live instrument objects bound to the monitoring network and the
infrastructure trace log — the behaviourally equivalent artefact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

from ...monitoring.consumers import MeasurementJournal, ServiceBindings
from ...monitoring.distribution import DistributionFramework
from ...sim.tracing import TraceLog
from ..manifest.model import ServiceManifest
from .framework import Violation

__all__ = ["KPIReport", "KPIReporter", "EnforcementFinding",
           "ElasticityEnforcementValidator", "generate_instruments"]


@dataclass
class KPIReport:
    """Summary of one KPI stream's observed behaviour."""

    qualified_name: str
    declared_frequency_s: float
    events: int
    first_seen: Optional[float]
    last_seen: Optional[float]
    last_value: Optional[float]
    mean_interval_s: Optional[float]

    @property
    def silent(self) -> bool:
        return self.events == 0

    def frequency_ok(self) -> bool:
        """Observed publication period within ±50% of declared."""
        if self.mean_interval_s is None:
            return not self.silent
        declared = self.declared_frequency_s
        return abs(self.mean_interval_s - declared) <= 0.5 * declared


class KPIReporter:
    """Instrument #1: gathers and reports manifest-declared KPI streams."""

    def __init__(self, manifest: ServiceManifest, service_id: str,
                 network: DistributionFramework):
        if manifest.application is None:
            raise ValueError("manifest declares no application description")
        self.manifest = manifest
        self.service_id = service_id
        self.journal = MeasurementJournal()
        self._subscriptions = [
            network.subscribe(self.journal.notify, service_id=service_id,
                              qualified_name=kpi.qualified_name)
            for kpi in manifest.application.all_kpis()
        ]

    def detach(self) -> None:
        """Cancel this instrument's network subscriptions."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()

    def report(self) -> list[KPIReport]:
        reports = []
        for kpi in self.manifest.application.all_kpis():
            stream = self.journal.stream(self.service_id, kpi.qualified_name)
            if stream:
                intervals = [
                    b.timestamp - a.timestamp
                    for a, b in zip(stream, stream[1:])
                ]
                mean_interval = (sum(intervals) / len(intervals)
                                 if intervals else None)
                reports.append(KPIReport(
                    qualified_name=kpi.qualified_name,
                    declared_frequency_s=kpi.frequency_s,
                    events=len(stream),
                    first_seen=stream[0].timestamp,
                    last_seen=stream[-1].timestamp,
                    last_value=float(stream[-1].value),
                    mean_interval_s=mean_interval,
                ))
            else:
                reports.append(KPIReport(
                    qualified_name=kpi.qualified_name,
                    declared_frequency_s=kpi.frequency_s,
                    events=0, first_seen=None, last_seen=None,
                    last_value=None, mean_interval_s=None,
                ))
        return reports


@dataclass(frozen=True)
class EnforcementFinding:
    """One reconstructed rule-evaluation instant and its verdict."""

    rule: str
    held_at: float
    deadline: float
    action_at: Optional[float]
    verdict: str  # "enforced", "missed", "cooldown"


class ElasticityEnforcementValidator:
    """Instrument #2: replay monitoring events, verify actions followed.

    The validator reconstructs the rule interpreter's view: it replays the
    journal's events in time order into the same
    :class:`~repro.monitoring.consumers.ServiceBindings` the interpreter
    reads, its clock the replayed instant, evaluates each rule whenever one
    of its KPIs updates, and — where the condition held — looks for a
    matching ``elasticity.action`` entry in the infrastructure log within
    the rule's time constraint. A holding condition inside the rule's
    cooldown window after a firing is excused.
    """

    def __init__(self, manifest: ServiceManifest, service_id: str,
                 journal: MeasurementJournal, trace: TraceLog):
        self.manifest = manifest
        self.service_id = service_id
        self.journal = journal
        self.trace = trace

    def _action_times(self, rule_name: str) -> list[float]:
        return [
            r.time for r in self.trace.query(kind="elasticity.action")
            if r.details.get("rule") == rule_name
            and r.details.get("service") == self.service_id
        ]

    def _refusal_times(self, rule_name: str) -> list[float]:
        """Times the Service Manager evaluated the rule and *refused* the
        action (e.g. instance bounds already reached because the gating KPI
        was stale). A logged refusal is a timely response, not a miss."""
        return [
            r.time for r in self.trace.query(kind="action.refused")
            if r.details.get("rule") == rule_name
            and r.details.get("service") == self.service_id
        ]

    def findings(self) -> list[EnforcementFinding]:
        events = sorted(
            (m for m in self.journal if m.service_id == self.service_id),
            key=lambda m: (m.timestamp, m.seqno),
        )
        defaults = self.manifest.kpi_defaults()
        findings: list[EnforcementFinding] = []
        for rule in self.manifest.elasticity_rules:
            relevant = rule.kpi_references()
            actions = self._action_times(rule.name)
            refusals = self._refusal_times(rule.name)
            tc = rule.trigger.time_constraint_s
            cooldown = rule.effective_cooldown_s
            replay = SimpleNamespace(now=0.0)
            bindings = ServiceBindings(replay, self.service_id, defaults)
            bindings.watch(rule.trigger.expression)
            # Group same-timestamp events: the interpreter never observes a
            # half-applied instant, so the replay must apply all simultaneous
            # updates before judging the condition.
            index = 0
            while index < len(events):
                t = replay.now = events[index].timestamp
                group_relevant = False
                while index < len(events) and events[index].timestamp == t:
                    event = events[index]
                    bindings.notify(event)
                    if event.qualified_name in relevant:
                        group_relevant = True
                    index += 1
                if not group_relevant:
                    continue
                try:
                    holds = rule.trigger.expression.holds(bindings)
                except Exception:
                    continue  # not yet evaluable — matches interpreter
                if not holds:
                    continue
                action_at = next(
                    (a for a in actions if t <= a <= t + tc), None)
                if action_at is not None:
                    verdict = "enforced"
                elif any(a <= t <= a + cooldown for a in actions):
                    # Held inside the cooldown after any firing — also one
                    # a clock-driven rule made between samples.
                    verdict = "cooldown"
                elif any(t <= r <= t + tc for r in refusals):
                    verdict = "refused"
                else:
                    verdict = "missed"
                findings.append(EnforcementFinding(
                    rule=rule.name, held_at=t, deadline=t + tc,
                    action_at=action_at, verdict=verdict,
                ))
        return findings

    def violations(self) -> list[Violation]:
        return [
            Violation(
                constraint="elasticity-enforcement",
                message=(
                    f"rule {f.rule!r} held at t={f.held_at:.1f} but no "
                    f"action was invoked by t={f.deadline:.1f}"
                ),
                context={"rule": f.rule, "held_at": f.held_at},
            )
            for f in self.findings() if f.verdict == "missed"
        ]

    def summary(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for f in self.findings():
            per_rule = out.setdefault(
                f.rule, {"enforced": 0, "cooldown": 0, "refused": 0,
                         "missed": 0})
            per_rule[f.verdict] += 1
        return out


@dataclass
class GeneratedInstruments:
    """Everything §4.2.3's generator produces for one manifest."""

    reporter: KPIReporter
    validator_factory: "_ValidatorFactory" = field(repr=False, default=None)

    def validator(self, trace: TraceLog) -> ElasticityEnforcementValidator:
        return self.validator_factory(trace)


class _ValidatorFactory:
    def __init__(self, manifest: ServiceManifest, service_id: str,
                 journal: MeasurementJournal):
        self.manifest = manifest
        self.service_id = service_id
        self.journal = journal

    def __call__(self, trace: TraceLog) -> ElasticityEnforcementValidator:
        return ElasticityEnforcementValidator(
            self.manifest, self.service_id, self.journal, trace)


def generate_instruments(manifest: ServiceManifest, service_id: str,
                         network: DistributionFramework
                         ) -> GeneratedInstruments:
    """The §4.2.3 generation step: manifest → live instruments.

    The reporter (and the journal that feeds the validator) subscribe to the
    network immediately, so generate the instruments before deploying the
    service if full coverage from t=0 is wanted.
    """
    reporter = KPIReporter(manifest, service_id, network)
    return GeneratedInstruments(
        reporter=reporter,
        validator_factory=_ValidatorFactory(
            manifest, service_id, reporter.journal),
    )
