"""Automated monitoring and protection of service-level obligations.

The runtime half of the §8 future-work item: the manifest's SLA section
(:mod:`repro.core.manifest.sla`) declares the obligations; this monitor
evaluates them against live monitoring data, assesses compliance over
sliding windows, accrues penalties on breaches, and invokes *protection
hooks* so the provider can react (e.g. force a scale-up) before or as an
obligation is breached — "automated monitoring and protection of service
level obligations based on defined semantic constraints".

An objective reads its KPIs as an elasticity rule does: through the
service's :class:`~repro.monitoring.consumers.ServiceBindings`, so the
latest sample, the built-in time parameters (§4.2.1), the declared defaults
and the trailing windows mean the same to both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..monitoring.consumers import ServiceBindings
from ..monitoring.distribution import DistributionFramework
from ..monitoring.measurements import Measurement
from ..sim.kernel import Environment, Interrupt
from ..sim.tracing import TraceLog
from .manifest.sla import SLASection, ServiceLevelObjective

__all__ = ["SLOSample", "SLOBreach", "SLAMonitor"]


@dataclass(frozen=True)
class SLOSample:
    """One periodic evaluation of an objective."""

    time: float
    slo: str
    held: bool


@dataclass(frozen=True)
class SLOBreach:
    """An assessment window that ended below the target compliance."""

    time: float
    slo: str
    compliance: float
    target: float
    penalty: float


@dataclass
class _ObjectiveState:
    slo: ServiceLevelObjective
    samples: list[SLOSample] = field(default_factory=list)
    breaches: list[SLOBreach] = field(default_factory=list)
    #: end of the last assessed window (assessments don't overlap)
    last_assessed: float = 0.0
    loop: object = None


#: Protection hook: called with (objective, compliance) when a window
#: breaches; returning True means "handled" (logged as protected).
ProtectionHook = Callable[[ServiceLevelObjective, float], bool]


class SLAMonitor:
    """Evaluates a service's SLA section against its monitoring streams."""

    def __init__(self, env: Environment, service_id: str, sla: SLASection, *,
                 trace: Optional[TraceLog] = None,
                 kpi_defaults: Optional[dict[str, float]] = None):
        self.env = env
        self.service_id = service_id
        self.sla = sla
        self.trace = trace if trace is not None else TraceLog(env)
        #: what the objectives read, their windows watched from the start
        self.bindings = ServiceBindings(env, service_id, kpi_defaults)
        for slo in sla:
            self.bindings.watch(slo.expression)
        self._states = {slo.name: _ObjectiveState(slo) for slo in sla}
        self._hooks: list[ProtectionHook] = []
        self._subscriptions: list = []
        self._started = False
        # Gauges over the sample/breach lists — zero cost on the
        # evaluation path, live totals in the unified metrics registry.
        env.metrics.add_source(self)

    def metric_rows(self):
        labels = {"service": self.service_id}
        states = self._states.values()
        yield "core.sla.samples", labels, sum(len(s.samples) for s in states)
        yield ("core.sla.breaches", labels,
               sum(len(s.breaches) for s in states))
        yield "core.sla.penalties_accrued", labels, self.penalties_accrued

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def subscribe_to(self, network: DistributionFramework):
        subscription = network.subscribe(self.notify,
                                         service_id=self.service_id)
        self._subscriptions.append(subscription)
        return subscription

    def detach(self) -> None:
        """Cancel this monitor's network subscriptions (service teardown)."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()

    def notify(self, measurement: Measurement) -> None:
        if measurement.service_id != self.service_id:
            return
        self.bindings.notify(measurement)

    def add_protection_hook(self, hook: ProtectionHook) -> None:
        self._hooks.append(hook)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for state in self._states.values():
            state.last_assessed = self.env.now
            state.loop = self.env.process(
                self._objective_loop(state),
                name=f"slo:{self.service_id}:{state.slo.name}",
            )

    def stop(self) -> None:
        for state in self._states.values():
            if state.loop is not None and state.loop.is_alive:
                state.loop.interrupt("sla monitor stopped")
            state.loop = None
        self._started = False

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def sample(self, name: str) -> SLOSample:
        """Evaluate one objective now (also used by the periodic loop)."""
        state = self._states[name]
        try:
            held = state.slo.expression.holds(self.bindings)
        except Exception:
            # Not yet evaluable (no data, no default): treated as held —
            # obligations begin once the service actually reports.
            held = True
        sample = SLOSample(self.env.now, name, held)
        state.samples.append(sample)
        if not held:
            self.trace.emit("sla", "slo.violated", slo=name,
                            service=self.service_id)
        return sample

    def _objective_loop(self, state: _ObjectiveState):
        slo = state.slo
        try:
            while True:
                yield self.env.timeout(slo.evaluation_period_s)
                self.sample(slo.name)
                if self.env.now >= state.last_assessed + slo.assessment_window_s:
                    self._assess(state)
        except Interrupt:
            pass

    def _assess(self, state: _ObjectiveState) -> None:
        slo = state.slo
        window_start = state.last_assessed
        window_end = self.env.now
        samples = [s for s in state.samples
                   if window_start < s.time <= window_end]
        state.last_assessed = window_end
        if not samples:
            return
        compliance = sum(1 for s in samples if s.held) / len(samples)
        if compliance >= slo.target_compliance:
            self.trace.emit("sla", "slo.window.ok", slo=slo.name,
                            service=self.service_id, compliance=compliance)
            return
        breach = SLOBreach(
            time=window_end, slo=slo.name, compliance=compliance,
            target=slo.target_compliance, penalty=slo.penalty_per_breach,
        )
        state.breaches.append(breach)
        self.trace.emit("sla", "slo.breach", slo=slo.name,
                        service=self.service_id, compliance=compliance,
                        penalty=slo.penalty_per_breach)
        for hook in self._hooks:
            try:
                if hook(slo, compliance):
                    self.trace.emit("sla", "slo.protected", slo=slo.name,
                                    service=self.service_id)
                    break
            except Exception as exc:
                self.trace.emit("sla", "slo.protection.failed", slo=slo.name,
                                service=self.service_id, error=str(exc))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def compliance(self, name: str, *, since: float = 0.0) -> Optional[float]:
        """Held-fraction of all samples since ``since`` (None if none)."""
        samples = [s for s in self._states[name].samples if s.time >= since]
        if not samples:
            return None
        return sum(1 for s in samples if s.held) / len(samples)

    def breaches(self, name: Optional[str] = None) -> list[SLOBreach]:
        if name is not None:
            return list(self._states[name].breaches)
        return sorted(
            (b for s in self._states.values() for b in s.breaches),
            key=lambda b: b.time,
        )

    @property
    def penalties_accrued(self) -> float:
        return sum(b.penalty for b in self.breaches())

    def statement(self) -> dict[str, dict]:
        """Per-objective summary — the basis of a periodic SLA statement."""
        out = {}
        for name, state in self._states.items():
            out[name] = {
                "samples": len(state.samples),
                "compliance": self.compliance(name),
                "breaches": len(state.breaches),
                "penalties": sum(b.penalty for b in state.breaches),
                "target": state.slo.target_compliance,
            }
        return out
