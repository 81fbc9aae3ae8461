"""Adaptive monitoring-rate control.

One of the six §5.2 requirements: "**Adaptability**: so that the monitoring
framework can adapt to varying computational and network loads in order to
not be invasive." With hundreds of probes, "it would not be effective to
have all of these probes sending data all of the time, so a mechanism is
needed that controls and manages the relevant probes."

:class:`AdaptiveRateController` watches the distribution framework's
published-byte counter and, when the measurement traffic exceeds a budget,
stretches probe periods (least-important probes first); when traffic falls
back below a restore threshold, declared rates are restored. The probe
data-rate changes flow through :meth:`DataSource.set_data_rate`, so the
information model's Table 2 entries stay current.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.kernel import Environment, Interrupt
from ..sim.tracing import TraceLog
from .distribution import DistributionFramework
from .probes import DataSource

__all__ = ["ProbePriority", "AdaptiveRateController"]

#: importance classes, throttled lowest first
ProbePriority = int
LOW, NORMAL, HIGH = 0, 1, 2


@dataclass
class _ManagedProbe:
    datasource: DataSource
    name: str
    declared_rate_s: float
    priority: ProbePriority
    throttled: bool = False


class AdaptiveRateController:
    """Keeps aggregate monitoring traffic under a byte-rate budget.

    Parameters
    ----------
    budget_bytes_per_s:
        Target ceiling for published measurement traffic, averaged over the
        controller's check period.
    throttle_factor:
        Multiplier applied to a throttled probe's period (e.g. 4.0 → a 30 s
        probe publishes every 120 s while throttled).
    restore_fraction:
        Traffic must fall below ``restore_fraction × budget`` before
        throttled probes are restored (hysteresis against flapping).
    """

    def __init__(self, env: Environment, network: DistributionFramework, *,
                 budget_bytes_per_s: float = 100.0,
                 check_period_s: float = 60.0,
                 throttle_factor: float = 4.0,
                 restore_fraction: float = 0.5,
                 trace: Optional[TraceLog] = None):
        if budget_bytes_per_s <= 0:
            raise ValueError("budget must be positive")
        if check_period_s <= 0:
            raise ValueError("check period must be positive")
        if throttle_factor <= 1:
            raise ValueError("throttle factor must exceed 1")
        if not 0 < restore_fraction < 1:
            raise ValueError("restore fraction must be in (0, 1)")
        self.env = env
        self.network = network
        self.budget_bytes_per_s = budget_bytes_per_s
        self.check_period_s = check_period_s
        self.throttle_factor = throttle_factor
        self.restore_fraction = restore_fraction
        self.trace = trace if trace is not None else TraceLog(env)
        self._managed: list[_ManagedProbe] = []
        self._last_bytes = network.bytes_published
        self._loop = None
        self.throttle_events = 0
        self.restore_events = 0

    # ------------------------------------------------------------------
    def manage(self, datasource: DataSource, probe_name: str, *,
               priority: ProbePriority = NORMAL) -> None:
        """Put one probe under the controller's authority."""
        probe = datasource.probes[probe_name]  # KeyError for unknown names
        self._managed.append(_ManagedProbe(
            datasource=datasource, name=probe_name,
            declared_rate_s=probe.data_rate_s, priority=priority,
        ))

    def manage_all(self, datasource: DataSource, *,
                   priority: ProbePriority = NORMAL) -> None:
        for name in datasource.probes:
            self.manage(datasource, name, priority=priority)

    @property
    def throttled_probes(self) -> list[str]:
        return [m.name for m in self._managed if m.throttled]

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._loop is None or not self._loop.is_alive:
            self._loop = self.env.process(self._control_loop(),
                                          name="adaptive-monitoring")

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_alive:
            self._loop.interrupt("controller stopped")
        self._loop = None

    def _control_loop(self):
        try:
            while True:
                yield self.env.timeout(self.check_period_s)
                self._adjust(self.current_rate())
        except Interrupt:
            pass

    def current_rate(self) -> float:
        """Published bytes/s since the last check (and reset the window)."""
        published = self.network.bytes_published
        rate = (published - self._last_bytes) / self.check_period_s
        self._last_bytes = published
        return rate

    def _adjust(self, rate: float) -> None:
        if rate > self.budget_bytes_per_s:
            self._throttle_one(rate)
        elif rate < self.restore_fraction * self.budget_bytes_per_s:
            self._restore_one(rate)

    def _throttle_one(self, rate: float) -> None:
        # Lowest priority first; among equals, the chattiest probe.
        candidates = [m for m in self._managed if not m.throttled]
        if not candidates:
            return
        victim = min(candidates,
                     key=lambda m: (m.priority, m.declared_rate_s))
        victim.throttled = True
        victim.datasource.set_data_rate(
            victim.name, victim.declared_rate_s * self.throttle_factor)
        self.throttle_events += 1
        self.trace.emit("adaptive-monitoring", "probe.throttled",
                        probe=victim.name, rate_bytes_s=rate,
                        new_period_s=victim.declared_rate_s
                        * self.throttle_factor)

    def _restore_one(self, rate: float) -> None:
        # Highest priority back first; reverse of throttling order.
        candidates = [m for m in self._managed if m.throttled]
        if not candidates:
            return
        chosen = max(candidates,
                     key=lambda m: (m.priority, -m.declared_rate_s))
        chosen.throttled = False
        chosen.datasource.set_data_rate(chosen.name, chosen.declared_rate_s)
        self.restore_events += 1
        self.trace.emit("adaptive-monitoring", "probe.restored",
                        probe=chosen.name, rate_bytes_s=rate,
                        period_s=chosen.declared_rate_s)
