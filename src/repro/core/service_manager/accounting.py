"""Usage accounting for deployed services.

§2 lists "accounting and billing of service usage" among the Service
Manager's tasks; the evaluation's cost metric is exactly what this module
computes: "we can at the very least rely upon resource usage as an indicator
of cost" (§6.1.3), reported in Table 3 as the time-averaged number of
execution nodes over the run and until complete shutdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...sim.kernel import Environment
from ...sim.tracing import TimeSeries

__all__ = ["UsageRecord", "ServiceAccountant"]


@dataclass(frozen=True)
class UsageRecord:
    """Aggregated usage for one component over a window."""

    component: str
    window_start: float
    window_end: float
    instance_seconds: float
    mean_instances: float
    peak_instances: float


class ServiceAccountant:
    """Tracks per-component instance counts as step-function time series."""

    def __init__(self, env: Environment, service_id: str, *,
                 tenant: Optional[str] = None):
        self.env = env
        self.service_id = service_id
        #: owning tenant for multi-tenant attribution (None = unattributed,
        #: the single-tenant seed behaviour)
        self.tenant = tenant
        #: all series are anchored here so that usage integrals over windows
        #: preceding a component's first deployment correctly read zero —
        #: a series created lazily *at* the first deployment would have its
        #: start point overwritten by the same-instant increment
        self._created_at = env.now
        self._series: dict[str, TimeSeries] = {}
        self.deployed_total: dict[str, int] = {}
        self.released_total: dict[str, int] = {}

    def _component_series(self, component: str) -> TimeSeries:
        if component not in self._series:
            self._series[component] = TimeSeries(
                f"{self.service_id}:{component}", initial=0,
                start=self._created_at)
        return self._series[component]

    # -- event hooks (called by the lifecycle manager) ------------------------
    def instance_deployed(self, component: str) -> None:
        self._component_series(component).increment(self.env.now, +1)
        self.deployed_total[component] = \
            self.deployed_total.get(component, 0) + 1

    def instance_released(self, component: str) -> None:
        series = self._component_series(component)
        if series.current <= 0:
            raise ValueError(
                f"{component}: released more instances than deployed"
            )
        series.increment(self.env.now, -1)
        self.released_total[component] = \
            self.released_total.get(component, 0) + 1

    # -- queries -----------------------------------------------------------------
    def series(self, component: str) -> Optional[TimeSeries]:
        return self._series.get(component)

    def usage(self, component: str, start: float,
              end: Optional[float] = None) -> UsageRecord:
        """Time-averaged usage over [start, end] (end defaults to now)."""
        end = self.env.now if end is None else end
        if component not in self._series:
            return UsageRecord(component, start, end, 0.0, 0.0, 0.0)
        series = self._series[component]
        instance_seconds = series.integral(start, end)
        mean = instance_seconds / (end - start) if end > start else 0.0
        peak = series.maximum(start, end) if end >= start else 0.0
        return UsageRecord(
            component=component, window_start=start, window_end=end,
            instance_seconds=instance_seconds, mean_instances=mean,
            peak_instances=peak,
        )

    def components(self) -> list[str]:
        return sorted(self._series)
