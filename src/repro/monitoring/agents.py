"""Application-level monitoring agents.

§4.2.1: "A service provider is expected to expose parameters of interest
through local Monitoring Agents, responsible for gathering suitable
application level measurements and communicating these to the service
management infrastructure ... The monitoring agent would be responsible for
such queries and forwarding obtained responses, bridging the gap between
application and monitoring infrastructure."

A :class:`MonitoringAgent` binds application-side value functions (e.g.
"query the Condor schedd for its queue length") to the KPI qualified names
the manifest declared, at the declared frequency. Agents can also perform
client-side aggregation ("this can be achieved by aggregating measurements at
the application level, with the monitoring agent performing such tasks",
§4.2.1) via :class:`AggregatingKPI`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..sim import Environment
from .distribution import DistributionFramework
from .infomodel import InformationModel
from .measurements import AttributeType, ProbeAttribute
from .probes import DataSource, Probe

__all__ = ["MonitoringAgent", "AggregatingKPI"]

#: Application hook returning the current KPI value (int/float/str/bool).
ValueFunction = Callable[[], Any]


class AggregatingKPI:
    """Sliding-window aggregation applied before publication.

    Wraps a raw value function; each sample enters a bounded window and the
    published value is the window's ``mean``/``min``/``max``/``last`` — the
    paper's suggested way "to limit the impact of strong fluctuations".
    """

    OPERATIONS = ("mean", "min", "max", "last")

    __slots__ = ("raw", "operation", "samples")

    def __init__(self, raw: ValueFunction, *, operation: str = "mean",
                 window: int = 5):
        if operation not in self.OPERATIONS:
            raise ValueError(
                f"operation must be one of {self.OPERATIONS}, got {operation!r}"
            )
        if window <= 0:
            raise ValueError("window must be positive")
        self.raw = raw
        self.operation = operation
        self.samples: deque[float] = deque(maxlen=window)

    def __call__(self) -> Optional[float]:
        value = self.raw()
        if value is None:
            return None
        self.samples.append(float(value))
        if self.operation == "mean":
            return sum(self.samples) / len(self.samples)
        if self.operation == "min":
            return min(self.samples)
        if self.operation == "max":
            return max(self.samples)
        return self.samples[-1]


class MonitoringAgent:
    """Publishes application KPIs under their manifest qualified names."""

    def __init__(self, env: Environment, *, service_id: str,
                 component: str, network: DistributionFramework,
                 infomodel: Optional[InformationModel] = None,
                 trace=None):
        if not component:
            raise ValueError("component must be non-empty")
        self.env = env
        self.service_id = service_id
        self.component = component
        self.datasource = DataSource(
            env, name=f"agent:{component}", service_id=service_id,
            network=network, infomodel=infomodel, trace=trace,
        )

    def expose(self, qualified_name: str, value_fn: ValueFunction, *,
               frequency_s: float = 30.0, units: str = "",
               type: AttributeType = AttributeType.INTEGER,
               aggregate: Optional[str] = None,
               window: int = 5, start: bool = True) -> Probe:
        """Expose one KPI.

        ``aggregate`` (one of ``mean``/``min``/``max``) wraps the value
        function in an :class:`AggregatingKPI` window. The value function may
        return ``None`` to skip an interval. Values are coerced to the
        declared wire type, so an application returning ``numpy`` scalars or
        a float where an int was declared does not poison the stream.
        """
        if aggregate is not None:
            value_fn = AggregatingKPI(value_fn, operation=aggregate,
                                      window=window)
        try:
            coerce = _COERCERS[type]
        except KeyError:
            raise TypeError(f"unsupported type {type}") from None

        def collector() -> Optional[tuple]:
            value = value_fn()
            if value is None:
                return None
            return (coerce(value),)

        short_name = qualified_name.rsplit(".", 1)[-1]
        probe = Probe(
            name=f"{self.component}:{qualified_name}",
            qualified_name=qualified_name,
            attributes=[ProbeAttribute(short_name, type, units)],
            collector=collector,
            data_rate_s=frequency_s,
        )
        self.datasource.add_probe(probe, start=start)
        return probe

    def stop(self) -> None:
        for name in list(self.datasource.probes):
            self.datasource.stop_probe(name)

    def emit_all_now(self) -> None:
        """Sample every exposed KPI immediately and publish as one batch."""
        self.datasource.emit_all_now()


#: declared wire type -> Python conversion, resolved once per exposed KPI
_COERCERS: dict[AttributeType, Any] = {
    AttributeType.INTEGER: int,
    AttributeType.LONG: int,
    AttributeType.FLOAT: float,
    AttributeType.DOUBLE: float,
    AttributeType.BOOLEAN: bool,
    AttributeType.STRING: str,
}
