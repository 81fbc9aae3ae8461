"""Data sources and probes.

§5.2.2: "to increase the power and flexibility of the monitoring we introduce
the concept of a data source. A data source represents an interaction and
control point within the system that encapsulates one or more probes. A probe
sends a well defined set of attributes and values to the consumers, defined
in a data dictionary. This can be done by transmitting the data out at a
predefined interval, or transmitting when some change has occurred."

Probes support the paper's control surface (Table 2): a data rate, an
``on``/``off`` switch (is the probe allowed to emit at all) and an
``active``/``inactive`` flag (is its periodic emission loop running) — this
is the mechanism by which "the management components only receive data that
is of relevance" (§5.2): probes not needed right now are turned off rather
than flooding the network.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Sequence

from ..sim import Environment, Interrupt
from .codec import PacketEncoder
from .distribution import DistributionFramework
from .measurements import (
    DataDictionary,
    Measurement,
    ProbeAttribute,
    _build_measurement,
    _check_identity,
    validate_qualified_name,
)

__all__ = ["Probe", "DataSource"]

#: A collector returns the current value tuple for a probe, or ``None`` to
#: skip this interval (nothing worth reporting).
Collector = Callable[[], Optional[Sequence[Any]]]

_probe_ids = itertools.count(1)
_datasource_ids = itertools.count(1)


class Probe:
    """One measurement stream: data dictionary + collector + emission loop."""

    def __init__(self, name: str, qualified_name: str,
                 attributes: Sequence[ProbeAttribute],
                 collector: Collector, *,
                 data_rate_s: float = 30.0):
        if not name:
            raise ValueError("probe name must be non-empty")
        if data_rate_s <= 0:
            raise ValueError("data rate must be positive")
        self.probe_id = f"probe-{next(_probe_ids)}"
        self.name = name
        self.qualified_name = validate_qualified_name(qualified_name)
        self.dictionary = DataDictionary(tuple(attributes))
        self.collector = collector
        self.data_rate_s = float(data_rate_s)
        self.on = True          # allowed to emit
        self.active = False     # emission loop currently running
        self._seq = itertools.count(1)
        self.datasource: Optional["DataSource"] = None
        self.measurements_sent = 0
        self._encoder: Optional[PacketEncoder] = None

    def take_measurement(self, env: Environment,
                         service_id: str) -> Optional[Measurement]:
        """Collect once and build the measurement (no sending)."""
        values = self.collector()
        if values is None:
            return None
        values = tuple(values)
        self.dictionary.validate_values(values)
        # the public constructor's checks, then its slots written directly
        _check_identity(self.qualified_name, service_id, self.probe_id)
        return _build_measurement(self.qualified_name, service_id,
                                  self.probe_id, env.now, values,
                                  next(self._seq))

    def encode_packet(self, measurement: Measurement) -> bytes:
        """Wire bytes for one of this probe's measurements.

        Uses a cached :class:`PacketEncoder` — the probe's qualified name,
        probe id and (per data source) service id never change, so the
        header prefix is encoded once and steady-state encode cost is the
        per-packet fields only. Output is byte-identical to
        ``encode_measurement``.
        """
        encoder = self._encoder
        if encoder is None or encoder.service_id != measurement.service_id:
            encoder = self._encoder = PacketEncoder(
                self.qualified_name, measurement.service_id, self.probe_id)
        return encoder.encode(measurement)

    def turn_on(self) -> None:
        self.on = True

    def turn_off(self) -> None:
        self.on = False


class DataSource:
    """Groups probes and drives their periodic emission (the control point).

    A data source is attached to a distribution framework; it registers its
    probes in the information model on attach and keeps the model's
    ``active``/``on`` entries current as probes change state — "this
    information model can be updated at key points in the lifecycle of a
    probe" (§5.2.2).
    """

    def __init__(self, env: Environment, name: str, service_id: str,
                 network: DistributionFramework, *,
                 infomodel: Optional["InformationModel"] = None,
                 trace: Optional[Any] = None):
        if not name:
            raise ValueError("data source name must be non-empty")
        if not service_id:
            raise ValueError("service_id must be non-empty")
        self.env = env
        self.datasource_id = f"ds-{next(_datasource_ids)}"
        self.name = name
        self.service_id = service_id
        self.network = network
        self.infomodel = infomodel
        #: Optional TraceLog: when set, every publication runs inside a
        #: ``kpi.publish`` span — the root of the causal chain that links a
        #: measurement to the elasticity actions it eventually causes.
        #: Delivery is synchronous, so consumers notified during the publish
        #: see the span as ambient and can adopt it as a parent.
        self.trace = trace
        self.probes: dict[str, Probe] = {}
        self._loops: dict[str, Any] = {}

    def _publish(self, probe: Probe, measurement: Measurement) -> None:
        packet = probe.encode_packet(measurement)
        if self.trace is None:
            self.network.publish(measurement, packet=packet)
        else:
            with self.trace.span_scope(
                    "monitoring", "kpi.publish",
                    kpi=measurement.qualified_name,
                    service=self.service_id, probe=probe.probe_id):
                self.network.publish(measurement, packet=packet)
        probe.measurements_sent += 1

    # -- probe management ---------------------------------------------------
    def add_probe(self, probe: Probe, *, start: bool = True) -> Probe:
        if probe.name in self.probes:
            raise ValueError(f"duplicate probe name {probe.name!r}")
        probe.datasource = self
        self.probes[probe.name] = probe
        if self.infomodel is not None:
            self.infomodel.register_probe(self, probe)
        if start:
            self.start_probe(probe.name)
        return probe

    def start_probe(self, name: str) -> None:
        """Begin (or resume) the periodic emission loop for a probe."""
        probe = self.probes[name]
        if probe.active:
            return
        probe.active = True
        self._loops[name] = self.env.process(
            self._emission_loop(probe), name=f"probe:{probe.probe_id}"
        )
        self._sync_infomodel(probe)

    def stop_probe(self, name: str) -> None:
        probe = self.probes[name]
        if not probe.active:
            return
        probe.active = False
        loop = self._loops.pop(name, None)
        if loop is not None and loop.is_alive:
            loop.interrupt("probe stopped")
        self._sync_infomodel(probe)

    def set_data_rate(self, name: str, data_rate_s: float) -> None:
        """Change a probe's emission period (takes effect next interval)."""
        if data_rate_s <= 0:
            raise ValueError("data rate must be positive")
        probe = self.probes[name]
        probe.data_rate_s = float(data_rate_s)
        self._sync_infomodel(probe)

    def emit_now(self, name: str) -> Optional[Measurement]:
        """Transmit-on-change path: collect and publish immediately."""
        probe = self.probes[name]
        if not probe.on:
            return None
        measurement = probe.take_measurement(self.env, self.service_id)
        if measurement is not None:
            self._publish(probe, measurement)
        return measurement

    # -- internals -----------------------------------------------------------
    def _emission_loop(self, probe: Probe):
        try:
            while probe.active:
                yield self.env.timeout(probe.data_rate_s)
                if not probe.active:
                    break
                if not probe.on:
                    continue
                measurement = probe.take_measurement(self.env, self.service_id)
                if measurement is not None:
                    self._publish(probe, measurement)
        except Interrupt:
            pass

    def _sync_infomodel(self, probe: Probe) -> None:
        if self.infomodel is not None:
            self.infomodel.update_probe_state(probe)


# Imported late to avoid a cycle (infomodel registers probes/data sources).
from .infomodel import InformationModel  # noqa: E402  (re-export for typing)
