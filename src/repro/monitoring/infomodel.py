"""The monitoring information model.

§5.2.7: "The Information Model for the Monitoring System holds all of the
data about Data Sources, Probes, and Probe Data Dictionaries present in a
running system. As Measurements are sent with only the values for the current
reading, the meta-data needs to [be] kept for lookup purposes."

The key taxonomy follows the paper's Tables 1 and 2 exactly:

========================================  =================================
Key                                       Value
========================================  =================================
``/datasource/<ds-id>/name``              data source name
``/probe/<probe-id>/datasource``          owning data source id
``/probe/<probe-id>/name``                probe name
``/probe/<probe-id>/datarate``            probe data rate
``/probe/<probe-id>/on``                  is the probe on or off
``/probe/<probe-id>/active``              is the probe active or inactive
``/schema/<probe-id>/size``               number of attributes N
``/schema/<probe-id>/<i>/name``           name of probe attribute *i*
``/schema/<probe-id>/<i>/type``           type of probe attribute *i*
``/schema/<probe-id>/<i>/units``          units of probe attribute *i*
========================================  =================================

Storage is the DHT of :mod:`repro.monitoring.dht`; consumers use
:meth:`InformationModel.elaborate` to turn a values-only measurement into the
full attribute/value/units view ("the consumer can lookup in the data
dictionary to elaborate the full attribute value set", §5.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .dht import DHTRing
from .measurements import AttributeType, DataDictionary, Measurement, ProbeAttribute

if TYPE_CHECKING:  # pragma: no cover
    from .probes import DataSource, Probe

__all__ = ["ElaboratedValue", "InformationModel"]


@dataclass(frozen=True)
class ElaboratedValue:
    """One measurement value joined with its schema metadata."""

    name: str
    type: AttributeType
    units: str
    value: Any


class InformationModel:
    """Path-taxonomy metadata store over a DHT."""

    def __init__(self, *, initial_nodes: int = 3):
        self.ring = DHTRing()
        for i in range(max(initial_nodes, 1)):
            self.ring.join(f"im-node-{i}")

    # -- registration (producer side) ---------------------------------------
    def register_datasource(self, datasource: "DataSource") -> None:
        self.ring.put(f"/datasource/{datasource.datasource_id}/name",
                      datasource.name)

    def register_probe(self, datasource: "DataSource", probe: "Probe") -> None:
        """Publish a probe's identity, control state and data dictionary."""
        self.register_datasource(datasource)
        pid = probe.probe_id
        self.ring.put(f"/probe/{pid}/datasource", datasource.datasource_id)
        self.ring.put(f"/probe/{pid}/name", probe.name)
        self.ring.put(f"/probe/{pid}/qualifiedname", probe.qualified_name)
        self.update_probe_state(probe)
        schema = probe.dictionary
        self.ring.put(f"/schema/{pid}/size", len(schema))
        for i, attr in enumerate(schema):
            self.ring.put(f"/schema/{pid}/{i}/name", attr.name)
            self.ring.put(f"/schema/{pid}/{i}/type", attr.type.value)
            self.ring.put(f"/schema/{pid}/{i}/units", attr.units)

    def update_probe_state(self, probe: "Probe") -> None:
        """Refresh the mutable control entries (Table 2 rows 2–4)."""
        pid = probe.probe_id
        self.ring.put(f"/probe/{pid}/datarate", probe.data_rate_s)
        self.ring.put(f"/probe/{pid}/on", probe.on)
        self.ring.put(f"/probe/{pid}/active", probe.active)

    def unregister_probe(self, probe: "Probe") -> None:
        pid = probe.probe_id
        for key in self.ring.keys_with_prefix(f"/probe/{pid}/"):
            self.ring.delete(key)
        for key in self.ring.keys_with_prefix(f"/schema/{pid}/"):
            self.ring.delete(key)

    # -- lookup (consumer side) ------------------------------------------------
    def datasource_of(self, probe_id: str) -> Optional[str]:
        return self.ring.get(f"/probe/{probe_id}/datasource")

    def probe_name(self, probe_id: str) -> Optional[str]:
        return self.ring.get(f"/probe/{probe_id}/name")

    def probe_state(self, probe_id: str) -> dict[str, Any]:
        return {
            "datarate": self.ring.get(f"/probe/{probe_id}/datarate"),
            "on": self.ring.get(f"/probe/{probe_id}/on"),
            "active": self.ring.get(f"/probe/{probe_id}/active"),
        }

    def schema_of(self, probe_id: str) -> Optional[DataDictionary]:
        size = self.ring.get(f"/schema/{probe_id}/size")
        if size is None:
            return None
        attributes = []
        for i in range(size):
            name = self.ring.get(f"/schema/{probe_id}/{i}/name")
            type_value = self.ring.get(f"/schema/{probe_id}/{i}/type")
            units = self.ring.get(f"/schema/{probe_id}/{i}/units", "")
            if name is None or type_value is None:
                return None  # incomplete registration
            attributes.append(ProbeAttribute(
                name=name, type=AttributeType(type_value), units=units,
            ))
        return DataDictionary(tuple(attributes))

    def elaborate(self, measurement: Measurement) -> list[ElaboratedValue]:
        """Join a values-only measurement with its schema (§5.2.3)."""
        schema = self.schema_of(measurement.probe_id)
        if schema is None:
            raise KeyError(
                f"probe {measurement.probe_id!r} has no registered schema"
            )
        if len(measurement.values) != len(schema):
            raise ValueError(
                f"measurement carries {len(measurement.values)} values but "
                f"schema defines {len(schema)} attributes"
            )
        return [
            ElaboratedValue(name=attr.name, type=attr.type, units=attr.units,
                            value=value)
            for attr, value in zip(schema, measurement.values)
        ]

    def known_probes(self) -> list[str]:
        """All registered probe ids (scatter/gather over the ring)."""
        ids = set()
        for key in self.ring.keys_with_prefix("/probe/"):
            ids.add(key.split("/")[2])
        return sorted(ids)
