"""Measurements and probe data dictionaries.

§5.2.4: "The actual measurements that get sent from a probe will contain the
attribute-value fields together with a type and a timestamp, plus some
identification fields ... the consumer of the data must be able to
differentiate the arriving data into the relevant streams" — identification
relies on the qualified names of §4.2.1 (e.g.
``uk.ucl.condor.schedd.queuesize``) plus a service identifier.

§5.2.3: "The Data Dictionary defines the attributes as the names, the types
and the units of the measurements that the probe will be sending out", and
measurements carry *values only* — the meta-data lives in the information
model (§5.2.7), so the wire encoding stays small.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "AttributeType",
    "ProbeAttribute",
    "DataDictionary",
    "Measurement",
    "QualifiedName",
    "validate_qualified_name",
]

#: Qualified names are dotted identifiers: letters/digits/underscore/hyphen
#: segments separated by dots, at least two segments.
_QNAME_RE = re.compile(r"^[A-Za-z0-9_\-]+(\.[A-Za-z0-9_\-]+)+$")

QualifiedName = str


def validate_qualified_name(name: str) -> str:
    """Validate and return a KPI qualified name.

    Raises ``ValueError`` for malformed names — catching these at manifest
    parse time, not when the first measurement arrives. Every measurement
    built or decoded passes through here, so names that passed are
    memoised; a rejected name is checked again on every call.
    """
    if not isinstance(name, str):
        raise ValueError(f"malformed qualified name {name!r}")
    _check_qualified_name(name)
    return name


@functools.lru_cache(maxsize=4096)
def _check_qualified_name(name: str) -> None:
    # lru_cache does not cache a raised exception
    if not _QNAME_RE.match(name):
        raise ValueError(f"malformed qualified name {name!r}")


class AttributeType(enum.Enum):
    """Wire types for probe values, mirroring the XDR subset used (§5.2.6)."""

    INTEGER = "integer"      # XDR 32-bit signed
    LONG = "long"            # XDR 64-bit signed (hyper)
    FLOAT = "float"          # XDR single-precision
    DOUBLE = "double"        # XDR double-precision
    BOOLEAN = "boolean"      # XDR bool (int 0/1)
    STRING = "string"        # XDR variable-length opaque/ascii

    @classmethod
    def for_python_value(cls, value: Any) -> "AttributeType":
        """The natural wire type for a Python value."""
        # bool is a subclass of int — test it first.
        if isinstance(value, bool):
            return cls.BOOLEAN
        if isinstance(value, int):
            return cls.LONG if abs(value) > 2**31 - 1 else cls.INTEGER
        if isinstance(value, float):
            return cls.DOUBLE
        if isinstance(value, str):
            return cls.STRING
        raise TypeError(f"unsupported probe value type {type(value).__name__}")

    def accepts(self, value: Any) -> bool:
        """Whether a Python value can be carried as this wire type."""
        if self is AttributeType.BOOLEAN:
            return isinstance(value, bool)
        if self in (AttributeType.INTEGER, AttributeType.LONG):
            return isinstance(value, int) and not isinstance(value, bool)
        if self in (AttributeType.FLOAT, AttributeType.DOUBLE):
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is AttributeType.STRING:
            return isinstance(value, str)
        return False


@dataclass(frozen=True)
class ProbeAttribute:
    """One field a probe reports: name, wire type and units (§5.2.6)."""

    name: str
    type: AttributeType
    units: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")


#: the exact Python types each wire type accepts outright; a value of any
#: other type is judged by :meth:`AttributeType.accepts`
_EXACT_TYPES: dict[AttributeType, tuple[type, ...]] = {
    AttributeType.INTEGER: (int,),
    AttributeType.LONG: (int,),
    AttributeType.FLOAT: (float, int),
    AttributeType.DOUBLE: (float, int),
    AttributeType.BOOLEAN: (bool,),
    AttributeType.STRING: (str,),
}


@dataclass(frozen=True)
class DataDictionary:
    """The ordered attribute schema of a probe.

    "The consumers of the data can collect this information in order to
    determine what will be received" (§5.2.3). Field order matters: the wire
    format sends positional values that are re-associated via this schema.
    """

    attributes: tuple[ProbeAttribute, ...]
    #: per attribute, the exact value types it accepts without a further
    #: check (resolved once here, read on every validated sample)
    _exact_types: tuple[tuple[type, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in {names}")
        object.__setattr__(self, "_exact_types", tuple(
            _EXACT_TYPES.get(a.type, ()) for a in self.attributes))

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def validate_values(self, values: Sequence[Any]) -> None:
        """Check a value tuple against the schema; raises on mismatch."""
        if len(values) != len(self.attributes):
            raise ValueError(
                f"expected {len(self.attributes)} values, got {len(values)}"
            )
        for attr, exact, value in zip(self.attributes, self._exact_types,
                                      values):
            if type(value) not in exact and not attr.type.accepts(value):
                raise TypeError(
                    f"attribute {attr.name!r}: {value!r} is not a valid "
                    f"{attr.type.value}"
                )


@dataclass(frozen=True, slots=True)
class Measurement:
    """One monitoring event: identification + timestamp + positional values.

    ``qualified_name`` identifies the KPI stream; ``service_id`` scopes it to
    one service instance ("KPIs published within a network are tagged with a
    particular service identifier", §4.2.1); ``probe_id`` says which probe
    produced it. ``values`` align positionally with the probe's data
    dictionary.
    """

    qualified_name: QualifiedName
    service_id: str
    probe_id: str
    timestamp: float
    values: tuple[Any, ...]
    #: sequence number within the probe, for loss/ordering diagnostics
    seqno: int = 0

    def __post_init__(self) -> None:
        _check_identity(self.qualified_name, self.service_id, self.probe_id)

    @property
    def value(self) -> Any:
        """The first (often only) value — the common single-KPI case."""
        if not self.values:
            raise ValueError("measurement carries no values")
        return self.values[0]


def _check_identity(qualified_name: str, service_id: str,
                    probe_id: str) -> None:
    """Every check the public :class:`Measurement` constructor makes."""
    validate_qualified_name(qualified_name)
    if not service_id:
        raise ValueError("service_id must be non-empty")
    if not probe_id:
        raise ValueError("probe_id must be non-empty")


def _make_measurement_builder():
    """Build ``_build_measurement(qualified_name, service_id, probe_id,
    timestamp, values, seqno)``: it writes the frozen, slotted dataclass's
    slots through their member descriptors instead of running the keyword
    ``__init__`` (≈0.7 µs against ≈2 µs). It runs none of the constructor's
    checks: a data source runs :func:`_check_identity` once per probe, when
    it binds the probe (its identity never changes), and the fabric's
    stream cache holds only identities a strict decode accepted.
    """
    new = object.__new__
    slot = Measurement.__dict__
    set_qualified_name = slot["qualified_name"].__set__
    set_service_id = slot["service_id"].__set__
    set_probe_id = slot["probe_id"].__set__
    set_timestamp = slot["timestamp"].__set__
    set_values = slot["values"].__set__
    set_seqno = slot["seqno"].__set__

    def build(qualified_name: str, service_id: str, probe_id: str,
              timestamp: float, values: tuple[Any, ...],
              seqno: int) -> Measurement:
        m = new(Measurement)
        set_qualified_name(m, qualified_name)
        set_service_id(m, service_id)
        set_probe_id(m, probe_id)
        set_timestamp(m, timestamp)
        set_values(m, values)
        set_seqno(m, seqno)
        return m

    return build


_build_measurement = _make_measurement_builder()
