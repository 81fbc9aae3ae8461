"""XDR wire encoding for measurements.

§5.2.6: "The current implementation is written in Java, and the output for
each type currently uses XDR. As such each type defined uses the same byte
layout for each type as defined in the XDR specification. All of this type
data is used by a measurement decoder in order to determine the actual type
and size of the next piece of data in a packet."

We implement the XDR subset (RFC 4506) the monitoring system needs: int,
hyper, float, double, bool and string — big-endian, 4-byte aligned. Each
value on the wire is prefixed by a one-byte type tag so the decoder is
self-describing at the value level, while attribute *names and units* are
deliberately NOT transmitted ("the measurement meta-data is not transmitted
each time, but is kept separately in an information model", §5.2.2) — that
is the size saving the paper's design argues for, and the ablation bench
measures it against a naive JSON encoding.

Hot-path layout
---------------
Encoding and decoding run once per packet per fabric hop, so both sides are
table-driven: module-level :class:`struct.Struct` instances (compiled once),
a tag → decoder dispatch dict, and a type → encoder dispatch dict. Two fast
paths sit on top:

* :func:`peek_header` decodes only the routing fields (qualified name +
  service id) so the distribution framework can route a packet without
  materialising a :class:`Measurement`;
* :class:`PacketEncoder` caches a probe's encoded header prefix (magic,
  version, qualified name, service id, probe id — none of which change
  between one probe's packets), so steady-state encode is prefix + seqno +
  timestamp + values. It is the only tail encoder:
  :func:`encode_measurement` is a one-off :class:`PacketEncoder`. The tail
  (seqno, timestamp, value count) is one precompiled struct, and each value
  is encoded through a table keyed on its exact Python type; anything else
  goes through :func:`encode_value`, so errors keep their type.
* the same prefix is a stream's identity on the receiving side: a fabric
  finds where it ends from the three string-length words alone
  (:func:`_prefix_end`), looks its bytes up among the prefixes the strict
  decoder already accepted, and decodes only the tail
  (:func:`_decode_stream`).

Every malformed-input path raises :class:`CodecError` — never a bare
``struct.error``, ``IndexError`` or ``UnicodeDecodeError`` — so consumers
need exactly one except clause per packet.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, NamedTuple

from .measurements import AttributeType, Measurement, _build_measurement

__all__ = [
    "CodecError",
    "PacketEncoder",
    "PacketHeader",
    "encode_value",
    "decode_value",
    "encode_measurement",
    "decode_measurement",
    "peek_header",
    "naive_json_size",
]


class CodecError(Exception):
    """Malformed wire data or unsupported value."""


#: one-byte tags identifying the XDR type of the next value
_TAGS: dict[AttributeType, int] = {
    AttributeType.INTEGER: 0x01,
    AttributeType.LONG: 0x02,
    AttributeType.FLOAT: 0x03,
    AttributeType.DOUBLE: 0x04,
    AttributeType.BOOLEAN: 0x05,
    AttributeType.STRING: 0x06,
}
_TYPES = {tag: t for t, tag in _TAGS.items()}

#: compiled wire structs, shared by every encoder/decoder
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F32 = struct.Struct(">f")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")


def _pad4(n: int) -> int:
    """Bytes of zero padding to reach 4-byte alignment (XDR rule)."""
    return (4 - n % 4) % 4


# ---------------------------------------------------------------------------
# Value encoders: AttributeType -> bytes
# ---------------------------------------------------------------------------

def _make_fixed_encoder(tag: int, packer: struct.Struct):
    prefix = bytes([tag])
    pack = packer.pack

    def encode(value: Any) -> bytes:
        return prefix + pack(value)

    return encode


_TAG_BOOL = bytes([_TAGS[AttributeType.BOOLEAN]])
_TAG_STR = bytes([_TAGS[AttributeType.STRING]])


def _encode_bool(value: Any) -> bytes:
    return _TAG_BOOL + _I32.pack(1 if value else 0)


def _encode_string(value: str) -> bytes:
    raw = value.encode("utf-8")
    return (_TAG_STR + _U32.pack(len(raw)) + raw
            + b"\x00" * _pad4(len(raw)))


_ENCODERS: dict[AttributeType, Callable[[Any], bytes]] = {
    AttributeType.INTEGER: _make_fixed_encoder(_TAGS[AttributeType.INTEGER], _I32),
    AttributeType.LONG: _make_fixed_encoder(_TAGS[AttributeType.LONG], _I64),
    AttributeType.FLOAT: _make_fixed_encoder(_TAGS[AttributeType.FLOAT], _F32),
    AttributeType.DOUBLE: _make_fixed_encoder(_TAGS[AttributeType.DOUBLE], _F64),
    AttributeType.BOOLEAN: _encode_bool,
    AttributeType.STRING: _encode_string,
}


def encode_value(value: Any, type_: AttributeType | None = None) -> bytes:
    """Encode one value as tag + XDR body."""
    t = type_ or AttributeType.for_python_value(value)
    if not t.accepts(value):
        raise CodecError(f"{value!r} is not a valid {t.value}")
    try:
        encoder = _ENCODERS[t]
    except KeyError:
        raise CodecError(f"unsupported type {t}") from None  # pragma: no cover
    try:
        return encoder(value)
    except struct.error as exc:
        raise CodecError(f"{value!r} does not fit {t.value}: {exc}") from exc


# ---------------------------------------------------------------------------
# Value decoders: tag -> (buf, offset-past-tag) -> (value, next offset)
# ---------------------------------------------------------------------------

def _make_fixed_decoder(packer: struct.Struct,
                        cast: Callable[[Any], Any] | None = None):
    unpack_from = packer.unpack_from
    size = packer.size
    if cast is None:
        def decode(buf: bytes, offset: int):
            try:
                return unpack_from(buf, offset)[0], offset + size
            except struct.error as exc:
                raise CodecError(f"truncated buffer: {exc}") from exc
    else:
        def decode(buf: bytes, offset: int):
            try:
                return cast(unpack_from(buf, offset)[0]), offset + size
            except struct.error as exc:
                raise CodecError(f"truncated buffer: {exc}") from exc
    return decode


def _decode_string(buf: bytes, offset: int):
    try:
        (length,) = _U32.unpack_from(buf, offset)
    except struct.error as exc:
        raise CodecError(f"truncated buffer: {exc}") from exc
    offset += 4
    end = offset + length
    padded_end = end + _pad4(length)
    if padded_end > len(buf):
        raise CodecError("truncated string body")
    try:
        return buf[offset:end].decode("utf-8"), padded_end
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string body: {exc}") from exc


_DECODERS: dict[int, Callable[[bytes, int], tuple[Any, int]]] = {
    _TAGS[AttributeType.INTEGER]: _make_fixed_decoder(_I32),
    _TAGS[AttributeType.LONG]: _make_fixed_decoder(_I64),
    _TAGS[AttributeType.FLOAT]: _make_fixed_decoder(_F32),
    _TAGS[AttributeType.DOUBLE]: _make_fixed_decoder(_F64),
    _TAGS[AttributeType.BOOLEAN]: _make_fixed_decoder(_I32, bool),
    _TAGS[AttributeType.STRING]: _decode_string,
}


def decode_value(buf: bytes, offset: int = 0) -> tuple[Any, int]:
    """Decode one tagged value; returns (value, next offset)."""
    try:
        decoder = _DECODERS[buf[offset]]
    except IndexError:
        raise CodecError("truncated buffer: no type tag") from None
    except KeyError:
        raise CodecError(f"unknown type tag {buf[offset]:#x}") from None
    return decoder(buf, offset + 1)


# ---------------------------------------------------------------------------
# Measurement packets
# ---------------------------------------------------------------------------

#: wire-format magic + version, guarding against stream desync
_MAGIC = b"RMON"
_VERSION = 1

#: the fixed first 8 bytes of every packet
_HEADER_PREFIX = _MAGIC + _U32.pack(_VERSION)


class PacketHeader(NamedTuple):
    """The routing fields of a packet, decoded by :func:`peek_header`."""

    qualified_name: str
    service_id: str
    #: offset of the first byte after the service id (the probe id value);
    #: a full decode can resume here without re-reading the routing fields.
    body_offset: int


def _check_preamble(buf: bytes) -> None:
    if buf[:4] != _MAGIC:
        raise CodecError("bad magic: not a measurement packet")
    try:
        (version,) = _U32.unpack_from(buf, 4)
    except struct.error as exc:
        raise CodecError("truncated header") from exc
    if version != _VERSION:
        raise CodecError(f"unsupported wire version {version}")


_STR_TAG = _TAGS[AttributeType.STRING]


def peek_header(buf: bytes) -> PacketHeader:
    """Decode just enough of a packet to route it.

    Returns the qualified name and service id without touching the probe id,
    seqno, timestamp or values — the distribution framework uses this to
    decide whether anyone wants the packet before paying for a full decode.
    """
    # Fast path: well-formed packet with in-range string routing fields,
    # parsed inline without the per-value dispatch. Any irregularity falls
    # through to the strict parse below for the precise CodecError.
    n = len(buf)
    try:
        if buf[:8] == _HEADER_PREFIX and buf[8] == _STR_TAG:
            (length,) = _U32.unpack_from(buf, 9)
            end = 13 + length
            offset = end + (-length % 4)
            if offset < n and buf[offset] == _STR_TAG:
                qname = buf[13:end].decode("utf-8")
                (length,) = _U32.unpack_from(buf, offset + 1)
                start = offset + 5
                end = start + length
                offset = end + (-length % 4)
                if offset <= n:
                    return PacketHeader(qname, buf[start:end].decode("utf-8"),
                                        offset)
    except (struct.error, UnicodeDecodeError, IndexError):
        pass
    _check_preamble(buf)
    qname, offset = decode_value(buf, 8)
    service_id, offset = decode_value(buf, offset)
    if type(qname) is not str or type(service_id) is not str:
        raise CodecError("malformed header: routing fields must be strings")
    return PacketHeader(qname, service_id, offset)


def encode_measurement(m: Measurement) -> bytes:
    """Encode a full measurement packet.

    Layout: magic, version, qualified name, service id, probe id, seqno
    (hyper), timestamp (double), value count (int), then tagged values.
    """
    return PacketEncoder(m.qualified_name, m.service_id,
                         m.probe_id).encode(m)


_LONG_TAG = _TAGS[AttributeType.LONG]
_DOUBLE_TAG = _TAGS[AttributeType.DOUBLE]

#: LONG tag + seqno, DOUBLE tag + timestamp, value count
_TAIL = struct.Struct(">BqBdI")

_I32_MAX = 2**31 - 1
_TAG_INT = bytes([_TAGS[AttributeType.INTEGER]])


def _encode_int(value: int) -> bytes:
    # for_python_value widens to LONG once abs(value) > 2**31 - 1, so
    # -2**31 travels as a hyper too; encode_value handles that side.
    if -_I32_MAX <= value <= _I32_MAX:
        return _TAG_INT + _I32.pack(value)
    return encode_value(value)


#: exact Python type -> value encoder, byte-identical to encode_value for
#: that type; PacketEncoder sends every other type through encode_value
_ENCODERS_BY_TYPE: dict[type, Callable[[Any], bytes]] = {
    int: _encode_int,
    float: _ENCODERS[AttributeType.DOUBLE],
    bool: _encode_bool,
    str: _encode_string,
}


def _identity_prefix(qualified_name: str, service_id: str,
                     probe_id: str) -> bytes:
    """The encoded identity prefix of one stream: magic, version, then the
    qualified name, service id and probe id strings, constant across the
    stream's packets."""
    return (_HEADER_PREFIX
            + encode_value(qualified_name, AttributeType.STRING)
            + encode_value(service_id, AttributeType.STRING)
            + encode_value(probe_id, AttributeType.STRING))


class PacketEncoder:
    """Per-probe encoder caching the constant header prefix.

    A probe's qualified name, service id and probe id never change between
    its packets, so the tag-prefixed XDR encoding of those three strings
    (plus magic and version) is computed once here; each :meth:`encode` call
    then appends only the per-packet fields. :func:`encode_measurement` is
    a one-off encoder, so its output is byte-identical by construction;
    tests pin both to a per-field reference encoder.
    """

    __slots__ = ("qualified_name", "service_id", "probe_id", "_prefix")

    def __init__(self, qualified_name: str, service_id: str, probe_id: str):
        self.qualified_name = qualified_name
        self.service_id = service_id
        self.probe_id = probe_id
        self._prefix = _identity_prefix(qualified_name, service_id, probe_id)

    def encode(self, m: Measurement) -> bytes:
        if (m.qualified_name != self.qualified_name
                or m.service_id != self.service_id
                or m.probe_id != self.probe_id):
            raise CodecError(
                f"measurement identity {(m.qualified_name, m.service_id, m.probe_id)!r}"
                f" does not match encoder identity "
                f"{(self.qualified_name, self.service_id, self.probe_id)!r}"
            )
        seqno, timestamp, values = m.seqno, m.timestamp, m.values
        tail = None
        if type(seqno) is int and type(timestamp) is float:
            try:
                tail = _TAIL.pack(_LONG_TAG, seqno, _DOUBLE_TAG, timestamp,
                                  len(values))
            except struct.error:
                pass  # seqno outside the hyper range
        if tail is None:
            # other types or out-of-range fields: the per-field path
            # raises the precise error (or encodes the widened value)
            tail = (encode_value(seqno, AttributeType.LONG)
                    + encode_value(timestamp, AttributeType.DOUBLE)
                    + _U32.pack(len(values)))
        encoders = _ENCODERS_BY_TYPE
        parts = [self._prefix, tail]
        for v in values:
            parts.append(encoders.get(type(v), encode_value)(v))
        return b"".join(parts)


def _decode_field(buf: bytes, offset: int, tag: int, field: str):
    """Decode one tail field that the encoder always writes as ``tag``;
    any other wire type is a :class:`CodecError` naming the field."""
    try:
        found = buf[offset]
    except IndexError:
        raise CodecError(f"truncated buffer: no {field}") from None
    if found != tag:
        raise CodecError(f"malformed {field}: expected a {_TYPES[tag].value}"
                         f" (tag {tag:#x}), found tag {found:#x}")
    return _DECODERS[tag](buf, offset + 1)


def decode_measurement(buf: bytes, *,
                       header: PacketHeader | None = None) -> Measurement:
    """Decode a packet produced by :func:`encode_measurement`.

    A caller that already routed the packet via :func:`peek_header` can pass
    that header back to resume the decode at ``body_offset`` instead of
    re-parsing the preamble and routing strings. The probe id, seqno and
    timestamp must carry the wire types the encoder writes (string, hyper,
    double).
    """
    if header is None:
        header = peek_header(buf)
    qname, service_id, offset = header
    probe_id, offset = _decode_field(buf, offset, _STR_TAG, "probe id")
    seqno, offset = _decode_field(buf, offset, _LONG_TAG, "seqno")
    timestamp, offset = _decode_field(buf, offset, _DOUBLE_TAG, "timestamp")
    try:
        (count,) = _U32.unpack_from(buf, offset)
    except struct.error as exc:
        raise CodecError("truncated value count") from exc
    offset += 4
    values = []
    for _ in range(count):
        value, offset = decode_value(buf, offset)
        values.append(value)
    try:
        return Measurement(
            qualified_name=qname, service_id=service_id, probe_id=probe_id,
            timestamp=timestamp, values=tuple(values), seqno=seqno,
        )
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed measurement fields: {exc}") from exc


_unpack_u32 = _U32.unpack_from


def _prefix_end(buf: bytes) -> int:
    """Offset just past a packet's identity prefix (magic through the probe
    id string), found from the three string-length words alone; nothing is
    decoded or checked. Raises ``struct.error`` when a length word lies past
    the end of ``buf``."""
    (length,) = _unpack_u32(buf, 9)
    end = 13 + length + (-length % 4)
    (length,) = _unpack_u32(buf, end + 1)
    end += 5 + length + (-length % 4)
    (length,) = _unpack_u32(buf, end + 1)
    return end + 5 + length + (-length % 4)


_unpack_tail = _TAIL.unpack_from
_TAIL_SIZE = _TAIL.size


def _decode_stream(buf: bytes, end: int, key: tuple[str, str],
                   probe_id: str) -> Measurement:
    """Decode a packet whose ``buf[:end]`` is an identity prefix that
    :func:`decode_measurement` accepted, with routing key ``key`` and probe
    id ``probe_id``: only the tail is parsed, and the measurement shares the
    stream's identity strings. A tail the struct cannot take re-runs
    :func:`decode_measurement`, which raises the precise :class:`CodecError`.
    """
    try:
        seqno_tag, seqno, stamp_tag, timestamp, count = _unpack_tail(buf, end)
    except struct.error:
        seqno_tag = stamp_tag = None
    if seqno_tag != _LONG_TAG or stamp_tag != _DOUBLE_TAG:
        return decode_measurement(buf)
    offset = end + _TAIL_SIZE
    if count == 1:
        values = (decode_value(buf, offset)[0],)
    else:
        values = []
        for _ in range(count):
            value, offset = decode_value(buf, offset)
            values.append(value)
        values = tuple(values)
    return _build_measurement(key[1], key[0], probe_id, timestamp, values,
                              seqno)


def naive_json_size(m: Measurement, attribute_names: list[str],
                    units: list[str]) -> int:
    """Bytes a self-describing JSON encoding would need for the same event.

    The comparison baseline for the codec-size ablation: sending names,
    units and values in every packet (what the information-model split
    avoids).
    """
    doc = {
        "qualified_name": m.qualified_name,
        "service_id": m.service_id,
        "probe_id": m.probe_id,
        "seqno": m.seqno,
        "timestamp": m.timestamp,
        "values": [
            {"name": n, "units": u, "value": v}
            for n, u, v in zip(attribute_names, units, m.values)
        ],
    }
    return len(json.dumps(doc).encode("utf-8"))
