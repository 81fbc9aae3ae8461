"""Tests for measurements, qualified names and the XDR codec."""

import enum
import fractions
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.codec import (
    CodecError,
    PacketEncoder,
    decode_measurement,
    decode_value,
    encode_measurement,
    encode_value,
    naive_json_size,
    peek_header,
)
from repro.monitoring.measurements import (
    AttributeType,
    DataDictionary,
    Measurement,
    ProbeAttribute,
    validate_qualified_name,
)


# ---------------------------------------------------------------------------
# Qualified names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "uk.ucl.condor.schedd.queuesize",
    "com.sap.webdispatcher.kpis.sessions",
    "a.b",
    "x-1.y_2.z3",
])
def test_valid_qualified_names(name):
    assert validate_qualified_name(name) == name


@pytest.mark.parametrize("name", [
    "", "single", ".leading", "trailing.", "two..dots", "sp ace.x", None, 42,
])
def test_invalid_qualified_names(name):
    with pytest.raises((ValueError, TypeError)):
        validate_qualified_name(name)


class _Name(str):
    pass


def test_qualified_name_memo_rejects_on_every_call():
    """Valid names are memoised; a rejected name is checked again and
    raises on every call, and a non-str never reaches the memo."""
    good = "uk.ucl.memo.kpi"
    for _ in range(3):
        assert validate_qualified_name(good) is good
        for bad in ("single", "two..dots", "", None, 42, b"uk.ucl.bytes",
                    ("uk.ucl.tuple",)):
            with pytest.raises(ValueError):
                validate_qualified_name(bad)
    # an equal str subclass passes and is returned as given
    name = _Name(good)
    assert validate_qualified_name(name) is name
    with pytest.raises(ValueError):
        validate_qualified_name(_Name("single"))


# ---------------------------------------------------------------------------
# AttributeType
# ---------------------------------------------------------------------------

def test_type_inference():
    assert AttributeType.for_python_value(True) is AttributeType.BOOLEAN
    assert AttributeType.for_python_value(5) is AttributeType.INTEGER
    assert AttributeType.for_python_value(2**40) is AttributeType.LONG
    assert AttributeType.for_python_value(1.5) is AttributeType.DOUBLE
    assert AttributeType.for_python_value("x") is AttributeType.STRING
    with pytest.raises(TypeError):
        AttributeType.for_python_value([1, 2])


def test_type_accepts():
    assert AttributeType.INTEGER.accepts(5)
    assert not AttributeType.INTEGER.accepts(True)  # bool is not an int here
    assert AttributeType.DOUBLE.accepts(5)          # ints widen to double
    assert AttributeType.BOOLEAN.accepts(False)
    assert not AttributeType.STRING.accepts(5)


# ---------------------------------------------------------------------------
# DataDictionary
# ---------------------------------------------------------------------------

def test_dictionary_rejects_duplicates():
    attr = ProbeAttribute("q", AttributeType.INTEGER)
    with pytest.raises(ValueError):
        DataDictionary((attr, attr))


def test_dictionary_validate_values():
    d = DataDictionary((
        ProbeAttribute("count", AttributeType.INTEGER, "jobs"),
        ProbeAttribute("load", AttributeType.DOUBLE, "ratio"),
    ))
    d.validate_values((5, 0.7))
    with pytest.raises(ValueError):
        d.validate_values((5,))
    with pytest.raises(TypeError):
        d.validate_values(("five", 0.7))


class _Level(enum.IntEnum):
    LOW = 1
    HUGE = 2**40


class _Ratio(float):
    pass


#: values of every kind a collector might hand a probe, accepted or not
_SAMPLE_VALUES = [
    0, 1, -7, 2**31 - 1, -(2**31), 2**31, 2**63, True, False, 0.5, -0.0,
    float("nan"), float("inf"), "", "busy", "\U0001f4a1", _Level.LOW,
    _Level.HUGE, _Name("label"), _Ratio(2.5), fractions.Fraction(1, 3),
    None, [1], b"raw", 1j,
]


@pytest.mark.parametrize("type_", list(AttributeType))
def test_validate_values_agrees_with_accepts(type_):
    """The exact-type fast check resolves to the same verdict as
    ``AttributeType.accepts`` for every value."""
    schema = DataDictionary((ProbeAttribute("first", AttributeType.STRING),
                             ProbeAttribute("probed", type_)))
    for value in _SAMPLE_VALUES:
        if type_.accepts(value):
            schema.validate_values(("ok", value))
        else:
            with pytest.raises(TypeError):
                schema.validate_values(("ok", value))


def test_probe_attribute_validation():
    with pytest.raises(ValueError):
        ProbeAttribute("", AttributeType.INTEGER)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def make_measurement(**kw):
    kw.setdefault("qualified_name", "uk.ucl.condor.schedd.queuesize")
    kw.setdefault("service_id", "svc-1")
    kw.setdefault("probe_id", "probe-1")
    kw.setdefault("timestamp", 123.5)
    kw.setdefault("values", (7,))
    return Measurement(**kw)


def test_measurement_validation():
    with pytest.raises(ValueError):
        make_measurement(qualified_name="notdotted")
    with pytest.raises(ValueError):
        make_measurement(service_id="")
    with pytest.raises(ValueError):
        make_measurement(probe_id="")


def test_measurement_value_shorthand():
    assert make_measurement(values=(9, 2)).value == 9
    with pytest.raises(ValueError):
        _ = make_measurement(values=()).value


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [0, 1, -1, 2**31 - 1, -(2**31), 2**62, True,
                                   False, 0.0, -3.25, "hello", "", "ünïcødé",
                                   "x" * 1000])
def test_value_round_trip(value):
    buf = encode_value(value)
    decoded, offset = decode_value(buf)
    assert decoded == value
    assert type(decoded) is type(value)
    assert offset == len(buf)


def test_string_padding_is_4_byte_aligned():
    for s in ("", "a", "ab", "abc", "abcd"):
        buf = encode_value(s)
        # tag byte + 4-byte length + padded body
        assert (len(buf) - 1) % 4 == 0


def test_float_single_precision_lossy_but_close():
    buf = encode_value(1.234567, AttributeType.FLOAT)
    decoded, _ = decode_value(buf)
    assert decoded == pytest.approx(1.234567, rel=1e-6)


def test_decode_errors():
    with pytest.raises(CodecError):
        decode_value(b"")
    with pytest.raises(CodecError):
        decode_value(b"\xff\x00\x00\x00\x00")  # unknown tag
    with pytest.raises(CodecError):
        decode_value(b"\x01\x00")  # truncated int
    truncated_string = encode_value("hello")[:-3]
    with pytest.raises(CodecError):
        decode_value(truncated_string)


def test_encode_type_mismatch():
    with pytest.raises(CodecError):
        encode_value("text", AttributeType.INTEGER)


# ---------------------------------------------------------------------------
# Measurement codec
# ---------------------------------------------------------------------------

def test_measurement_round_trip():
    m = make_measurement(values=(7, 0.5, "busy", True), seqno=42)
    out = decode_measurement(encode_measurement(m))
    assert out == m


def test_measurement_bad_magic():
    with pytest.raises(CodecError):
        decode_measurement(b"XXXX" + b"\x00" * 20)


def test_measurement_bad_version():
    buf = bytearray(encode_measurement(make_measurement()))
    buf[7] = 99
    with pytest.raises(CodecError):
        decode_measurement(bytes(buf))


def test_measurement_truncated():
    buf = encode_measurement(make_measurement())
    with pytest.raises(CodecError):
        decode_measurement(buf[: len(buf) - 2])


@given(
    values=st.lists(
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            st.booleans(),
            st.text(max_size=50),
        ),
        max_size=8,
    ),
    seqno=st.integers(min_value=0, max_value=2**31),
    timestamp=st.floats(min_value=0, max_value=1e12),
)
@settings(max_examples=200)
def test_measurement_round_trip_property(values, seqno, timestamp):
    m = make_measurement(values=tuple(values), seqno=seqno,
                         timestamp=timestamp)
    out = decode_measurement(encode_measurement(m))
    assert out.qualified_name == m.qualified_name
    assert out.seqno == m.seqno
    assert out.timestamp == m.timestamp
    assert len(out.values) == len(m.values)
    for a, b in zip(out.values, m.values):
        if isinstance(b, float) and math.isnan(b):
            assert math.isnan(a)
        else:
            assert a == b


# ---------------------------------------------------------------------------
# Header peek
# ---------------------------------------------------------------------------

def test_peek_header_matches_full_decode():
    m = make_measurement(values=(7, 0.5, "busy", True), seqno=42)
    buf = encode_measurement(m)
    header = peek_header(buf)
    assert header.qualified_name == m.qualified_name
    assert header.service_id == m.service_id
    # body_offset points at the probe id value
    probe_id, _ = decode_value(buf, header.body_offset)
    assert probe_id == m.probe_id


def test_peek_header_bad_magic():
    with pytest.raises(CodecError):
        peek_header(b"XXXX" + b"\x00" * 20)


def test_peek_header_bad_version():
    buf = bytearray(encode_measurement(make_measurement()))
    buf[7] = 99
    with pytest.raises(CodecError):
        peek_header(bytes(buf))


def test_peek_header_truncated():
    buf = encode_measurement(make_measurement())
    with pytest.raises(CodecError):
        peek_header(buf[:6])


# ---------------------------------------------------------------------------
# Cached-prefix PacketEncoder
# ---------------------------------------------------------------------------

def reference_encode(m):
    """The per-field packet encoder: every field through ``encode_value``.
    The type-resolved fast path must match it byte for byte, or raise the
    same exception type."""
    parts = [
        b"RMON" + struct.pack(">I", 1),
        encode_value(m.qualified_name),
        encode_value(m.service_id),
        encode_value(m.probe_id),
        encode_value(m.seqno, AttributeType.LONG),
        encode_value(m.timestamp, AttributeType.DOUBLE),
        struct.pack(">I", len(m.values)),
    ]
    parts.extend(encode_value(v) for v in m.values)
    return b"".join(parts)


def _outcome(encode, m):
    try:
        return encode(m)
    except Exception as exc:  # the type is what must agree
        return type(exc)


def test_packet_encoder_byte_identical():
    m = make_measurement(values=(7, 0.5, "büsy", True), seqno=42)
    enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
    assert enc.encode(m) == reference_encode(m) == encode_measurement(m)
    # steady state: only per-packet fields change, prefix is reused
    m2 = make_measurement(values=(8, -1.25, "", False), seqno=43,
                          timestamp=999.0)
    assert enc.encode(m2) == reference_encode(m2) == encode_measurement(m2)


def test_packet_encoder_edge_values_match_reference():
    """Every sample value under every edge seqno, deterministically: the
    property test below draws these edges only some of the time."""
    for seqno in (0, 2**63 - 1, -(2**63), 2**63, True):
        for value in _SAMPLE_VALUES:
            m = make_measurement(values=(value,), seqno=seqno)
            expected = _outcome(reference_encode, m)
            enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
            assert _outcome(enc.encode, m) == expected, (seqno, value)
            assert _outcome(encode_measurement, m) == expected, (seqno, value)


def test_packet_encoder_rejects_identity_mismatch():
    m = make_measurement()
    enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
    stranger = make_measurement(probe_id="probe-other")
    with pytest.raises(CodecError):
        enc.encode(stranger)


@given(
    values=st.lists(
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.sampled_from([2**31 - 1, -(2**31 - 1), 2**31, -(2**31),
                             2**63, _Level.LOW, _Level.HUGE]),
            st.floats(width=64),  # NaN and both infinities included
            st.booleans(),
            st.text(max_size=40),  # includes non-ASCII and non-BMP chars
            st.text(st.characters(min_codepoint=0x10000), max_size=4),
            st.sampled_from([None, b"raw", _Name("label"), _Ratio(0.25)]),
        ),
        max_size=8,
    ),
    seqno=st.one_of(st.integers(min_value=0, max_value=2**31),
                    st.sampled_from([True, False, 2**63, -(2**63) - 1])),
    timestamp=st.one_of(st.floats(min_value=0, max_value=1e12),
                        st.sampled_from([math.inf, math.nan, 7])),
)
@settings(max_examples=300)
def test_packet_encoder_byte_identical_property(values, seqno, timestamp):
    m = make_measurement(values=tuple(values), seqno=seqno,
                         timestamp=timestamp)
    expected = _outcome(reference_encode, m)
    enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
    assert _outcome(enc.encode, m) == expected
    assert _outcome(encode_measurement, m) == expected


# ---------------------------------------------------------------------------
# Mistyped tail fields: the encoder writes the probe id as a string, the
# seqno as a hyper and the timestamp as a double, and nothing else decodes.
# ---------------------------------------------------------------------------

_PROBE_ID = encode_value("probe-1")
_SEQNO = encode_value(3, AttributeType.LONG)
_STAMP = encode_value(12.5, AttributeType.DOUBLE)


def hand_built_packet(probe_id=_PROBE_ID, seqno=_SEQNO, timestamp=_STAMP):
    """A packet assembled field by field, each field already encoded."""
    return (b"RMON" + struct.pack(">I", 1)
            + encode_value("uk.ucl.condor.schedd.queuesize")
            + encode_value("svc-1") + probe_id + seqno + timestamp
            + struct.pack(">I", 1) + encode_value(7))


def test_hand_built_packet_matches_encoder():
    m = make_measurement(seqno=3, timestamp=12.5)
    assert hand_built_packet() == encode_measurement(m)
    assert decode_measurement(hand_built_packet()) == m


def test_mistyped_probe_id_is_codec_error():
    with pytest.raises(CodecError, match="probe id"):
        decode_measurement(hand_built_packet(probe_id=encode_value(5)))


@pytest.mark.parametrize("seqno", ["seq", True, 3.0, 3],
                         ids=["string", "bool", "double", "integer"])
def test_mistyped_seqno_is_codec_error(seqno):
    with pytest.raises(CodecError, match="seqno"):
        decode_measurement(hand_built_packet(seqno=encode_value(seqno)))


@pytest.mark.parametrize("timestamp", ["noon", False, 12, 2**40],
                         ids=["string", "bool", "integer", "hyper"])
def test_mistyped_timestamp_is_codec_error(timestamp):
    with pytest.raises(CodecError, match="timestamp"):
        decode_measurement(hand_built_packet(
            timestamp=encode_value(timestamp)))


# ---------------------------------------------------------------------------
# Truncation / corruption fuzz: malformed wire data must always surface as
# CodecError, never struct.error / IndexError / UnicodeDecodeError.
# ---------------------------------------------------------------------------

@given(
    values=st.lists(
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, width=64),
            st.booleans(),
            st.text(max_size=12),
        ),
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_every_strict_prefix_raises_codec_error(values):
    buf = encode_measurement(make_measurement(values=tuple(values)))
    assert decode_measurement(buf).values == tuple(values)
    for cut in range(len(buf)):
        with pytest.raises(CodecError):
            decode_measurement(buf[:cut])


@given(
    text=st.text(min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_every_strict_prefix_of_value_raises_codec_error(text):
    buf = encode_value(text)
    for cut in range(len(buf)):
        with pytest.raises(CodecError):
            decode_value(buf[:cut])


def test_peek_header_on_prefixes_never_leaks_raw_errors():
    buf = encode_measurement(make_measurement())
    header = peek_header(buf)
    for cut in range(len(buf)):
        try:
            peeked = peek_header(buf[:cut])
        except CodecError:
            continue  # too short to route — acceptable
        # long enough to carry the routing fields: must agree with the whole
        assert (peeked.qualified_name, peeked.service_id) == (
            header.qualified_name, header.service_id)


@given(junk=st.binary(max_size=80))
@settings(max_examples=200)
def test_decode_random_bytes_raises_only_codec_error(junk):
    for decoder in (decode_measurement, peek_header):
        try:
            decoder(junk)
        except CodecError:
            pass
    try:
        decode_value(junk)
    except CodecError:
        pass


def test_invalid_utf8_string_body_is_codec_error():
    buf = bytearray(encode_value("abcd"))
    buf[-4:] = b"\xff\xfe\xfd\xfc"  # clobber the 4-byte body
    with pytest.raises(CodecError):
        decode_value(bytes(buf))


def test_non_bmp_string_round_trip():
    value = "violin \U0001d11e and bulb \U0001f4a1"
    decoded, offset = decode_value(encode_value(value))
    assert decoded == value
    assert offset == len(encode_value(value))


def test_xdr_smaller_than_naive_json():
    """The design claim behind §5.2.6: values-only XDR beats self-describing
    encodings because names/units live in the information model."""
    m = make_measurement(values=(12345, 0.875))
    xdr_size = len(encode_measurement(m))
    json_size = naive_json_size(
        m, ["queuesize", "utilisation"], ["jobs", "ratio"])
    assert xdr_size < json_size
