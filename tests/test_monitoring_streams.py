"""The fabric's stream identity cache.

Delivery recognises a stream by its identity prefix (magic, version,
qualified name, service id, probe id) and, once the strict decoder has
accepted one packet of it, decodes only the tail of the next ones. These
tests pin what that must not change: every delivered measurement equals the
strict decode of its own packet, malformed packets still raise
``CodecError``, and one stream's samples share its identity strings.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.codec import (
    CodecError,
    decode_measurement,
    encode_measurement,
    encode_value,
)
from repro.monitoring.distribution import MulticastChannel, PubSubBroker
from repro.monitoring.measurements import AttributeType, Measurement
from repro.sim.kernel import Environment

FABRICS = pytest.mark.parametrize("fabric", [PubSubBroker, MulticastChannel],
                                  ids=["broker", "multicast"])

STREAMS = [
    ("uk.ucl.a.load", "svc-1", "probe-1"),
    ("uk.ucl.a.load", "svc-2", "probe-2"),
    ("uk.ucl.b.queue", "svc-1", "probe-3"),
    ("uk.ucl.b.q", "svc-22", "probe-x"),   # other string lengths / padding
]


def identity_prefix(qualified_name, service_id, probe_id):
    return (b"RMON" + struct.pack(">I", 1) + encode_value(qualified_name)
            + encode_value(service_id) + encode_value(probe_id))


def subscribed(fabric):
    """A zero-latency fabric and the list its one subscriber appends to."""
    net = fabric(Environment())
    delivered = []
    net.subscribe(delivered.append)
    return net, delivered


def publish(net, packet):
    # the measurement argument only matters when no packet is given
    net.publish(None, packet=packet)


def same_sample(a, b):
    """Field-wise equality that treats two NaNs as the same value."""
    assert (a.qualified_name, a.service_id, a.probe_id, a.seqno) == (
        b.qualified_name, b.service_id, b.probe_id, b.seqno)
    assert math.isnan(a.timestamp) == math.isnan(b.timestamp)
    if not math.isnan(a.timestamp):
        assert a.timestamp == b.timestamp
    assert len(a.values) == len(b.values)
    for x, y in zip(a.values, b.values):
        assert type(x) is type(y)
        if isinstance(x, float) and math.isnan(x):
            assert math.isnan(y)
        else:
            assert x == y


_VALUES = st.lists(
    st.one_of(
        st.sampled_from([0, 1, 7, 3.5, -0.0, True, "busy"]),  # repeats
        st.integers(min_value=-(2**62), max_value=2**62),
        st.floats(width=64),
        st.booleans(),
        st.text(max_size=6),
    ),
    max_size=3,
)


@FABRICS
@given(samples=st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(STREAMS) - 1), _VALUES,
              st.floats(width=64)),
    min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_each_delivery_equals_the_strict_decode_of_its_packet(fabric,
                                                              samples):
    net, delivered = subscribed(fabric)
    for seqno, (stream, values, timestamp) in enumerate(samples):
        qname, service_id, probe_id = STREAMS[stream]
        packet = encode_measurement(Measurement(
            qname, service_id, probe_id, timestamp, tuple(values), seqno))
        publish(net, packet)
        assert len(delivered) == seqno + 1
        same_sample(delivered[-1], decode_measurement(packet))
    assert net.packets_decoded == len(samples)


@FABRICS
def test_samples_of_one_stream_share_identity_strings(fabric):
    net, delivered = subscribed(fabric)
    qname, service_id, probe_id = STREAMS[0]
    for seqno in range(3):
        publish(net, encode_measurement(Measurement(
            qname, service_id, probe_id, float(seqno), (seqno,), seqno)))
    first, second, third = delivered
    for later in (second, third):
        assert later.qualified_name is first.qualified_name
        assert later.service_id is first.service_id
        assert later.probe_id is first.probe_id
    assert first == Measurement(qname, service_id, probe_id, 0.0, (0,), 0)


def _known_stream(fabric):
    """A fabric that has already delivered one packet of ``STREAMS[0]``,
    plus a second packet of that stream and its prefix length."""
    net, delivered = subscribed(fabric)
    qname, service_id, probe_id = STREAMS[0]
    publish(net, encode_measurement(Measurement(
        qname, service_id, probe_id, 1.0, (4,), 1)))
    packet = encode_measurement(Measurement(
        qname, service_id, probe_id, 2.0, (5, "up"), 2))
    return net, delivered, packet, len(identity_prefix(*STREAMS[0]))


@FABRICS
def test_truncated_packets_of_a_known_stream_raise(fabric):
    net, delivered, packet, prefix = _known_stream(fabric)
    for cut in range(len(packet)):
        # past the prefix the cache hits; inside it, the lookup misses
        with pytest.raises(CodecError):
            publish(net, packet[:cut])
    publish(net, packet)  # the stream is still served
    assert delivered[-1] == decode_measurement(packet)
    assert len(delivered) == 2


@FABRICS
@pytest.mark.parametrize("field, offset", [("seqno", 0), ("timestamp", 9)])
def test_flipped_tail_tags_of_a_known_stream_raise(fabric, field, offset):
    net, _, packet, prefix = _known_stream(fabric)
    for tag in (0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07):
        corrupt = bytearray(packet)
        if corrupt[prefix + offset] == tag:
            continue
        corrupt[prefix + offset] = tag
        with pytest.raises(CodecError):
            publish(net, bytes(corrupt))


@FABRICS
def test_value_count_beyond_the_values_of_a_known_stream_raises(fabric):
    net, _, packet, prefix = _known_stream(fabric)
    count_at = prefix + 18   # after the seqno and timestamp fields
    assert struct.unpack_from(">I", packet, count_at) == (2,)
    for count in (3, 2**32 - 1):
        corrupt = bytearray(packet)
        struct.pack_into(">I", corrupt, count_at, count)
        with pytest.raises(CodecError):
            publish(net, bytes(corrupt))


@FABRICS
def test_packet_with_nonzero_padding_decodes_strictly_every_time(fabric):
    """Padding bytes are not checked by the decoder, so a prefix the encoder
    would not write still decodes — but it never enters the cache."""
    net, delivered = subscribed(fabric)
    qname, service_id, probe_id = STREAMS[3]   # "uk.ucl.b.q": 2 pad bytes
    packet = bytearray(encode_measurement(Measurement(
        qname, service_id, probe_id, 1.0, (1.5,), 1)))
    assert packet[13 + len(qname)] == 0
    packet[13 + len(qname)] = 0xAA
    for _ in range(2):
        publish(net, bytes(packet))
    assert delivered[0] == delivered[1] == decode_measurement(bytes(packet))
    assert delivered[1].qualified_name is not delivered[0].qualified_name


def test_known_stream_checks_the_value_types_as_the_strict_decoder_does():
    net, delivered, packet, prefix = _known_stream(PubSubBroker)
    values_at = prefix + 22
    corrupt = bytearray(packet)
    corrupt[values_at] = 0x7F   # unknown value tag
    with pytest.raises(CodecError):
        decode_measurement(bytes(corrupt))
    with pytest.raises(CodecError):
        publish(net, bytes(corrupt))
    float_value = encode_value(0.25, AttributeType.FLOAT)
    packet = packet[:values_at] + float_value + packet[values_at + 5:]
    publish(net, packet)
    assert delivered[-1].values == (0.25, "up")
