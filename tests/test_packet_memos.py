"""Differential tests for the packet memos, which are checked when read.

Every packet class memoizes its wire forms, checksum verdicts and flow key,
and each memo records the field values it was computed from.  These tests
build a packet of each transport kind (overrides included), warm every memo,
apply one change (a field assignment on the packet or its transport, a
transport swap, or a clone) and require every observable result to equal
what a freshly constructed equal packet gives.  A memo key that misses a
field it depends on fails here.
"""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packets.batch import serialize_batch
from repro.packets.flow import FiveTuple
from repro.packets.icmp import ICMPMessage
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment
from repro.packets.udp import UDPDatagram

ADDRESSES = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.1.7", "0.0.0.0"])
u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
small_bytes = st.binary(max_size=12)
payloads = st.binary(max_size=48)


def maybe(strategy):
    return st.none() | strategy


#: Per class, a strategy for every field, drawn inside what the constructor
#: stores unchanged (so a fresh packet holds exactly the assigned values).
FIELD_VALUES = {
    TCPSegment: {
        "sport": u16,
        "dport": u16,
        "seq": u32,
        "ack": u32,
        "flags": u8,
        "window": u16,
        "urgent": u16,
        "options": small_bytes,
        "payload": payloads,
        "data_offset": maybe(st.integers(0, 15)),
        "checksum": maybe(u16),
    },
    UDPDatagram: {
        "sport": u16,
        "dport": u16,
        "payload": payloads,
        "length": maybe(u16),
        "checksum": maybe(u16),
    },
    ICMPMessage: {
        "icmp_type": u8,
        "code": u8,
        "rest": st.binary(min_size=4, max_size=4),
        "payload": payloads,
    },
    IPPacket: {
        "src": ADDRESSES,
        "dst": ADDRESSES,
        "ttl": u8,
        "version": st.integers(0, 15),
        "ihl": maybe(st.integers(0, 15)),
        "tos": u8,
        "total_length": maybe(u16),
        "identification": u16,
        "df": st.booleans(),
        "mf": st.booleans(),
        "frag_offset": st.integers(0, 0x1FFF),
        "protocol": maybe(st.sampled_from([1, 6, 17, 0xFD]) | u8),
        "checksum": maybe(u16),
        "options": small_bytes,
    },
}

KINDS = ("tcp", "udp", "icmp", "raw")
TRANSPORT_CLASS = {"tcp": TCPSegment, "udp": UDPDatagram, "icmp": ICMPMessage}


def transports(kind):
    if kind == "raw":
        return st.binary(max_size=40)
    cls = TRANSPORT_CLASS[kind]
    return st.fixed_dictionaries(FIELD_VALUES[cls]).map(lambda kw: cls(**kw))


def packets(kind):
    return st.builds(
        lambda kw, transport: IPPacket(transport=transport, **kw),
        st.fixed_dictionaries(FIELD_VALUES[IPPacket]),
        transports(kind),
    )


def fresh(packet):
    """A newly constructed packet equal to *packet*: no memo is warm."""
    transport = packet.transport
    if not isinstance(transport, bytes):
        transport = type(transport)(
            **{f.name: getattr(transport, f.name) for f in fields(transport)}
        )
    values = {f.name: getattr(packet, f.name) for f in fields(IPPacket)}
    values["transport"] = transport
    return IPPacket(**values)


def observe(packet):
    """Every memoized result the packet layer offers, in one list.

    Called on a packet it warms every memo; the transport results are read
    twice with different address pairs so the pair-keyed memos turn over.
    """
    transport = packet.transport
    src, dst = packet.src, packet.dst
    results = [
        packet.to_bytes(),
        packet.has_valid_checksum(),
        FiveTuple.of(packet),
        serialize_batch([packet]),
        packet.to_bytes(),
    ]
    if not isinstance(transport, bytes):
        results += [
            transport.to_bytes(),
            transport.to_bytes(src, dst),
            transport.to_bytes(dst, "10.9.9.9"),
            transport.to_bytes(src, dst),
        ]
        if not isinstance(transport, ICMPMessage):
            results += [
                transport.verify_checksum(src, dst),
                transport.verify_checksum(dst, "10.9.9.9"),
                transport.verify_checksum(src, dst),
            ]
    results.append(packet.to_bytes())
    return results


def check_against_fresh(packet):
    assert observe(packet) == observe(fresh(packet))


def draw_change(data, obj):
    """Draw a field of *obj* and a new value for it, unequal to the current one."""
    values = FIELD_VALUES[type(obj)]
    name = data.draw(st.sampled_from(sorted(values)))
    current = getattr(obj, name)
    return name, data.draw(values[name].filter(lambda value: value != current))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_ip_field_assignment(kind, data):
    packet = data.draw(packets(kind))
    observe(packet)
    setattr(packet, *draw_change(data, packet))
    check_against_fresh(packet)


@pytest.mark.parametrize("kind", ["tcp", "udp", "icmp"])
@given(data=st.data())
def test_transport_field_assignment(kind, data):
    """Assign a transport field in place, reaching the transport through the packet."""
    packet = data.draw(packets(kind))
    observe(packet)
    setattr(packet.transport, *draw_change(data, packet.transport))
    check_against_fresh(packet)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_transport_swap(kind, data):
    packet = data.draw(packets(kind))
    observe(packet)
    old = packet.transport
    swaps = [transports(new_kind) for new_kind in KINDS]
    if not isinstance(old, bytes):
        # The old transport's own (memoized) bytes, and an equal clone.
        swaps.append(st.just(old.to_bytes(packet.src, packet.dst)))
        swaps.append(st.just(old.copy()))
    packet.transport = data.draw(st.one_of(swaps))
    check_against_fresh(packet)
    if not isinstance(old, bytes):
        packet.transport = old  # and back again
        check_against_fresh(packet)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_clones(kind, data):
    packet = data.draw(packets(kind))
    observe(packet)
    name, value = draw_change(data, packet)
    check_against_fresh(packet.copy(**{name: value}))
    hops = data.draw(st.integers(0, 3))
    check_against_fresh(packet.decremented(hops))
    if not isinstance(packet.transport, bytes):
        clone = packet.copy()
        setattr(clone.transport, *draw_change(data, clone.transport))
        check_against_fresh(clone)
        check_against_fresh(packet)  # the original's transport is untouched
