"""Equivalence tests for the packet fast path.

The vectorized checksum, the memoized wire caches, the slotted packet
constructors, and the fragment reassembly shortcut must be observably
identical to the original scalar / recompute-everything implementations.
"""

import copy
import dataclasses
import inspect
import pickle
from dataclasses import MISSING, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packets.checksum import internet_checksum, verify_checksum
from repro.packets.fragment import fragment_packet, reassemble_fragments
from repro.packets.icmp import ICMPMessage
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

#: One fully specified instance per wire-cached class, plus a field to
#: assign after construction and the new value.
BUILDERS = {
    IPPacket: (
        lambda: IPPacket(
            src="10.0.0.1",
            dst="10.0.0.2",
            transport=TCPSegment(sport=5, dport=80, payload=b"GET /"),
            ttl=33,
            identification=7,
            df=True,
        ),
        "ttl",
        32,
    ),
    TCPSegment: (
        lambda: TCPSegment(
            sport=1234, dport=80, seq=7, ack=9, flags=0x18, window=512, payload=b"hi"
        ),
        "window",
        1024,
    ),
    UDPDatagram: (lambda: UDPDatagram(sport=53, dport=5353, payload=b"query"), "dport", 53),
    ICMPMessage: (
        lambda: ICMPMessage(icmp_type=11, code=0, rest=b"\x00\x01\x02\x03", payload=b"hdr"),
        "code",
        1,
    ),
}
WIRE_CACHED = list(BUILDERS)

#: The memo slots each class declares besides its fields.
MEMO_SLOTS = {
    IPPacket: ("_hdr0_cache", "_wire_cache", "_flow_cache"),
    TCPSegment: ("_wire0_cache", "_wire_cache", "_csum_cache"),
    UDPDatagram: ("_wire0_cache", "_wire_cache", "_csum_cache"),
    ICMPMessage: ("_wire_cache",),
}

#: Every way to make a packet object from another one.
CLONES = {
    "copy": lambda obj: obj.copy(),
    "decremented": lambda obj: obj.decremented(0),
    "replace": dataclasses.replace,
    "copy.copy": copy.copy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}

payloads = st.binary(min_size=0, max_size=1024)


def scalar_checksum(data: bytes) -> int:
    """The original word-at-a-time RFC 1071 implementation (reference)."""
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestVectorizedChecksum:
    @given(payloads)
    def test_matches_scalar(self, data):
        assert internet_checksum(data) == scalar_checksum(data)

    @given(st.binary(min_size=1, max_size=257).filter(lambda d: len(d) % 2 == 1))
    def test_odd_lengths_match_scalar(self, data):
        assert internet_checksum(data) == scalar_checksum(data)

    def test_empty(self):
        assert internet_checksum(b"") == scalar_checksum(b"") == 0xFFFF

    def test_all_zero(self):
        for n in (1, 2, 3, 20, 63):
            assert internet_checksum(b"\x00" * n) == scalar_checksum(b"\x00" * n)

    def test_ffff_residue(self):
        # Sums congruent to 0 mod 0xFFFF exercise the zero-class corner.
        assert internet_checksum(b"\xff\xff") == scalar_checksum(b"\xff\xff")
        assert internet_checksum(b"\xff\xfe\x00\x01") == scalar_checksum(b"\xff\xfe\x00\x01")

    @given(payloads)
    def test_accepts_views_without_copy(self, data):
        assert internet_checksum(memoryview(data)) == scalar_checksum(data)
        assert internet_checksum(bytearray(data)) == scalar_checksum(data)

    @given(payloads)
    def test_round_trip_verify(self, data):
        csum = internet_checksum(data)
        padded = data + b"\x00" if len(data) % 2 else data
        assert verify_checksum(padded + csum.to_bytes(2, "big"))


class TestWireCacheInvalidation:
    def test_tcp_cache_hit_and_invalidation(self):
        seg = TCPSegment(sport=1234, dport=80, seq=7, payload=b"hello")
        first = seg.to_bytes("10.0.0.1", "10.0.0.2")
        assert seg.to_bytes("10.0.0.1", "10.0.0.2") is first  # memoized
        seg.seq = 8
        second = seg.to_bytes("10.0.0.1", "10.0.0.2")
        assert second != first
        assert second == TCPSegment(sport=1234, dport=80, seq=8, payload=b"hello").to_bytes(
            "10.0.0.1", "10.0.0.2"
        )

    def test_tcp_cache_respects_addresses(self):
        seg = TCPSegment(sport=1, dport=2, payload=b"x")
        a = seg.to_bytes("10.0.0.1", "10.0.0.2")
        b = seg.to_bytes("10.0.0.1", "10.0.0.3")
        assert a != b  # pseudo-header differs
        fresh = TCPSegment(sport=1, dport=2, payload=b"x")
        assert b == fresh.to_bytes("10.0.0.1", "10.0.0.3")

    def test_checksum_override_then_clear(self):
        seg = TCPSegment(sport=9, dport=10, payload=b"abc")
        good = seg.to_bytes("1.2.3.4", "5.6.7.8")
        seg.checksum = 0xDEAD
        forged = seg.to_bytes("1.2.3.4", "5.6.7.8")
        assert forged[16:18] == b"\xde\xad"
        seg.checksum = None  # what TCPChecksumNormalizer does
        assert seg.to_bytes("1.2.3.4", "5.6.7.8") == good

    def test_udp_cache_and_invalidation(self):
        dgram = UDPDatagram(sport=53, dport=53, payload=b"query")
        first = dgram.to_bytes("10.0.0.1", "10.0.0.2")
        assert dgram.to_bytes("10.0.0.1", "10.0.0.2") is first
        dgram.payload = b"other"
        assert dgram.to_bytes("10.0.0.1", "10.0.0.2") == UDPDatagram(
            sport=53, dport=53, payload=b"other"
        ).to_bytes("10.0.0.1", "10.0.0.2")

    def test_ip_wire_cache_tracks_transport_mutation(self):
        packet = IPPacket(
            src="10.0.0.1",
            dst="10.0.0.2",
            transport=TCPSegment(sport=5, dport=80, payload=b"GET /"),
        )
        first = packet.to_bytes()
        assert packet.to_bytes() is first
        packet.tcp.payload = b"POST /"  # mutation behind the IP header's back
        second = packet.to_bytes()
        assert second != first
        reference = IPPacket(
            src="10.0.0.1",
            dst="10.0.0.2",
            transport=TCPSegment(sport=5, dport=80, payload=b"POST /"),
        )
        assert second == reference.to_bytes()

    def test_ip_copy_is_independent(self):
        packet = IPPacket(
            src="10.0.0.1",
            dst="10.0.0.2",
            transport=TCPSegment(sport=5, dport=80, payload=b"data"),
            ttl=64,
        )
        packet.to_bytes()  # warm the caches
        hop_copy = packet.copy(ttl=63, checksum=None)
        assert hop_copy.ttl == 63
        assert hop_copy.transport is not packet.transport
        hop_copy.tcp.seq = 999
        assert packet.tcp.seq == 0  # original untouched
        reference = IPPacket(
            src="10.0.0.1",
            dst="10.0.0.2",
            transport=TCPSegment(sport=5, dport=80, payload=b"data"),
            ttl=63,
        )
        assert packet.copy(ttl=63, checksum=None).to_bytes() == reference.to_bytes()

    def test_ip_copy_rejects_unknown_fields(self):
        packet = IPPacket(src="10.0.0.1", dst="10.0.0.2")
        try:
            packet.copy(nonsense=1)
        except TypeError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("expected TypeError for unknown field")

    @pytest.mark.parametrize("cls", WIRE_CACHED, ids=lambda c: c.__name__)
    def test_constructed_then_mutated_drops_memo(self, cls):
        build, name, value = BUILDERS[cls]
        obj = build()
        first = obj.to_bytes()
        assert obj.to_bytes() is first  # memo warm
        setattr(obj, name, value)
        second = obj.to_bytes()
        assert second != first
        reference = build()
        object.__setattr__(reference, name, value)  # no memo to drop yet
        assert second == reference.to_bytes()

    def test_verify_checksum_equivalence(self):
        seg = TCPSegment(sport=1, dport=2, seq=3, payload=b"payload")
        wire = seg.to_bytes("10.0.0.1", "10.0.0.2")
        parsed = TCPSegment.from_bytes(wire)
        assert parsed.verify_checksum("10.0.0.1", "10.0.0.2")
        assert not parsed.verify_checksum("10.0.0.1", "10.0.0.9")


class TestOneStoreConstruction:
    """Slotted packets: fields plus named memo slots, and nothing else."""

    @pytest.mark.parametrize("cls", WIRE_CACHED, ids=lambda c: c.__name__)
    def test_no_instance_dict(self, cls):
        obj = BUILDERS[cls][0]()
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.not_a_field = 1

    @pytest.mark.parametrize("cls", WIRE_CACHED, ids=lambda c: c.__name__)
    def test_slots_are_the_fields_plus_the_memos(self, cls):
        slots = [name for klass in cls.__mro__ for name in klass.__dict__.get("__slots__", ())]
        assert len(slots) == len(set(slots))
        assert set(slots) == {f.name for f in fields(cls)} | set(MEMO_SLOTS[cls])

    @pytest.mark.parametrize(
        "cls, how",
        [
            pytest.param(cls, how, id=f"{cls.__name__}-{how}")
            for cls in WIRE_CACHED
            for how in CLONES
            if how != "decremented" or cls is IPPacket
        ],
    )
    def test_every_memo_slot_is_set_on_every_construction_path(self, cls, how):
        original = BUILDERS[cls][0]()
        expected = original.to_bytes()  # warm memos ride along on the clones
        for obj in (BUILDERS[cls][0](), CLONES[how](original)):
            assert type(obj) is cls
            for name in MEMO_SLOTS[cls]:
                getattr(obj, name)  # AttributeError on an unset slot
            assert obj == original
            assert obj.to_bytes() == expected

    @pytest.mark.parametrize("cls", WIRE_CACHED, ids=lambda c: c.__name__)
    def test_signature_matches_fields(self, cls):
        params = [
            (p.name, p.default) for p in inspect.signature(cls).parameters.values()
        ]
        declared = [
            (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
            for f in fields(cls)
        ]
        assert params == declared

    @pytest.mark.parametrize("cls", [TCPSegment, UDPDatagram], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("port", ["sport", "dport"])
    @pytest.mark.parametrize("value", [-1, 0x10000])
    def test_out_of_range_ports_raise(self, cls, port, value):
        with pytest.raises(ValueError, match=f"{port} out of range"):
            cls(**{port: value})

    def test_int_flags_are_coerced(self):
        seg = TCPSegment(flags=0x12)
        assert type(seg.flags) is TCPFlags
        assert seg.flags == TCPFlags.SYN | TCPFlags.ACK

    def test_sequence_numbers_are_masked(self):
        seg = TCPSegment(seq=2**32 + 5, ack=2**33 + 7)
        assert (seg.seq, seg.ack) == (5, 7)

    def test_short_icmp_rest_raises(self):
        with pytest.raises(ValueError, match="exactly 4 bytes"):
            ICMPMessage(rest=b"\x00\x00")


class TestFragmentShortcut:
    def test_reassembly_matches_wire_round_trip(self):
        packet = IPPacket(
            src="10.0.0.1",
            dst="10.0.0.2",
            transport=TCPSegment(sport=1111, dport=80, seq=100, payload=b"A" * 64),
        )
        fragments = fragment_packet(packet, 24)
        assert len(fragments) > 1
        whole = reassemble_fragments(fragments)
        assert whole is not None
        # The typed transport and the wire bytes must match what the old
        # serialize→parse round-trip produced.
        round_trip = IPPacket.from_bytes(whole.to_bytes())
        assert isinstance(whole.transport, TCPSegment)
        assert whole.transport.payload == b"A" * 64
        assert whole.to_bytes() == round_trip.to_bytes()

    def test_reassembly_udp_and_unparseable(self):
        udp_packet = IPPacket(
            src="10.0.0.1",
            dst="10.0.0.2",
            transport=UDPDatagram(sport=4000, dport=3478, payload=b"B" * 40),
        )
        whole = reassemble_fragments(fragment_packet(udp_packet, 16))
        assert isinstance(whole.transport, UDPDatagram)
        assert whole.transport.payload == b"B" * 40

        raw_packet = IPPacket(
            src="10.0.0.1", dst="10.0.0.2", transport=b"\x01\x02\x03" * 8, protocol=0xFD
        )
        whole = reassemble_fragments(fragment_packet(raw_packet, 8))
        assert whole.transport == b"\x01\x02\x03" * 8
