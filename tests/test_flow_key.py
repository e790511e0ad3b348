"""Flow keys: ``FiveTuple`` is a plain tuple, and the flow layer keeps no tables.

Keys hash and compare like the bare 5-tuple of their fields, so every
flow-table, expiry-lane and ``PolicyState`` probe finds a key however it
was built: by ``FiveTuple.of`` from a packet, by ``normalized()`` or
``reversed``, or by hand.  ``repro.packets.flow`` holds nothing per flow,
so a long churn run leaves it the size it started.
"""

from __future__ import annotations

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.scale import (
    NEUTRAL_PAYLOAD,
    SERVER,
    SERVER_PORT,
    ScaleConfig,
    _flow_endpoint,
    build_engine,
)
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.packets import flow
from repro.packets.flow import Direction, FiveTuple
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

addresses = st.one_of(
    st.ip_addresses(v=4).map(str),
    st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.10", "192.168.1.1"]),
)
ports = st.integers(min_value=0, max_value=65_535)
protocols = st.sampled_from([6, 17])


@st.composite
def keys(draw) -> FiveTuple:
    src = draw(addresses)
    dst = src if draw(st.booleans()) else draw(addresses)
    return FiveTuple(src, draw(ports), dst, draw(ports), draw(protocols))


def _grows(namespace: dict) -> dict[str, int]:
    """The length of every container in *namespace* (module or class dict)."""
    return {
        name: len(value)
        for name, value in namespace.items()
        if isinstance(value, (dict, list, set, frozenset, tuple))
    }


class TestKeyChurn:
    """More flows than any old intern table held: no growth, keys stay exact."""

    FLOWS = 16_600
    TRACKED = FLOWS + 1_000  # a flow index outside the churned range

    @staticmethod
    def packet(index: int, reverse: bool = False, payload: bytes = b"") -> IPPacket:
        src, sport = _flow_endpoint(index)
        if reverse:
            segment = TCPSegment(sport=SERVER_PORT, dport=sport, flags=TCPFlags.ACK)
            return IPPacket(src=SERVER, dst=src, transport=segment)
        flags = TCPFlags.ACK | TCPFlags.PSH if payload else TCPFlags.SYN
        segment = TCPSegment(
            sport=sport, dport=SERVER_PORT, seq=1, ack=1, flags=flags, payload=payload
        )
        return IPPacket(src=src, dst=SERVER, transport=segment)

    @staticmethod
    def fresh(index: int) -> FiveTuple:
        src, sport = _flow_endpoint(index)
        return FiveTuple(src, sport, SERVER, SERVER_PORT, 6)

    def test_churn_keeps_no_table_and_finds_the_tracked_flow(self):
        engine, _ = build_engine(ScaleConfig(max_flows=256))
        clock = VirtualClock()
        sink = []
        ctx = TransitContext(clock=clock, inject_back=sink.append, inject_forward=sink.append)
        engine.process(self.packet(self.TRACKED), Direction.CLIENT_TO_SERVER, ctx)
        state = engine._flows.get(self.fresh(self.TRACKED).normalized())
        assert state is not None and state.client_packets == 0
        module_before = _grows(vars(flow))
        class_before = _grows(vars(FiveTuple))

        keys = []
        for index in range(self.FLOWS):
            packet = self.packet(index)
            keys.append(FiveTuple.of(packet))
            engine.process(packet, Direction.CLIENT_TO_SERVER, ctx)
            if index % 128 == 0:  # keep the tracked flow off the LRU end
                clock.advance(0.001)
                tracked = self.packet(self.TRACKED, payload=NEUTRAL_PAYLOAD)
                engine.process(tracked, Direction.CLIENT_TO_SERVER, ctx)

        assert _grows(vars(flow)) == module_before
        assert _grows(vars(FiveTuple)) == class_before
        assert engine.evictions > 0
        assert len(engine._flows) <= 256

        for index in (0, 1, 16_383, 16_384, self.FLOWS - 1):
            fresh = self.fresh(index)
            for key in (keys[index], FiveTuple.of(self.packet(index))):
                assert key == fresh and hash(key) == hash(fresh)
            reverse = FiveTuple.of(self.packet(index, reverse=True))
            assert reverse.normalized() == keys[index].normalized() == fresh.normalized()
            assert hash(reverse.normalized()) == hash(fresh.normalized())

        assert engine._flows.get(self.fresh(self.TRACKED).normalized()) is state
        assert state.client_packets > 0  # the payload packets reached the old state
        assert state.last_packet_time == clock.now


class TestKeyParity:
    """A key behaves as the tuple of its fields, in both directions."""

    @given(keys())
    def test_hash_and_equality_are_the_field_tuple(self, key):
        fields = (key.src, key.sport, key.dst, key.dport, key.protocol)
        assert tuple(key) == fields
        assert key == fields and hash(key) == hash(fields)
        assert FiveTuple(*fields) == key and hash(FiveTuple(*fields)) == hash(key)

    @given(keys())
    def test_normalized_is_idempotent_and_direction_independent(self, key):
        norm = key.normalized()
        assert type(norm) is FiveTuple
        assert norm.normalized() == norm
        assert key.reversed.normalized() == norm
        assert norm in (key, key.reversed)
        assert (norm.src, norm.sport) <= (norm.dst, norm.dport)

    @given(keys())
    def test_reversed_twice_is_the_key(self, key):
        assert type(key.reversed) is FiveTuple
        assert key.reversed.reversed == key
        assert key.reversed == (key.dst, key.dport, key.src, key.sport, key.protocol)

    @given(keys())
    def test_pickle_round_trip(self, key):
        copy = pickle.loads(pickle.dumps(key))
        assert type(copy) is FiveTuple
        assert copy == key and hash(copy) == hash(key)

    def test_repr_and_str(self):
        key = FiveTuple("10.0.0.2", 5, "10.0.0.1", 80, 6)
        assert repr(key) == (
            "FiveTuple(src='10.0.0.2', sport=5, dst='10.0.0.1', dport=80, protocol=6)"
        )
        assert str(key) == "10.0.0.2:5->10.0.0.1:80/6"
        assert str(key.normalized()) == "10.0.0.1:80->10.0.0.2:5/6"


class TestOfMemo:
    """``FiveTuple.of`` never returns a stale key from its per-packet memo."""

    @given(keys(), ports, ports)
    def test_fresh_key_after_ports_change(self, key, sport, dport):
        segment = TCPSegment(sport=key.sport, dport=key.dport, flags=TCPFlags.ACK)
        packet = IPPacket(src=key.src, dst=key.dst, transport=segment)
        assert FiveTuple.of(packet) == key._replace(protocol=6)
        segment.sport = sport
        segment.dport = dport
        assert FiveTuple.of(packet) == (key.src, sport, key.dst, dport, 6)

    @given(keys(), addresses, addresses)
    def test_fresh_key_after_addresses_change(self, key, src, dst):
        datagram = UDPDatagram(sport=key.sport, dport=key.dport)
        packet = IPPacket(src=key.src, dst=key.dst, transport=datagram)
        assert FiveTuple.of(packet) == key._replace(protocol=17)
        packet.src = src
        assert FiveTuple.of(packet) == (src, key.sport, key.dst, key.dport, 17)
        packet.dst = dst
        assert FiveTuple.of(packet) == (src, key.sport, dst, key.dport, 17)

    def test_memo_returns_the_same_key_for_an_unchanged_packet(self):
        packet = TestKeyChurn.packet(7)
        assert FiveTuple.of(packet) is FiveTuple.of(packet)
