"""Unit tests for the virtual clock and path propagation."""

import pytest

from repro.netsim.clock import SECONDS_PER_DAY, VirtualClock
from repro.netsim.element import NetworkElement, PacketTap, TransitContext
from repro.netsim.path import Path
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(5.5)
        assert clock.now == 5.5

    def test_sleep_alias(self):
        clock = VirtualClock()
        clock.sleep(2)
        assert clock.now == 2

    def test_no_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_no_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-10)

    def test_hour_of_day(self):
        clock = VirtualClock(start=3 * 3600 + 1800)
        assert clock.hour_of_day == pytest.approx(3.5)

    def test_hour_wraps_at_midnight(self):
        clock = VirtualClock(start=SECONDS_PER_DAY + 3600)
        assert clock.hour_of_day == pytest.approx(1.0)

    def test_at_hour_moves_forward(self):
        clock = VirtualClock(start=10 * 3600)
        clock.at_hour(14)
        assert clock.hour_of_day == pytest.approx(14.0)

    def test_at_hour_wraps_to_next_day(self):
        clock = VirtualClock(start=20 * 3600)
        before = clock.now
        clock.at_hour(3)
        assert clock.now > before
        assert clock.hour_of_day == pytest.approx(3.0)

    def test_at_hour_validates(self):
        with pytest.raises(ValueError):
            VirtualClock().at_hour(24)


def packet(src="10.0.0.1", dst="10.0.0.2", payload=b"p"):
    return IPPacket(src=src, dst=dst, transport=TCPSegment(sport=1, dport=2, payload=payload))


class _Recorder:
    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)
        return []


class _Responder:
    """Endpoint that answers every packet once."""

    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)
        return [packet(src=pkt.dst, dst=pkt.src, payload=b"reply")]


class _DropElement(NetworkElement):
    name = "drop"

    def process(self, pkt, direction, ctx):
        return []


class _InjectBackElement(NetworkElement):
    name = "inject"

    def process(self, pkt, direction, ctx):
        ctx.inject_back(packet(src="9.9.9.9", dst=pkt.src, payload=b"icmp-ish"))
        return [pkt]


class TestPath:
    def test_delivers_to_server(self):
        clock = VirtualClock()
        path = Path(clock, [PacketTap()])
        server = _Recorder()
        path.server_endpoint = server
        path.send_from_client(packet())
        assert len(server.received) == 1

    def test_responses_travel_back(self):
        clock = VirtualClock()
        tap = PacketTap()
        path = Path(clock, [tap])
        client, server = _Recorder(), _Responder()
        path.client_endpoint = client
        path.server_endpoint = server
        path.send_from_client(packet())
        assert len(client.received) == 1
        assert client.received[0].tcp.payload == b"reply"
        # the tap saw both directions
        directions = {r.direction for r in tap.records}
        assert directions == {Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT}

    def test_drop_element_stops_packet(self):
        path = Path(VirtualClock(), [_DropElement()])
        server = _Recorder()
        path.server_endpoint = server
        path.send_from_client(packet())
        assert server.received == []

    def test_inject_back_reaches_client(self):
        path = Path(VirtualClock(), [PacketTap("before"), _InjectBackElement()])
        client, server = _Recorder(), _Recorder()
        path.client_endpoint = client
        path.server_endpoint = server
        path.send_from_client(packet())
        assert len(client.received) == 1
        assert client.received[0].src == "9.9.9.9"
        assert len(server.received) == 1

    def test_reset_clears_elements(self):
        tap = PacketTap()
        path = Path(VirtualClock(), [tap])
        path.server_endpoint = _Recorder()
        path.send_from_client(packet())
        assert tap.records
        path.reset()
        assert not tap.records

    def test_send_from_server(self):
        path = Path(VirtualClock(), [PacketTap()])
        client = _Recorder()
        path.client_endpoint = client
        path.send_from_server(packet(src="10.0.0.2", dst="10.0.0.1"))
        assert len(client.received) == 1

    def test_response_loop_guard(self):
        class _Echoing:
            def receive(self, pkt):
                return [packet(src=pkt.dst, dst=pkt.src)]

        path = Path(VirtualClock(), [], max_depth=10)
        path.client_endpoint = _Echoing()
        path.server_endpoint = _Echoing()
        with pytest.raises(RuntimeError):
            path.send_from_client(packet())
