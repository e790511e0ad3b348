"""The transparent proxy's scan windows against a whole-stream model.

The proxy keeps, per connection and side, only the stream bytes a keyword
not yet found could still span: the last (longest keyword - 1) bytes after
each scan, plus the client's first four bytes until its anchor is settled,
and nothing once a side has found every keyword.  The model keeps each
side's whole stream and answers ``keyword in stream``, with the anchor
taken from the first four client bytes.  It shares the proxy's transport
(host-grade validation, reassembly, normalization), which the windows do
not touch, and replaces only the buffering and the classification.

Both proxies see the same packets: client segments cut at random points,
sent out of order, retransmitted and overlapping; server segments; FIN and
RST; over one or two connections.  Per packet, the forwarded packets, each
connection's ``client_matched``, ``server_matched`` and ``throttled``, and
the throttle marks must agree, and every window must be within its bound.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.middlebox.proxy import ANCHORS, TransparentHTTPProxy
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.packets.flow import Direction, FiveTuple
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

CLIENT, SERVER = "10.1.0.2", "203.0.113.50"
CLIENT_ISN, SERVER_ISN = 1_000, 9_000
#: A small alphabet, so generated keywords occur often and split often.
ALPHABET = "GETPOSHADU /1.:vido"


class WholeStreamProxy(TransparentHTTPProxy):
    """The model: each side's whole stream, and ``keyword in stream``."""

    @staticmethod
    def _streams(conn) -> tuple[bytearray, bytearray]:
        if not hasattr(conn, "whole"):
            conn.whole = (bytearray(), bytearray())
        return conn.whole

    def _reassemble(self, conn, tcp):
        fresh = super()._reassemble(conn, tcp)
        self._streams(conn)[0].extend(fresh)
        return fresh

    def _server_to_client(self, packet, tcp):
        conn = self._connections.peek((packet.dst, tcp.dport, packet.src, tcp.sport))
        if conn is not None:
            self._streams(conn)[1].extend(tcp.payload)
        return super()._server_to_client(packet, tcp)

    def _classify(self, conn) -> None:
        if conn.throttled:
            return
        client, server = self._streams(conn)
        conn.client_matched = bytes(client[:4]).startswith(ANCHORS) and all(
            keyword in client for keyword in self.client_keywords
        )
        conn.server_matched = all(keyword in server for keyword in self.server_keywords)
        if conn.client_matched and conn.server_matched:
            conn.throttled = True
            key = FiveTuple(conn.client, conn.client_port, conn.server, conn.server_port, 6)
            self.policy_state.throttle(key, self.throttle_rate_bps)


def _client_packet(sport: int, seq: int, flags: TCPFlags, payload: bytes = b"") -> IPPacket:
    segment = TCPSegment(sport, 80, seq & 0xFFFFFFFF, SERVER_ISN, flags, payload=payload)
    return IPPacket(CLIENT, SERVER, segment)


def _server_packet(sport: int, seq: int, payload: bytes) -> IPPacket:
    flags = TCPFlags.ACK | TCPFlags.PSH
    segment = TCPSegment(80, sport, seq, CLIENT_ISN + 1, flags, payload=payload)
    return IPPacket(SERVER, CLIENT, segment)


def _packets(
    sport: int, client: bytes, server: bytes, cuts, extra, order, server_cuts, interleave, close
) -> list[tuple[Direction, IPPacket]]:
    """One connection's packets: SYN, then client and server data, then a close.

    *cuts* split the client stream into in-order segments, *extra* adds
    retransmitted or overlapping ranges, and *order* permutes the lot;
    *interleave* merges them with the server segments.
    """
    c2s, s2c = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
    bounds = sorted({0, len(client), *(cut % (len(client) + 1) for cut in cuts)})
    ranges = list(zip(bounds, bounds[1:]))
    ranges += [(a % (len(client) + 1), b % (len(client) + 1)) for a, b in extra]
    ranges = [ranges[index % len(ranges)] for index in order] if order and ranges else ranges
    data = TCPFlags.ACK | TCPFlags.PSH
    client_packets = [
        _client_packet(sport, CLIENT_ISN + 1 + start, data, client[start:end])
        for start, end in ranges
        if start < end
    ]
    server_bounds = sorted({0, len(server), *(cut % (len(server) + 1) for cut in server_cuts)})
    server_packets = [
        _server_packet(sport, SERVER_ISN + 1 + start, server[start:end])
        for start, end in zip(server_bounds, server_bounds[1:])
    ]
    merged: list[tuple[Direction, IPPacket]] = []
    for take_client in interleave:
        queue, direction = (client_packets, c2s) if take_client else (server_packets, s2c)
        if queue:
            merged.append((direction, queue.pop(0)))
    merged += [(c2s, packet) for packet in client_packets]
    merged += [(s2c, packet) for packet in server_packets]
    packets = [(c2s, _client_packet(sport, CLIENT_ISN, TCPFlags.SYN))]
    packets += merged
    if close is not None:
        kind, at = close
        flags = TCPFlags.FIN | TCPFlags.ACK if kind == "fin" else TCPFlags.RST
        end = CLIENT_ISN + 1 + len(client)
        packets.insert(1 + at % (len(merged) + 1), (c2s, _client_packet(sport, end, flags)))
    return packets


keyword = st.text(ALPHABET, min_size=1, max_size=7).map(str.encode)
piece = st.text(ALPHABET, max_size=12).map(str.encode)


@st.composite
def streams(draw, keywords: tuple[bytes, ...], head: bool) -> bytes:
    """A stream of random text and keyword copies, maybe opening with an anchor."""
    parts = [draw(st.sampled_from(ANCHORS + (b"",)))] if head else []
    parts += draw(st.lists(st.one_of(piece, st.sampled_from(keywords)), max_size=8))
    return b"".join(parts)


@st.composite
def connections(draw, client_keywords, server_keywords) -> dict:
    client = draw(streams(client_keywords, head=True))
    server = draw(streams(server_keywords, head=False))
    return dict(
        client=client,
        server=server,
        cuts=draw(st.lists(st.integers(0, 200), max_size=8)),
        extra=draw(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=3)),
        order=draw(st.lists(st.integers(0, 30), max_size=14)),
        server_cuts=draw(st.lists(st.integers(0, 200), max_size=6)),
        interleave=draw(st.lists(st.booleans(), max_size=20)),
        close=draw(st.none() | st.tuples(st.sampled_from(("fin", "rst")), st.integers(0, 30))),
    )


@st.composite
def scenarios(draw) -> dict:
    client_keywords = tuple(draw(st.lists(keyword, min_size=1, max_size=3, unique=True)))
    server_keywords = tuple(draw(st.lists(keyword, min_size=1, max_size=2, unique=True)))
    conns = draw(st.lists(connections(client_keywords, server_keywords), min_size=1, max_size=2))
    return dict(
        client_keywords=client_keywords,
        server_keywords=server_keywords,
        connections=conns,
        interleave=draw(st.lists(st.integers(0, 1), max_size=40)),
    )


def _ctx() -> TransitContext:
    return TransitContext(
        clock=VirtualClock(), inject_back=lambda p: None, inject_forward=lambda p: None
    )


def _conn_view(proxy: TransparentHTTPProxy) -> dict:
    return {
        key: (conn.client_matched, conn.server_matched, conn.throttled)
        for key, conn in proxy._connections.items()
    }


def run_differential(scenario: dict) -> None:
    def build(cls):
        return cls(
            PolicyState(),
            client_keywords=scenario["client_keywords"],
            server_keywords=scenario["server_keywords"],
        )

    proxy, model = build(TransparentHTTPProxy), build(WholeStreamProxy)
    bound = max(4, max(map(len, scenario["client_keywords"] + scenario["server_keywords"])) - 1)
    ctx = _ctx()
    queues = [
        _packets(40_000 + index, **conn) for index, conn in enumerate(scenario["connections"])
    ]
    schedule = [pick % len(queues) for pick in scenario["interleave"]]
    schedule += [index for index, queue in enumerate(queues) for _ in queue]
    for pick in schedule:
        if not queues[pick]:
            continue
        direction, packet = queues[pick].pop(0)
        out = [p.to_bytes() for p in proxy.process(packet, direction, ctx)]
        expected = [p.to_bytes() for p in model.process(packet, direction, ctx)]
        assert out == expected, "forwarded packets differ"
        assert _conn_view(proxy) == _conn_view(model)
        assert proxy.policy_state.throttled_flows == model.policy_state.throttled_flows
        for conn in proxy._connections.values():
            assert len(conn.client_buffer) <= bound and len(conn.server_buffer) <= bound


def _one(client: bytes, server: bytes, cuts=(), **overrides) -> dict:
    conn = dict(
        client=client, server=server, cuts=list(cuts), extra=[], order=[],
        server_cuts=[], interleave=[], close=None,
    )
    conn.update(overrides)
    return conn


VIDEO = b"HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\n\r\n"


class TestWindowMatchesWholeStream:
    @settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=scenarios())
    # The anchor split across segments: b"G" + b"ET /".
    @example(scenario=dict(
        client_keywords=(b"GET", b"HTTP/1.1"), server_keywords=(b"Content-Type: video",),
        connections=[_one(b"GET / HTTP/1.1\r\n", VIDEO, cuts=[1, 5, 11])], interleave=[],
    ))
    # Three bytes that anchor nothing yet: b"POS" + b"T /".
    @example(scenario=dict(
        client_keywords=(b"/",), server_keywords=(b"v",),
        connections=[_one(b"POST /", b"v", cuts=[3])], interleave=[],
    ))
    # Every client keyword found before the anchor is settled.
    @example(scenario=dict(
        client_keywords=(b"G",), server_keywords=(b"v",),
        connections=[_one(b"GET /", b"v", cuts=[1, 2, 3])], interleave=[],
    ))
    # A server keyword split across segments, after the client matched.
    @example(scenario=dict(
        client_keywords=(b"GET", b"HTTP/1.1"), server_keywords=(b"Content-Type: video",),
        connections=[_one(b"GET / HTTP/1.1\r\n", VIDEO, server_cuts=[22, 26, 30])],
        interleave=[],
    ))
    # Out of order with a retransmitted, overlapping range.
    @example(scenario=dict(
        client_keywords=(b"HTTP/1.1",), server_keywords=(b"video",),
        connections=[_one(b"POST /x HTTP/1.1", b"video", cuts=[4, 10],
                          extra=[(8, 14)], order=[2, 0, 3, 1])],
        interleave=[],
    ))
    def test_window_matches_whole_stream(self, scenario):
        run_differential(scenario)


class TestWindowBound:
    def test_long_response_keeps_only_a_window(self):
        """A matched response stops buffering; an unmatched one keeps a tail."""
        for server_keyword, held in ((b"Content-Type: video", 0), (b"never-sent", 9)):
            proxy = TransparentHTTPProxy(PolicyState(), server_keywords=(server_keyword,))
            body = VIDEO + b"\x00" * 100_000
            cuts = list(range(1460, len(body), 1460))
            packets = _packets(40_000, **_one(b"GET / HTTP/1.1\r\n", body, server_cuts=cuts))
            ctx = _ctx()
            for direction, packet in packets:
                proxy.process(packet, direction, ctx)
            (conn,) = proxy._connections.values()
            assert len(conn.client_buffer) == 0  # GET and HTTP/1.1 found, anchored
            assert len(conn.server_buffer) == held
