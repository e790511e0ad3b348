"""The replay's in-place response check against the assembled stream.

``ReplaySession`` judges the server's response with
``RawTCPClient.check_server_stream(expected)``, which walks the collector's
trimmed in-order pieces and compares each with ``expected.startswith(piece,
offset)`` instead of joining them.  This suite draws the segments a client
can collect (the response cut at any boundaries; dropped, duplicated and
byte-flipped pieces; retransmits and overlaps at other boundaries; trailing
extra bytes; segments of other connections interleaved) in any arrival
order, and holds the check to ``server_stream() == expected`` and to the
``content_modified`` expression it replaced.  ``server_stream()`` itself is
held to the bytearray loop it replaced.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.endpoint.rawclient import ClientCollector
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

SERVER, CLIENT, OTHER = "203.0.113.50", "10.1.0.2", "203.0.113.99"
SPORT, CPORT = 80, 40_000

#: (src, sport, dport) of segments that belong to other connections.
FOREIGN = ((OTHER, SPORT, CPORT), (SERVER, 8080, CPORT), (SERVER, SPORT, CPORT + 1))


def old_verdicts(received: bytes, expected: bytes) -> tuple[bool, bool]:
    """``(server_response_ok, content_modified)`` as the replay computed
    them from the assembled stream."""
    return (
        received == expected,
        bool(expected) and len(received) == len(expected) and received != expected,
    )


def reference_stream(segments: list[tuple[str, int, int, int, bytes]]) -> bytes:
    """The server's stream as the bytearray loop assembled it."""
    chunks: dict[int, bytes] = {}
    for src, sport, dport, seq, payload in segments:
        if src != SERVER or sport != SPORT or dport != CPORT or not payload:
            continue
        existing = chunks.get(seq)
        if existing is None or len(payload) > len(existing):
            chunks[seq] = payload
    stream = bytearray()
    max_end: int | None = None
    for seq in sorted(chunks):
        payload = chunks[seq]
        if max_end is not None and seq < max_end:
            if seq + len(payload) <= max_end:
                continue
            payload = payload[max_end - seq :]
            seq = max_end
        stream.extend(payload)
        max_end = seq + len(payload)
    return bytes(stream)


def flipped(data: bytes, position: int, mask: int) -> bytes:
    position %= len(data)
    return data[:position] + bytes([data[position] ^ mask]) + data[position + 1 :]


@st.composite
def scenarios(draw) -> tuple[bytes, list[tuple[str, int, int, int, bytes]]]:
    """An expected response and the segments a client collected, in arrival order."""
    payloads = draw(st.lists(st.binary(min_size=1, max_size=24), max_size=4))
    expected = b"".join(payloads)
    size = len(expected)
    base = draw(st.integers(0, 1 << 24))
    # The response as sent: cut at its payload boundaries and at drawn ones.
    boundaries = {sum(len(p) for p in payloads[:i]) for i in range(1, len(payloads))}
    if size > 1:
        boundaries |= set(draw(st.lists(st.integers(1, size - 1), max_size=5)))
    bounds = [0, *sorted(boundaries), size] if size else []
    segments = []
    for start, end in zip(bounds, bounds[1:]):
        data = expected[start:end]
        action = draw(st.sampled_from(("send", "send", "send", "drop", "dup", "flip")))
        if action == "drop":
            continue
        if action == "flip":
            data = flipped(data, draw(st.integers(0, 63)), draw(st.integers(1, 255)))
        segments.append((SERVER, SPORT, CPORT, base + start, data))
        if action == "dup":
            segments.append((SERVER, SPORT, CPORT, base + start, data))
    extras = st.one_of(
        # A retransmit or overlap of the response at other boundaries.
        st.tuples(st.just("retransmit"), st.integers(0, size), st.integers(1, 32)),
        # Bytes past the end of the response.
        st.tuples(st.just("trailing"), st.integers(0, 8), st.binary(min_size=1, max_size=12)),
        # A segment of another connection, at any sequence number.
        st.tuples(st.sampled_from(FOREIGN), st.integers(0, size + 8), st.binary(min_size=1, max_size=12)),
    )
    for kind, offset, extra in draw(st.lists(extras, max_size=4)):
        if kind == "retransmit":
            data = expected[offset : offset + extra]
            if data:
                segments.append((SERVER, SPORT, CPORT, base + offset, data))
        elif kind == "trailing":
            segments.append((SERVER, SPORT, CPORT, base + size + offset, extra))
        else:
            src, sport, dport = kind
            segments.append((src, sport, dport, base + offset, extra))
    return expected, draw(st.permutations(segments))


def collect(segments: list[tuple[str, int, int, int, bytes]]) -> ClientCollector:
    collector = ClientCollector()
    for src, sport, dport, seq, payload in segments:
        segment = TCPSegment(sport, dport, seq, 1, TCPFlags.ACK | TCPFlags.PSH, payload=payload)
        collector.receive(IPPacket(src=src, dst=CLIENT, transport=segment))
    return collector


def _sent(expected: bytes, *cuts: int) -> list[tuple[str, int, int, int, bytes]]:
    bounds = [0, *cuts, len(expected)]
    return [
        (SERVER, SPORT, CPORT, 100 + start, expected[start:end])
        for start, end in zip(bounds, bounds[1:])
        if end > start
    ]


@settings(deadline=None, max_examples=400)
@given(scenario=scenarios())
@example(scenario=(b"", []))
@example(scenario=(b"", [(SERVER, SPORT, CPORT, 100, b"x")]))
@example(scenario=(b"HTTP/1.1 200 OK", _sent(b"HTTP/1.1 200 OK", 4, 9)))
@example(scenario=(b"HTTP/1.1 200 OK", _sent(b"HTTP/1.1 200 OK", 4)[:1]))
@example(scenario=(b"HTTP/1.1 200 OK", _sent(b"HTTP/1.1 404 OK", 9)))
@example(scenario=(b"HTTP/1.1 200 OK", _sent(b"HTTP/1.1 200 OK!")))
def test_in_place_check_matches_the_assembled_stream(scenario):
    expected, segments = scenario
    collector = collect(segments)
    received = collector.server_stream(SERVER, SPORT, CPORT)
    assert received == reference_stream(segments)
    check = collector.check_server_stream(SERVER, SPORT, CPORT, expected)
    assert check == old_verdicts(received, expected)


def test_pinned_verdicts():
    """One case of each verdict, so the differential cannot agree vacuously."""
    response = b"HTTP/1.1 200 OK\r\n\r\nbody"

    def check(segments):
        return collect(segments).check_server_stream(SERVER, SPORT, CPORT, response)

    assert check(_sent(response, 5, 17)) == (True, False)
    assert check(_sent(response, 5)[::-1] + _sent(response, 3, 11)) == (True, False)
    assert check(_sent(b"HTTP/1.1 404 OK\r\n\r\nbody", 5)) == (False, True)
    assert check(_sent(response, 5)[:1]) == (False, False)
    assert check(_sent(response + b"tail", 5)) == (False, False)
    assert collect([]).check_server_stream(SERVER, SPORT, CPORT, b"") == (True, False)
