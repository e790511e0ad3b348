"""The compiled TCP replay script against the per-packet script it replaced.

``Trace.replay_steps`` emits one step per distinct client-byte threshold,
joining the run of server payloads recorded at that count.  The reference
below keeps one step per recorded server payload and the loop that fired
every step whose threshold the running client total had reached; both must
answer every ``on_data`` call with the same bytes.  The blinding copies
(``with_client_payloads``/``with_server_payloads``) are held to the full
copy they replaced and must share every packet whose payload is unchanged.
"""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.endpoint.apps import ReplayServerApp
from repro.packets.flow import Direction, FiveTuple
from repro.traffic.trace import Trace, TracePacket

C2S, S2C = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
CONNS = (
    FiveTuple("10.0.0.1", 40001, "10.0.0.2", 80, 6),
    FiveTuple("10.0.0.1", 40002, "10.0.0.2", 80, 6),
)

# Short payloads, often empty, so that runs of one direction, empty client
# packets between server payloads and server-first dialogues are common.
payloads = st.one_of(st.just(b""), st.binary(min_size=1, max_size=12))
dialogues = st.lists(st.tuples(st.sampled_from([C2S, S2C]), payloads), max_size=24)


def make_trace(spec) -> Trace:
    return Trace(
        name="prop",
        protocol="tcp",
        server_port=80,
        packets=[TracePacket(direction, payload) for direction, payload in spec],
    )


class PerPacketReplayApp:
    """Reference: one step per recorded server payload, fired in order."""

    def __init__(self, trace: Trace) -> None:
        self.steps: list[tuple[int, bytes]] = []
        client_total = 0
        for packet in trace.packets:
            if packet.direction is C2S:
                client_total += len(packet.payload)
            else:
                self.steps.append((client_total, packet.payload))
        self._progress: dict[FiveTuple, tuple[int, int]] = {}

    def on_data(self, conn_id: FiveTuple, data: bytes) -> bytes:
        total, index = self._progress.get(conn_id, (0, 0))
        total += len(data)
        out = bytearray()
        while index < len(self.steps) and total >= self.steps[index][0]:
            out.extend(self.steps[index][1])
            index += 1
        self._progress[conn_id] = (total, index)
        return bytes(out)


def chunked(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted(c % (len(data) + 1) for c in cuts), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


class TestCompiledScript:
    @given(dialogues)
    def test_thresholds_rise_and_responses_join_to_the_server_stream(self, spec):
        trace = make_trace(spec)
        steps = trace.replay_steps()
        thresholds = [step.client_bytes_threshold for step in steps]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        assert b"".join(step.response for step in steps) == trace.server_bytes()

    @given(dialogues, st.data())
    def test_every_call_matches_the_per_packet_script(self, spec, data):
        trace = make_trace(spec)
        # Extra trailing bytes beyond the recording are tolerated by both.
        stream = trace.client_bytes() + data.draw(st.binary(max_size=4))
        calls = [
            (conn, chunk)
            for conn in CONNS
            for chunk in chunked(stream, data.draw(st.lists(st.integers(0, 400), max_size=8)))
        ]
        order = data.draw(st.permutations(range(len(calls))))
        # Keep each connection's chunks in order while interleaving the two.
        pending = {conn: [c for c in calls if c[0] == conn] for conn in CONNS}
        interleaved = [pending[calls[i][0]].pop(0) for i in order]

        compiled = ReplayServerApp(trace.replay_steps())
        reference = PerPacketReplayApp(trace)
        received = {conn: bytearray() for conn in CONNS}
        for conn in CONNS:
            compiled.on_connect(conn)
        for conn, chunk in interleaved:
            got = compiled.on_data(conn, chunk)
            assert got == reference.on_data(conn, chunk)
            received[conn].extend(got)
        for conn in CONNS:
            assert bytes(received[conn]) == trace.server_bytes()
            assert compiled.stream(conn) == stream

    def test_a_single_fired_step_is_returned_uncopied(self):
        body = bytes(range(256)) * 8
        trace = make_trace([(C2S, b"GET"), (S2C, body[:1000]), (S2C, body[1000:])])
        (step,) = trace.replay_steps()
        app = ReplayServerApp([step])
        app.on_connect(CONNS[0])
        assert app.on_data(CONNS[0], b"GET") is step.response


class TestBlindingCopies:
    @staticmethod
    def full_copy(trace: Trace, direction: Direction, new: list[bytes]) -> list[TracePacket]:
        """The replacement the copies used to make: every packet of *direction*."""
        payload_iter = iter(new)
        return [
            replace(p, payload=next(payload_iter)) if p.direction is direction else p
            for p in trace.packets
        ]

    @given(dialogues, st.data())
    @pytest.mark.parametrize("direction", [C2S, S2C])
    def test_equal_to_the_full_copy_and_sharing_unchanged_packets(self, direction, spec, data):
        trace = make_trace(spec)
        before = list(trace.packets)
        originals = [p.payload for p in trace.packets if p.direction is direction]
        # Each payload is kept (same object), or replaced by a new object,
        # which may hold equal bytes.
        new = [
            data.draw(st.one_of(st.just(p), st.builds(bytearray, payloads).map(bytes)))
            for p in originals
        ]
        if direction is C2S:
            copy = trace.with_client_payloads(new)
        else:
            copy = trace.with_server_payloads(new)
        assert copy.packets == self.full_copy(trace, direction, new)
        assert trace.packets == before
        changed = iter(n is not o for n, o in zip(new, originals))
        for old, packet in zip(trace.packets, copy.packets):
            if old.direction is not direction or not next(changed):
                assert packet is old
            else:
                assert packet is not old

    def test_payload_count_mismatch_raises(self):
        trace = make_trace([(C2S, b"a"), (S2C, b"b")])
        with pytest.raises(ValueError):
            trace.with_client_payloads([])
        with pytest.raises(ValueError):
            trace.with_server_payloads([b"x", b"y"])

    def test_packets_are_frozen(self):
        packet = TracePacket(C2S, b"a")
        with pytest.raises(AttributeError):
            packet.payload = b"b"
