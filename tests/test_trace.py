"""Unit tests for the trace record/replay format."""

import pytest

from repro.packets.flow import Direction
from repro.traffic.trace import Trace, TracePacket, invert_bits


def dialogue():
    return Trace(
        name="demo",
        protocol="tcp",
        server_port=80,
        packets=[
            TracePacket(Direction.CLIENT_TO_SERVER, b"req-1", 0.0),
            TracePacket(Direction.SERVER_TO_CLIENT, b"resp-1", 0.1),
            TracePacket(Direction.CLIENT_TO_SERVER, b"req-22", 0.2),
            TracePacket(Direction.SERVER_TO_CLIENT, b"resp-22", 0.3),
        ],
        metadata={"application": "demo"},
    )


class TestInvertBits:
    def test_involution(self):
        data = bytes(range(256))
        assert invert_bits(invert_bits(data)) == data

    def test_every_bit_differs(self):
        data = b"GET / HTTP/1.1"
        inverted = invert_bits(data)
        assert all(a ^ b == 0xFF for a, b in zip(data, inverted))

    def test_empty(self):
        assert invert_bits(b"") == b""

    def test_translate_table_equals_per_byte_complement(self):
        every_byte = bytes(range(256))
        for data in (every_byte, every_byte[::-1], bytearray(b"\x00\xffmixed"), b""):
            assert invert_bits(data) == bytes((~b) & 0xFF for b in data)
            assert type(invert_bits(data)) is bytes
        for value in range(256):
            assert invert_bits(bytes([value])) == bytes([(~value) & 0xFF])


class TestTraceViews:
    def test_client_payloads(self):
        assert dialogue().client_payloads() == [b"req-1", b"req-22"]

    def test_server_payloads(self):
        assert dialogue().server_payloads() == [b"resp-1", b"resp-22"]

    def test_byte_concatenation(self):
        assert dialogue().client_bytes() == b"req-1req-22"
        assert dialogue().server_bytes() == b"resp-1resp-22"

    def test_total_bytes(self):
        assert dialogue().total_bytes() == sum(len(p.payload) for p in dialogue().packets)

    def test_replay_steps_thresholds(self):
        steps = dialogue().replay_steps()
        assert [(s.client_bytes_threshold, s.response) for s in steps] == [
            (5, b"resp-1"),
            (11, b"resp-22"),
        ]

    def test_udp_response_script(self):
        trace = Trace(
            name="u",
            protocol="udp",
            server_port=3478,
            packets=[
                TracePacket(Direction.CLIENT_TO_SERVER, b"c0"),
                TracePacket(Direction.SERVER_TO_CLIENT, b"s0"),
                TracePacket(Direction.CLIENT_TO_SERVER, b"c1"),
            ],
        )
        assert trace.udp_response_script() == {0: [b"s0"]}


class TestTransformations:
    def test_inverted_both_directions(self):
        inverted = dialogue().inverted()
        assert inverted.client_payloads()[0] == invert_bits(b"req-1")
        assert inverted.server_payloads()[0] == invert_bits(b"resp-1")
        assert "inverted" in inverted.name

    def test_with_client_payloads(self):
        modified = dialogue().with_client_payloads([b"AAAAA", b"BBBBBB"])
        assert modified.client_payloads() == [b"AAAAA", b"BBBBBB"]
        assert modified.server_payloads() == dialogue().server_payloads()

    def test_with_client_payloads_count_checked(self):
        with pytest.raises(ValueError):
            dialogue().with_client_payloads([b"only-one"])

    def test_with_server_payloads(self):
        modified = dialogue().with_server_payloads([b"X", b"Y"])
        assert modified.server_payloads() == [b"X", b"Y"]
        assert modified.client_payloads() == dialogue().client_payloads()

    def test_with_server_port(self):
        assert dialogue().with_server_port(8080).server_port == 8080

    def test_prepend_client_payloads(self):
        modified = dialogue().prepend_client_payloads([b"pad1", b"pad2"])
        assert modified.client_payloads() == [b"pad1", b"pad2", b"req-1", b"req-22"]

    def test_original_untouched(self):
        trace = dialogue()
        trace.inverted()
        trace.prepend_client_payloads([b"x"])
        assert trace.client_payloads() == [b"req-1", b"req-22"]


class TestPersistence:
    def test_json_roundtrip(self):
        trace = dialogue()
        restored = Trace.from_json(trace.to_json())
        assert restored.name == trace.name
        assert restored.protocol == trace.protocol
        assert restored.server_port == trace.server_port
        assert restored.metadata == trace.metadata
        assert [p.payload for p in restored.packets] == [p.payload for p in trace.packets]
        assert [p.direction for p in restored.packets] == [p.direction for p in trace.packets]

    def test_save_load(self, tmp_path):
        target = tmp_path / "trace.json"
        dialogue().save(target)
        restored = Trace.load(target)
        assert restored.client_bytes() == dialogue().client_bytes()

    def test_binary_payload_roundtrip(self):
        trace = Trace(
            name="b",
            protocol="udp",
            server_port=53,
            packets=[TracePacket(Direction.CLIENT_TO_SERVER, bytes(range(256)))],
        )
        assert Trace.from_json(trace.to_json()).packets[0].payload == bytes(range(256))


class TestValidation:
    def test_protocol_checked(self):
        with pytest.raises(ValueError):
            Trace(name="x", protocol="icmp", server_port=80)

    def test_port_checked(self):
        with pytest.raises(ValueError):
            Trace(name="x", protocol="tcp", server_port=0)
