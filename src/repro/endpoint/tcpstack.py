"""A simplified server-side TCP stack with OS-specific validation.

Faithful enough for the reproduction: three-way handshake, cumulative
acknowledgment, in-order delivery with an out-of-order reassembly buffer,
FIN/RST teardown — and, critically, the per-OS verdicts from
:mod:`repro.endpoint.osmodel` applied to every arriving packet, since those
verdicts decide whether lib·erate's crafted packets are truly inert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.endpoint.osmodel import LINUX, OSProfile, Verdict
from repro.packets.flow import FiveTuple
from repro.packets.fragment import FragmentBuffer
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

MTU_PAYLOAD = 1460
SERVER_ISN = 100_000

_SYN_ACK = TCPFlags.SYN | TCPFlags.ACK
_ACK_PSH = TCPFlags.ACK | TCPFlags.PSH
_RST_ACK = TCPFlags.RST | TCPFlags.ACK
_FIN, _SYN, _RST, _ACK = 0x01, 0x02, 0x04, 0x10


class TCPApp(Protocol):
    """Application attached to the TCP server stack."""

    def on_connect(self, conn_id: FiveTuple) -> None:
        """Called when a connection completes its handshake."""

    def on_data(self, conn_id: FiveTuple, data: bytes) -> bytes:
        """Called with newly delivered in-order bytes; returns response bytes."""


class NullTCPApp:
    """Accepts everything, responds with nothing."""

    def on_connect(self, conn_id: FiveTuple) -> None:  # noqa: D102 - protocol impl
        pass

    def on_data(self, conn_id: FiveTuple, data: bytes) -> bytes:  # noqa: D102
        return b""


@dataclass
class _Connection:
    client: str
    client_port: int
    server_port: int
    state: str = "syn-rcvd"  # syn-rcvd | established | closed
    expected_seq: int = 0
    server_seq: int = SERVER_ISN + 1
    stream: bytearray = field(default_factory=bytearray)
    ooo: dict[int, bytes] = field(default_factory=dict)
    reset_received: bool = False
    sent: bytearray = field(default_factory=bytearray)  # response bytes, for retransmission


class TCPServerStack:
    """A TCP endpoint listening on one address, validated per an OS profile.

    Args:
        address: the server's IP address.
        os_profile: which operating system's validation quirks to apply.
        app: application receiving the delivered byte stream.
        ports: set of listening ports (None accepts any port).
        retransmit_enabled: honour duplicate ACKs by retransmitting the
            unacknowledged tail of the response stream (enabled on lossy
            fault-injected networks; off by default so the fault-free packet
            sequence is unchanged).

    Attributes:
        raw_arrivals: every packet that physically reached the endpoint —
            including ones the OS then dropped.  This is what the RS?
            ("reaches server?") measurement reads.
        rst_sent: RSTs the stack emitted (Windows' response to invalid flag
            combinations shows up here).
    """

    def __init__(
        self,
        address: str,
        os_profile: OSProfile = LINUX,
        app: TCPApp | None = None,
        ports: set[int] | None = None,
        retransmit_enabled: bool = False,
    ) -> None:
        self.address = address
        self.os_profile = os_profile
        self.app = app if app is not None else NullTCPApp()
        self.ports = ports
        self.retransmit_enabled = retransmit_enabled
        self.raw_arrivals: list[IPPacket] = []
        self.rst_sent: list[IPPacket] = []
        self.delivered_junk = False
        self._connections: dict[tuple[str, int, int], _Connection] = {}
        self._fragments = FragmentBuffer()

    # ------------------------------------------------------------------
    # endpoint interface
    # ------------------------------------------------------------------
    def receive(self, packet: IPPacket) -> list[IPPacket]:
        """Validate and process one arriving packet; return response packets."""
        self.raw_arrivals.append(packet)
        if packet.dst != self.address:
            return []
        if packet.mf or packet.frag_offset > 0:
            # Every mainstream OS reassembles IP fragments in the IP layer.
            whole, _fragments = self._fragments.feed(packet)
            if whole is None:
                return []
            packet = whole
        if self.os_profile.verdict_for_ip(packet) is not Verdict.DELIVER:
            return []
        segment = packet.transport
        declared = packet.protocol
        if type(segment) is not TCPSegment or not (declared is None or declared == 6):
            return []
        if self.ports is not None and segment.dport not in self.ports:
            return [self._rst_for(packet, segment)]
        return self._handle_segment(packet, segment)

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _handle_segment(self, packet: IPPacket, segment: TCPSegment) -> list[IPPacket]:
        key = (packet.src, segment.sport, segment.dport)
        conn = self._connections.get(key)
        expected = conn.expected_seq if conn and conn.state == "established" else None
        verdict = self.os_profile.verdict_for_tcp(packet, segment, expected)
        if verdict is Verdict.DROP:
            return []
        if verdict is Verdict.RST:
            if conn:
                conn.state = "closed"
            return [self._rst_for(packet, segment)]

        flags = int(segment.flags)
        if flags & _RST:
            if conn:
                conn.reset_received = True
                conn.state = "closed"
            return []

        if flags & _SYN and not flags & _ACK:
            conn = _Connection(
                client=packet.src,
                client_port=segment.sport,
                server_port=segment.dport,
                expected_seq=(segment.seq + 1) & 0xFFFFFFFF,
            )
            self._connections[key] = conn
            synack = TCPSegment(
                segment.dport, segment.sport, SERVER_ISN, conn.expected_seq, flags=_SYN_ACK
            )
            return [IPPacket(self.address, packet.src, synack)]

        if conn is None or conn.state == "closed":
            return []

        responses: list[IPPacket] = []
        if conn.state == "syn-rcvd" and flags & _ACK:
            conn.state = "established"
            self.app.on_connect(self._conn_id(conn))

        if segment.payload:
            delivered = self._accept_payload(conn, segment)
            if delivered:
                reply = self.app.on_data(self._conn_id(conn), delivered)
                responses.extend(self._data_packets(conn, reply))
            responses.append(self._ack_packet(conn))
        elif (
            self.retransmit_enabled
            and conn.state == "established"
            and flags == _ACK
        ):
            responses.extend(self._retransmit_for(conn, segment.ack))

        if flags & _FIN:
            conn.expected_seq = (conn.expected_seq + 1) & 0xFFFFFFFF
            conn.state = "closed"
            responses.append(self._ack_packet(conn))

        return responses

    def _accept_payload(self, conn: _Connection, segment: TCPSegment) -> bytes:
        """Insert payload into the reassembly buffer; return newly in-order bytes."""
        seq = segment.seq
        payload = segment.payload
        ahead = (seq - conn.expected_seq) & 0xFFFFFFFF
        if 0 < ahead < 0x8000_0000:
            # Future data: buffer for later (first copy at a given seq wins).
            conn.ooo.setdefault(seq, payload)
            return b""
        if ahead != 0:
            # Old data: trim the prefix we already delivered (overlap), or drop.
            behind = 0x1_0000_0000 - ahead
            if behind >= len(payload):
                return b""  # entirely old data
            payload = payload[behind:]
            seq = conn.expected_seq
        delivered = bytearray(payload)
        conn.expected_seq = (conn.expected_seq + len(payload)) & 0xFFFFFFFF
        # Drain contiguous out-of-order segments.
        while conn.expected_seq in conn.ooo:
            chunk = conn.ooo.pop(conn.expected_seq)
            delivered.extend(chunk)
            conn.expected_seq = (conn.expected_seq + len(chunk)) & 0xFFFFFFFF
        conn.stream.extend(delivered)
        return bytes(delivered)

    # ------------------------------------------------------------------
    # packet builders
    # ------------------------------------------------------------------
    def _conn_id(self, conn: _Connection) -> FiveTuple:
        return FiveTuple(
            src=conn.client,
            sport=conn.client_port,
            dst=self.address,
            dport=conn.server_port,
            protocol=6,
        )

    def _ack_packet(self, conn: _Connection) -> IPPacket:
        ack = TCPSegment(conn.server_port, conn.client_port, conn.server_seq, conn.expected_seq)
        return IPPacket(self.address, conn.client, ack)

    def _data_packets(self, conn: _Connection, data: bytes) -> list[IPPacket]:
        packets = []
        for offset in range(0, len(data), MTU_PAYLOAD):
            chunk = data[offset : offset + MTU_PAYLOAD]
            segment = TCPSegment(
                conn.server_port, conn.client_port, conn.server_seq, conn.expected_seq,
                flags=_ACK_PSH, payload=chunk,
            )
            conn.server_seq = (conn.server_seq + len(chunk)) & 0xFFFFFFFF
            packets.append(IPPacket(self.address, conn.client, segment))
        if self.retransmit_enabled:
            conn.sent.extend(data)
        return packets

    def _retransmit_for(self, conn: _Connection, ack: int) -> list[IPPacket]:
        """Resend the response tail a duplicate ACK says the client is missing."""
        behind = (conn.server_seq - ack) & 0xFFFFFFFF
        if not (0 < behind < 0x8000_0000) or behind > len(conn.sent):
            return []
        tail = bytes(conn.sent[len(conn.sent) - behind :])
        packets = []
        seq = ack
        for offset in range(0, len(tail), MTU_PAYLOAD):
            chunk = tail[offset : offset + MTU_PAYLOAD]
            segment = TCPSegment(
                conn.server_port, conn.client_port, seq, conn.expected_seq,
                flags=_ACK_PSH, payload=chunk,
            )
            seq = (seq + len(chunk)) & 0xFFFFFFFF
            packets.append(IPPacket(self.address, conn.client, segment))
        return packets

    def _rst_for(self, packet: IPPacket, segment: TCPSegment) -> IPPacket:
        rst = TCPSegment(
            segment.dport,
            segment.sport,
            segment.ack,
            (segment.seq + len(segment.payload)) & 0xFFFFFFFF,
            flags=_RST_ACK,
        )
        reply = IPPacket(self.address, packet.src, rst)
        self.rst_sent.append(reply)
        return reply

    # ------------------------------------------------------------------
    # inspection helpers used by the evaluation harness
    # ------------------------------------------------------------------
    def stream_for(self, client: str, client_port: int, server_port: int) -> bytes:
        """The in-order byte stream delivered to the app for one connection."""
        conn = self._connections.get((client, client_port, server_port))
        return bytes(conn.stream) if conn else b""

    def streams(self) -> list[bytes]:
        """All delivered streams, in connection-creation order."""
        return [bytes(c.stream) for c in self._connections.values()]

    def connection_count(self) -> int:
        """Number of connections the stack has seen."""
        return len(self._connections)

    def reset(self) -> None:
        """Forget all connections and diagnostics."""
        self._connections.clear()
        self._fragments.clear()
        self.raw_arrivals.clear()
        self.rst_sent.clear()
        self.delivered_junk = False
