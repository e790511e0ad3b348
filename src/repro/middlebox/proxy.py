"""A transparent HTTP proxy middlebox (AT&T Stream Saver).

AT&T's Stream Saver terminates port-80 TCP connections: it is an endpoint,
not a passive observer.  That defeats every unilateral evasion technique in
the paper's taxonomy (Table 3's all-× AT&T column) because the proxy
validates packets like a host, reassembles the stream, and forwards a
*normalized* copy.  The only way around it the paper found is to leave its
scope entirely — use a port other than 80 (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.middlebox.flowtable import FlowTable
from repro.netsim.element import NetworkElement, TransitContext
from repro.netsim.shaper import PolicyState
from repro.packets.flow import Direction, FiveTuple
from repro.packets.fragment import FragmentBuffer
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

_FIN_ACK = TCPFlags.FIN | TCPFlags.ACK
_ACK_PSH = TCPFlags.ACK | TCPFlags.PSH

PROXY_MSS = 1460
#: Bound on tracked proxied connections; beyond it the least recently
#: active connection is evicted (closed ones preferred).
MAX_CONNECTIONS = 65536
ANCHORS = (b"GET", b"POST", b"HEAD", b"PUT")


@dataclass
class _ProxiedConnection:
    client: str
    client_port: int
    server: str
    server_port: int
    expected_seq: int
    emit_seq: int
    ooo: dict[int, bytes] = field(default_factory=dict)
    # Scan windows: the stream bytes a keyword not yet found could still
    # span.  After each scan a window keeps its last (longest keyword - 1)
    # bytes, or none once its side has found every keyword, and a matched
    # side is fed no more.  The client window is kept whole until four
    # bytes are seen, when ``anchored`` is settled.
    client_buffer: bytearray = field(default_factory=bytearray)
    server_buffer: bytearray = field(default_factory=bytearray)
    client_found: set[bytes] = field(default_factory=set)
    server_found: set[bytes] = field(default_factory=set)
    anchored: bool | None = None
    client_matched: bool = False
    server_matched: bool = False
    throttled: bool = False
    closed: bool = False


class TransparentHTTPProxy(NetworkElement):
    """Terminates and re-originates port-80 TCP flows, classifying in between.

    Args:
        policy_state: shared marks (throttle) read by the path shaper.
        ports: TCP server ports the proxy intercepts (Stream Saver: {80}).
        client_keywords: patterns that must all appear in the client stream.
        server_keywords: patterns that must all appear in the server stream.
        throttle_rate_bps: shaping rate applied once both sides match.

    Each of at most :data:`MAX_CONNECTIONS` tracked connections buffers at
    most its scan windows: max(4, longest keyword - 1) bytes a side after
    a scan.
    """

    def __init__(
        self,
        policy_state: PolicyState,
        ports: frozenset[int] = frozenset({80}),
        client_keywords: tuple[bytes, ...] = (b"GET", b"HTTP/1.1"),
        server_keywords: tuple[bytes, ...] = (b"Content-Type: video",),
        throttle_rate_bps: float = 1_500_000.0,
        name: str = "transparent-proxy",
    ) -> None:
        self.name = name
        self.policy_state = policy_state
        self.ports = frozenset(ports)
        self.client_keywords = tuple(client_keywords)
        self.server_keywords = tuple(server_keywords)
        self.throttle_rate_bps = throttle_rate_bps
        # A window's tail: enough to hold all but the last byte of any keyword.
        self._client_keep = max(map(len, self.client_keywords), default=1) - 1
        self._server_keep = max(map(len, self.server_keywords), default=1) - 1
        self._connections: FlowTable[tuple[str, int, str, int], _ProxiedConnection] = FlowTable(
            capacity=MAX_CONNECTIONS,
            prefer_victim=lambda conn: conn.closed,
            name="proxy",
        )
        self._fragments = FragmentBuffer(name="proxy_fragments")
        self.dropped: list[IPPacket] = []

    # ------------------------------------------------------------------
    # element interface
    # ------------------------------------------------------------------
    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Terminate in-scope flows; forward everything else untouched."""
        if packet.mf or packet.frag_offset > 0:
            whole, _fragments = self._fragments.feed(packet, ctx.clock.now)
            if whole is None:
                return []  # the proxy host buffers fragments; nothing forwards yet
            packet = whole
        tcp = packet.transport
        declared = packet.protocol
        if type(tcp) is not TCPSegment or not (declared is None or declared == 6):
            return [packet]  # non-TCP (including wrong-protocol packets) is tunneled
        in_scope = (
            tcp.dport in self.ports
            if direction is Direction.CLIENT_TO_SERVER
            else tcp.sport in self.ports
        )
        if not in_scope:
            return [packet]
        if direction is Direction.CLIENT_TO_SERVER:
            return self._client_to_server(packet, tcp)
        return self._server_to_client(packet, tcp)

    def reset(self) -> None:
        """Forget all proxied connections."""
        self._connections.clear()
        self._fragments.clear()
        self.dropped.clear()

    # ------------------------------------------------------------------
    # client → server leg (the terminated side)
    # ------------------------------------------------------------------
    def _client_to_server(self, packet: IPPacket, tcp: TCPSegment) -> list[IPPacket]:
        if not self._host_grade_valid(packet, tcp):
            self.dropped.append(packet)
            return []
        key = (packet.src, tcp.sport, packet.dst, tcp.dport)
        conn = self._connections.get(key)  # touches the LRU chain

        flags = int(tcp.flags)
        if flags & 0x12 == 0x02:  # SYN without ACK
            self._connections.insert(key, _ProxiedConnection(
                client=packet.src,
                client_port=tcp.sport,
                server=packet.dst,
                server_port=tcp.dport,
                expected_seq=(tcp.seq + 1) & 0xFFFFFFFF,
                emit_seq=(tcp.seq + 1) & 0xFFFFFFFF,
            ))
            return [packet]  # the handshake is relayed

        if conn is None:
            return []  # mid-flow traffic for a connection we never saw
        if flags & 0x04:  # RST
            conn.closed = True
            return [packet]
        if conn.closed:
            return []

        forwarded: list[IPPacket] = []
        if tcp.payload:
            fresh = self._reassemble(conn, tcp)
            if fresh:
                if not conn.client_matched:
                    conn.client_buffer.extend(fresh)
                self._classify(conn)
                forwarded.extend(self._normalized_packets(packet, conn, fresh))
        else:
            forwarded.append(packet)  # bare ACKs keep the far handshake moving
        if flags & 0x01:  # FIN
            conn.closed = True
            fin = TCPSegment(
                sport=conn.client_port,
                dport=conn.server_port,
                seq=conn.emit_seq,
                ack=tcp.ack,
                flags=_FIN_ACK,
            )
            forwarded.append(IPPacket(src=conn.client, dst=conn.server, transport=fin))
        return forwarded

    def _server_to_client(self, packet: IPPacket, tcp: TCPSegment) -> list[IPPacket]:
        key = (packet.dst, tcp.dport, packet.src, tcp.sport)
        conn = self._connections.get(key)  # touches the LRU chain
        if conn is not None and tcp.payload:
            if not conn.server_matched:
                conn.server_buffer.extend(tcp.payload)
            self._classify(conn)
        return [packet]

    # ------------------------------------------------------------------
    # host-grade validation: the proxy is an endpoint
    # ------------------------------------------------------------------
    def _host_grade_valid(self, packet: IPPacket, tcp: TCPSegment) -> bool:
        if not (
            packet.has_valid_version()
            and packet.has_valid_ihl()
            and packet.has_valid_total_length()
            and packet.has_valid_checksum()
        ):
            return False
        if packet.padded_options and not packet.has_wellformed_options():
            return False
        if not tcp.has_valid_data_offset():
            return False
        if not tcp.verify_checksum(packet.src, packet.dst):
            return False
        if not tcp.flags.is_valid_combination():
            return False
        flags = int(tcp.flags)
        if tcp.payload and not flags & 0x06 and not flags & 0x10:  # data needs SYN/RST/ACK
            return False
        return True

    # ------------------------------------------------------------------
    # stream machinery
    # ------------------------------------------------------------------
    def _reassemble(self, conn: _ProxiedConnection, tcp: TCPSegment) -> bytes:
        seq, payload = tcp.seq, tcp.payload
        ahead = (seq - conn.expected_seq) & 0xFFFFFFFF
        if 0 < ahead < 0x8000_0000:
            conn.ooo.setdefault(seq, payload)
            return b""
        if ahead != 0:
            behind = 0x1_0000_0000 - ahead
            if behind >= len(payload):
                return b""
            payload = payload[behind:]
            seq = conn.expected_seq
        fresh = bytearray(payload)
        conn.expected_seq = (conn.expected_seq + len(payload)) & 0xFFFFFFFF
        while conn.expected_seq in conn.ooo:
            chunk = conn.ooo.pop(conn.expected_seq)
            fresh.extend(chunk)
            conn.expected_seq = (conn.expected_seq + len(chunk)) & 0xFFFFFFFF
        return bytes(fresh)

    def _normalized_packets(
        self, original: IPPacket, conn: _ProxiedConnection, data: bytes
    ) -> list[IPPacket]:
        packets = []
        for offset in range(0, len(data), PROXY_MSS):
            chunk = data[offset : offset + PROXY_MSS]
            segment = TCPSegment(
                sport=conn.client_port,
                dport=conn.server_port,
                seq=conn.emit_seq,
                ack=original.tcp.ack if original.tcp else 0,
                flags=_ACK_PSH,
                payload=chunk,
            )
            conn.emit_seq = (conn.emit_seq + len(chunk)) & 0xFFFFFFFF
            packets.append(IPPacket(src=conn.client, dst=conn.server, transport=segment))
        return packets

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _classify(self, conn: _ProxiedConnection) -> None:
        if conn.throttled:
            return
        if not conn.client_matched:
            buffer = conn.client_buffer
            anchored = conn.anchored
            if anchored is None:  # the head is still in the window
                anchored = bytes(buffer[:4]).startswith(ANCHORS)
                if len(buffer) >= 4:
                    conn.anchored = anchored
            done = self._scan_window(buffer, self.client_keywords, conn.client_found)
            conn.client_matched = anchored and done
            if conn.anchored is not None:
                self._trim_window(buffer, done, self._client_keep)
        if not conn.server_matched:
            buffer = conn.server_buffer
            conn.server_matched = done = self._scan_window(
                buffer, self.server_keywords, conn.server_found
            )
            self._trim_window(buffer, done, self._server_keep)
        if conn.client_matched and conn.server_matched:
            conn.throttled = True
            key = FiveTuple(
                src=conn.client,
                sport=conn.client_port,
                dst=conn.server,
                dport=conn.server_port,
                protocol=6,
            )
            self.policy_state.throttle(key, self.throttle_rate_bps)

    @staticmethod
    def _scan_window(buffer: bytearray, keywords: tuple[bytes, ...], found: set[bytes]) -> bool:
        """Add the keywords in *buffer* to *found*; True once all are found.

        Equivalent to ``k in stream`` over the whole stream so far: a
        keyword not yet found occurs nowhere in the bytes already scanned,
        so any occurrence ends in the fresh bytes and starts at most
        ``len(k) - 1`` bytes before them, inside the window's kept tail.
        """
        for keyword in keywords:
            if keyword not in found and keyword in buffer:
                found.add(keyword)
        return len(found) == len(keywords)

    @staticmethod
    def _trim_window(buffer: bytearray, done: bool, keep: int) -> None:
        """Empty a finished window; otherwise keep its last *keep* bytes."""
        excess = len(buffer) if done else len(buffer) - keep
        if excess > 0:
            del buffer[:excess]
