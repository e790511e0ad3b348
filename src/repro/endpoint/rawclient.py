"""Raw packet clients — the sending half lib·erate controls.

lib·erate runs as a transparent proxy with raw-socket access, so the client
side here is deliberately *not* a well-behaved kernel stack: it crafts every
segment itself, can freeze arbitrary header fields, reorder, fragment, and
insert inert packets.  Received packets are gathered by a
:class:`ClientCollector` for inspection (RST detection, block pages, ICMP
Time Exceeded during localization).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.netsim.path import Path
from repro.packets.icmp import ICMP_TIME_EXCEEDED
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

CLIENT_ISN = 7_000
MTU_PAYLOAD = 1460

# Prototypes cloned by the crafting hot path (see tcpstack for rationale).
_SEG_PROTO = TCPSegment()
_IP_PROTO = IPPacket(src="0.0.0.0", dst="0.0.0.0")
_ACK_PSH = TCPFlags.ACK | TCPFlags.PSH

#: The block-page signature differentiation detection looks for (indexed at
#: arrival by :class:`ClientCollector` so observation never rescans payloads).
BLOCK_PAGE_MARKER = b"403 Forbidden"


class ClientCollector:
    """The client-side endpoint: records everything arriving at the client.

    When constructed with a clock, each arrival is timestamped (used for
    throughput measurement).
    """

    def __init__(self, clock=None) -> None:
        self.packets: list[IPPacket] = []
        self._rsts: list[IPPacket] = []
        # TCP data index: (time, src, sport, dport, seq, payload) per
        # payload-bearing segment, so throughput sampling and stream
        # reassembly never rescan the full packet list through properties.
        self._tcp_data: list[tuple[float, str, int, int, int, bytes]] = []
        self._block_page_seen = False
        self._clock = clock

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        """Record the packet; a raw client never auto-responds."""
        self.packets.append(packet)
        now = self._clock.now if self._clock is not None else 0.0
        # Inlined packet.tcp: this runs once per arriving packet.
        transport = packet.transport
        declared = packet.protocol
        tcp = (
            transport
            if type(transport) is TCPSegment and (declared is None or declared == 6)
            else None
        )
        if tcp is not None:
            if int(tcp.flags) & 0x04:  # RST index, see rst_packets
                self._rsts.append(packet)
            payload = tcp.payload
            if payload:
                self._tcp_data.append(
                    (now, packet.src, tcp.sport, tcp.dport, tcp.seq, payload)
                )
                if not self._block_page_seen and BLOCK_PAGE_MARKER in payload:
                    self._block_page_seen = True
        return []

    def tcp_data_samples(self, src: str) -> list[tuple[float, int]]:
        """(arrival time, payload length) for TCP data packets from *src*."""
        return [
            (t, len(payload))
            for t, source, _sport, _dport, _seq, payload in self._tcp_data
            if source == src
        ]

    def block_page_seen(self) -> bool:
        """True when any TCP payload carried the block-page signature."""
        return self._block_page_seen

    def rst_packets(self) -> list[IPPacket]:
        """All TCP RSTs received (indexed at arrival, not rescanned)."""
        return self._rsts

    def icmp_time_exceeded(self) -> list[IPPacket]:
        """All ICMP Time Exceeded messages received."""
        return [
            p
            for p in self.packets
            if p.icmp is not None and p.icmp.icmp_type == ICMP_TIME_EXCEEDED
        ]

    def _server_pieces(self, server: str, server_port: int, client_port: int) -> Iterator[bytes]:
        """The data the server sent back, as in-order pieces by sequence number.

        Overlap-aware: retransmitted chunks whose boundaries differ from the
        original transmission are trimmed against what earlier sequence
        numbers already covered, so duplicates never double-count.  Gaps are
        still collapsed (the caller compares against the expected stream).
        """
        chunks: dict[int, bytes] = {}
        for _t, src, sport, dport, seq, payload in self._tcp_data:
            if src != server or sport != server_port or dport != client_port:
                continue
            existing = chunks.get(seq)
            if existing is None or len(payload) > len(existing):
                chunks[seq] = payload
        max_end: int | None = None
        for seq in sorted(chunks):
            payload = chunks[seq]
            if max_end is not None and seq < max_end:
                if seq + len(payload) <= max_end:
                    continue  # entirely covered already
                payload = payload[max_end - seq :]
                seq = max_end
            yield payload
            max_end = seq + len(payload)

    def server_stream(self, server: str, server_port: int, client_port: int) -> bytes:
        """Reassemble (by sequence number) the data the server sent back."""
        return b"".join(self._server_pieces(server, server_port, client_port))

    def check_server_stream(
        self, server: str, server_port: int, client_port: int, expected: bytes
    ) -> tuple[bool, bool]:
        """``(equal, modified)`` for the server's stream against *expected*,
        read piece by piece without assembling it.

        *equal* is ``server_stream(...) == expected``; *modified* says the
        stream is as long as *expected* but differs from it.
        """
        received = 0
        same = True
        for piece in self._server_pieces(server, server_port, client_port):
            if same:
                same = expected.startswith(piece, received)
            received += len(piece)
        if received != len(expected):
            return False, False
        return same, not same

    def max_server_ack(self, server: str, server_port: int, client_port: int) -> int | None:
        """The highest cumulative ACK the server has sent us, or None."""
        best: int | None = None
        for p in self.packets:
            tcp = p.tcp
            if tcp is None or p.src != server:
                continue
            if tcp.sport != server_port or tcp.dport != client_port:
                continue
            flags = int(tcp.flags)
            if flags & 0x04 or not flags & 0x10:  # RST, or no ACK
                continue
            if best is None or tcp.ack > best:
                best = tcp.ack
        return best

    def udp_responses(self, server: str, server_port: int, client_port: int) -> list[bytes]:
        """UDP payloads the server sent back, in arrival order."""
        out = []
        for p in self.packets:
            udp = p.udp
            if udp is None or p.src != server:
                continue
            if udp.sport != server_port or udp.dport != client_port:
                continue
            out.append(udp.payload)
        return out

    def reset(self) -> None:
        """Forget everything received."""
        self.packets.clear()
        self._rsts.clear()
        self._tcp_data.clear()
        self._block_page_seen = False


@dataclass
class SegmentPlan:
    """Instructions for emitting one crafted TCP data packet.

    ``seq`` of None means "the connection's next in-order sequence number";
    the remaining fields override header values (None = correct value).
    """

    payload: bytes = b""
    seq: int | None = None
    advances_seq: bool = True  # inert packets repeat a seq without advancing it
    ttl: int | None = None
    flags: TCPFlags | None = None
    tcp_checksum: int | None = None
    data_offset: int | None = None
    ip_version: int | None = None
    ip_ihl: int | None = None
    ip_total_length_delta: int | None = None
    ip_protocol: int | None = None
    ip_checksum: int | None = None
    ip_options: bytes = b""
    pause_before: float = 0.0


def packet_from_plan(
    plan: SegmentPlan,
    src: str,
    dst: str,
    sport: int,
    dport: int,
    default_seq: int,
    ack: int,
    default_ttl: int = 64,
) -> IPPacket:
    """Materialize a :class:`SegmentPlan` into a concrete packet.

    Shared by the raw client and by harnesses that need the crafted packet
    without a live connection (e.g. the per-OS server-response matrix).
    """
    seq = default_seq if plan.seq is None else plan.seq
    segment = _SEG_PROTO.copy(
        sport=sport,
        dport=dport,
        seq=seq,
        ack=ack,
        flags=plan.flags if plan.flags is not None else _ACK_PSH,
        payload=plan.payload,
        checksum=plan.tcp_checksum,
        data_offset=plan.data_offset,
    )
    packet = _IP_PROTO.copy(
        src=src,
        dst=dst,
        transport=segment,
        ttl=plan.ttl if plan.ttl is not None else default_ttl,
        options=plan.ip_options,
    )
    if plan.ip_version is not None:
        packet.version = plan.ip_version
    if plan.ip_ihl is not None:
        packet.ihl = plan.ip_ihl
    if plan.ip_total_length_delta is not None:
        packet.total_length = packet.wire_length() + plan.ip_total_length_delta
    if plan.ip_protocol is not None:
        packet.protocol = plan.ip_protocol
    if plan.ip_checksum is not None:
        packet.checksum = plan.ip_checksum
    return packet


def _plan_is_plain(plan: SegmentPlan) -> bool:
    """True when a plan is ordinary stream data, safe to retransmit verbatim.

    Plans that freeze header fields, limit TTL, or override flags are
    technique probes — retransmitting those would change what the middlebox
    and server observe, so they are never tracked for ARQ.
    """
    return (
        plan.ttl is None
        and plan.flags is None
        and plan.tcp_checksum is None
        and plan.data_offset is None
        and plan.ip_version is None
        and plan.ip_ihl is None
        and plan.ip_total_length_delta is None
        and plan.ip_protocol is None
        and plan.ip_checksum is None
        and not plan.ip_options
    )


class RawTCPClient:
    """A raw TCP sender bound to a simulated path.

    Args:
        path: the network path to send over (this client installs itself as
            the path's client endpoint).
        src / dst: client and server addresses.
        sport / dport: client and server ports.
        ttl: default TTL for well-formed packets.
        reliable: run lightweight ARQ on a lossy fault-injected path — SYN
            retry, tracked-data retransmission and server-stream gap repair.
            Off by default: the fault-free packet sequence is unchanged.
        max_retries: retry budget for each ARQ loop in reliable mode.
    """

    def __init__(
        self,
        path: Path,
        src: str,
        dst: str,
        sport: int = 40_000,
        dport: int = 80,
        ttl: int = 64,
        reliable: bool = False,
        max_retries: int = 4,
    ) -> None:
        self.path = path
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.ttl = ttl
        self.reliable = reliable
        self.max_retries = max_retries
        self.retransmissions = 0
        self.collector = ClientCollector(clock=path.clock)
        path.client_endpoint = self.collector
        self.next_seq = CLIENT_ISN
        self.server_ack = 0  # what we acknowledge of the server's stream
        self.established = False
        self._tracked: list[tuple[int, bytes]] = []  # (seq, payload) of plain stream data

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(self) -> bool:
        """Perform the three-way handshake; True on success.

        In reliable mode a lost SYN or SYN-ACK is retried (a duplicate SYN
        simply refreshes the server's half-open connection).
        """
        attempts = 1 + (self.max_retries if self.reliable else 0)
        synack = None
        for _ in range(attempts):
            syn = TCPSegment(
                sport=self.sport, dport=self.dport, seq=self.next_seq, flags=TCPFlags.SYN
            )
            self.path.send_from_client(
                IPPacket(src=self.src, dst=self.dst, transport=syn, ttl=self.ttl)
            )
            synack = self._find_synack()
            if synack is not None:
                break
            if self.reliable:
                self.retransmissions += 1
        if synack is None:
            return False
        self.next_seq += 1
        self.server_ack = (synack.tcp.seq + 1) & 0xFFFFFFFF  # type: ignore[union-attr]
        ack = TCPSegment(
            sport=self.sport,
            dport=self.dport,
            seq=self.next_seq,
            ack=self.server_ack,
            flags=TCPFlags.ACK,
        )
        self.path.send_from_client(IPPacket(src=self.src, dst=self.dst, transport=ack, ttl=self.ttl))
        self.established = True
        return True

    def _find_synack(self) -> IPPacket | None:
        for p in reversed(self.collector.packets):
            tcp = p.tcp
            if (
                tcp is not None
                and tcp.flags & TCPFlags.SYN
                and tcp.flags & TCPFlags.ACK
                and tcp.sport == self.dport
                and tcp.dport == self.sport
            ):
                return p
        return None

    def close(self) -> None:
        """Send a FIN for the current connection."""
        fin = TCPSegment(
            sport=self.sport,
            dport=self.dport,
            seq=self.next_seq,
            ack=self.server_ack,
            flags=TCPFlags.FIN | TCPFlags.ACK,
        )
        self.next_seq += 1
        self.path.send_from_client(IPPacket(src=self.src, dst=self.dst, transport=fin, ttl=self.ttl))

    def abort(self) -> None:
        """Send a RST for the current connection (full TTL)."""
        self.send_rst()

    def send_rst(self, ttl: int | None = None, seq: int | None = None) -> None:
        """Send a RST, optionally TTL-limited so only the middlebox sees it."""
        rst = TCPSegment(
            sport=self.sport,
            dport=self.dport,
            seq=self.next_seq if seq is None else seq,
            ack=self.server_ack,
            flags=TCPFlags.RST,
        )
        packet = IPPacket(
            src=self.src,
            dst=self.dst,
            transport=rst,
            ttl=self.ttl if ttl is None else ttl,
        )
        self.path.send_from_client(packet)

    # ------------------------------------------------------------------
    # data transmission
    # ------------------------------------------------------------------
    def _craft_plan(self, plan: SegmentPlan) -> IPPacket:
        """Craft the packet for *plan*, applying its clock/seq side effects."""
        if plan.pause_before > 0:
            self.path.clock.advance(plan.pause_before)
        packet = packet_from_plan(
            plan,
            src=self.src,
            dst=self.dst,
            sport=self.sport,
            dport=self.dport,
            default_seq=self.next_seq,
            ack=self.server_ack,
            default_ttl=self.ttl,
        )
        if self.reliable and plan.payload and plan.advances_seq and _plan_is_plain(plan):
            seq = self.next_seq if plan.seq is None else plan.seq
            self._tracked.append((seq, plan.payload))
        if plan.seq is None and plan.advances_seq:
            self.next_seq = (self.next_seq + len(plan.payload)) & 0xFFFFFFFF
        return packet

    def send_plan(self, plan: SegmentPlan) -> IPPacket:
        """Craft and send one packet per *plan*; returns the packet sent."""
        packet = self._craft_plan(plan)
        self.path.send_from_client(packet)
        return packet

    def send_payload(self, payload: bytes, mss: int = MTU_PAYLOAD) -> None:
        """Send *payload* as ordinary in-order, MSS-sized segments.

        All segments are crafted up front (the ack/ttl fields only depend on
        handshake state, so interleaving crafting with delivery would produce
        the same bytes) and handed to the path as one batch, which
        pre-encodes the wire bytes in a single vectorized pass.
        """
        plans = [
            SegmentPlan(payload=payload[offset : offset + mss])
            for offset in range(0, len(payload), mss)
        ]
        if not payload:
            plans = [SegmentPlan(payload=b"")]
        self.path.send_batch_from_client([self._craft_plan(plan) for plan in plans])

    def send_raw(self, packet: IPPacket) -> None:
        """Send an arbitrary pre-built packet."""
        self.path.send_from_client(packet)

    # ------------------------------------------------------------------
    # reliable-mode ARQ
    # ------------------------------------------------------------------
    def flush_unacked(self) -> int:
        """Retransmit tracked stream data the server has not acknowledged.

        Scans the collector for the server's highest cumulative ACK and
        resends every tracked segment not fully covered by it, as plain
        ACK|PSH segments (the server stack trims already-delivered prefixes).
        Returns the number of segments retransmitted.
        """
        if not self.reliable or not self._tracked:
            return 0
        resent_total = 0
        target = max(seq + len(payload) for seq, payload in self._tracked)
        # One RTO per round: every still-unacked segment is resent in
        # tracked order, and a segment the server's cumulative ACK covers
        # drops out for good.
        unacked = list(self._tracked)
        for _ in range(self.max_retries):
            acked = self.collector.max_server_ack(self.dst, self.dport, self.sport) or 0
            if acked >= target:
                break
            unacked = [(seq, payload) for seq, payload in unacked if seq + len(payload) > acked]
            if not unacked:
                break
            for seq, payload in unacked:
                segment = TCPSegment(
                    sport=self.sport,
                    dport=self.dport,
                    seq=seq,
                    ack=self.server_ack,
                    flags=TCPFlags.ACK | TCPFlags.PSH,
                    payload=payload,
                )
                self.path.send_from_client(
                    IPPacket(src=self.src, dst=self.dst, transport=segment, ttl=self.ttl)
                )
            self.retransmissions += len(unacked)
            resent_total += len(unacked)
        return resent_total

    def repair_server_stream(self, expected_len: int) -> int:
        """Ask the server to retransmit missing response bytes.

        Finds the first gap in the collected server stream and sends a pure
        duplicate ACK for it; a retransmission-enabled server resends the
        tail from that point.  Repeats until the stream reaches
        *expected_len* or the retry budget/stall limit is hit.  Returns the
        number of repair ACKs sent.
        """
        if not self.reliable or expected_len <= 0:
            return 0
        base = self.server_ack
        repairs = 0
        stalls = 0
        previous_extent = -1
        for _ in range(self.max_retries * 2):
            extent = self._contiguous_extent(base)
            if extent - base >= expected_len:
                break
            if extent <= previous_extent:
                stalls += 1
                if stalls >= 2:
                    break
            else:
                stalls = 0
            previous_extent = extent
            dup_ack = TCPSegment(
                sport=self.sport,
                dport=self.dport,
                seq=self.next_seq,
                ack=extent,
                flags=TCPFlags.ACK,
            )
            self.path.send_from_client(
                IPPacket(src=self.src, dst=self.dst, transport=dup_ack, ttl=self.ttl)
            )
            repairs += 1
        return repairs

    def _contiguous_extent(self, base: int) -> int:
        """The first sequence number missing from the server's stream."""
        chunks: dict[int, int] = {}
        for p in self.collector.packets:
            tcp = p.tcp
            if tcp is None or p.src != self.dst:
                continue
            if tcp.sport != self.dport or tcp.dport != self.sport:
                continue
            if tcp.payload:
                end = tcp.seq + len(tcp.payload)
                if chunks.get(tcp.seq, 0) < end:
                    chunks[tcp.seq] = end
        extent = base
        for seq in sorted(chunks):
            if seq > extent:
                break
            extent = max(extent, chunks[seq])
        return extent

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def server_stream(self) -> bytes:
        """Bytes the server has sent back on this connection."""
        return self.collector.server_stream(self.dst, self.dport, self.sport)

    def check_server_stream(self, expected: bytes) -> tuple[bool, bool]:
        """``(equal, modified)`` for this connection's server stream against
        *expected* (see :meth:`ClientCollector.check_server_stream`)."""
        return self.collector.check_server_stream(self.dst, self.dport, self.sport, expected)

    def received_rst(self) -> bool:
        """True when any RST for this connection arrived."""
        return any(
            p.tcp.sport == self.dport and p.tcp.dport == self.sport
            for p in self.collector.rst_packets()
        )


class RawUDPClient:
    """A raw UDP sender bound to a simulated path.

    In *reliable* mode every well-formed datagram is sent twice — UDP has no
    ACKs, so blind duplication is the only loss defence; receivers in
    reliable mode deduplicate by payload.
    """

    def __init__(
        self,
        path: Path,
        src: str,
        dst: str,
        sport: int = 41_000,
        dport: int = 3478,
        ttl: int = 64,
        reliable: bool = False,
    ) -> None:
        self.path = path
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.ttl = ttl
        self.reliable = reliable
        self.retransmissions = 0
        self.collector = ClientCollector(clock=path.clock)
        path.client_endpoint = self.collector

    def send_datagram(
        self,
        payload: bytes,
        ttl: int | None = None,
        checksum: int | None = None,
        length_delta: int | None = None,
    ) -> IPPacket:
        """Send one datagram, optionally with a corrupted checksum/length."""
        datagram = UDPDatagram(sport=self.sport, dport=self.dport, payload=payload)
        if checksum is not None:
            datagram.checksum = checksum
        if length_delta is not None:
            datagram.length = datagram.wire_length() + length_delta
        packet = IPPacket(
            src=self.src,
            dst=self.dst,
            transport=datagram,
            ttl=self.ttl if ttl is None else ttl,
        )
        self.path.send_from_client(packet)
        if self.reliable and checksum is None and length_delta is None and ttl is None:
            self.path.send_from_client(packet.copy())
            self.retransmissions += 1
        return packet

    def send_raw(self, packet: IPPacket) -> None:
        """Send an arbitrary pre-built packet."""
        self.path.send_from_client(packet)

    def responses(self) -> list[bytes]:
        """UDP payloads the server sent back."""
        return self.collector.udp_responses(self.dst, self.dport, self.sport)
