"""The interface evasion techniques use to drive a replay.

A technique's ``apply(runner)`` emits the client side of the trace however
it likes: default segments, split/reordered pieces, IP fragments, inert
packets, pauses.  The runner tracks inert-packet markers so the session can
later answer the paper's RS? question — did the crafted packets physically
reach the server?
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.endpoint.rawclient import MTU_PAYLOAD, RawTCPClient, RawUDPClient, SegmentPlan
from repro.netsim.clock import VirtualClock
from repro.packets.fragment import fragment_packet
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.traffic.trace import Trace


def inert_payload(serial: int, size: int = 64, tag: str = "inert") -> bytes:
    """An innocuous payload for inert packets, tagged with *tag* and *serial*.

    The tag makes the payload recognizable in the server's raw arrivals
    (the RS? measurement) without ever matching a classification keyword.
    The serial is fixed-width, so payload sizes never depend on it.
    """
    marker = f"--{tag}-{serial:06d}--".encode("ascii")
    if size <= len(marker):
        return marker[: max(size, 8)]
    filler = b"\x5a" * (size - len(marker))
    return marker + filler


class ReplayRunner:
    """Emits the client side of a trace, under a technique's control.

    Attributes:
        trace: the dialogue being replayed.
        client: the raw TCP or UDP client.
        clock: the shared virtual clock.
        context: the technique's :class:`EvasionContext` (may be None).
        inert_markers: payload markers of packets expected *not* to be
            delivered to the server application.
        technique_name: label recorded in the outcome.
    """

    def __init__(
        self,
        trace: Trace,
        client: RawTCPClient | RawUDPClient,
        clock: VirtualClock,
        context: Any = None,
    ) -> None:
        self.trace = trace
        self.client = client
        self.clock = clock
        self.context = context
        self.inert_markers: list[bytes] = []
        self._fragmented_datagrams = 0
        self.sent_inert_rst = False
        self.technique_name: str | None = None
        self.overhead_packets = 0
        self.overhead_bytes = 0
        self.overhead_seconds = 0.0
        self._serials = itertools.count(1)

    # ------------------------------------------------------------------
    # message/timing views
    # ------------------------------------------------------------------
    @property
    def client_messages(self) -> list[bytes]:
        """The client payloads of the trace, in order."""
        return self.trace.client_payloads()

    # ------------------------------------------------------------------
    # default emission
    # ------------------------------------------------------------------
    def send_default(self) -> None:
        """Replay the client side unmodified: in-order, MSS-sized segments."""
        if self.trace.protocol == "tcp":
            for message in self.client_messages:
                self.send_message(message)
        else:
            for message in self.client_messages:
                self.send_datagram(message)

    def inert_payload(self, size: int = 64, tag: str = "inert") -> bytes:
        """The next inert payload of this replay, unique within it.

        Numbered per runner, so replaying one technique twice sends the
        same bytes.
        """
        return inert_payload(next(self._serials), size, tag)

    # ------------------------------------------------------------------
    # TCP emission
    # ------------------------------------------------------------------
    def send_message(self, payload: bytes, mss: int = MTU_PAYLOAD) -> None:
        """Send one application message as plain in-order segments."""
        tcp = self._tcp()
        tcp.send_payload(payload, mss=mss)

    def send_inert(self, plan: SegmentPlan, count_overhead: bool = True) -> None:
        """Send one inert TCP packet (does not advance the send sequence)."""
        tcp = self._tcp()
        plan.advances_seq = False
        self.inert_markers.append(plan.payload)
        if count_overhead:
            self.overhead_packets += 1
            self.overhead_bytes += len(plan.payload) + 40
        tcp.send_plan(plan)

    def send_inert_rst(self, ttl: int | None = None) -> None:
        """Send a RST, TTL-limited so it dies before the server when asked."""
        tcp = self._tcp()
        tcp.send_rst(ttl=ttl)
        self.sent_inert_rst = True
        self.overhead_packets += 1
        self.overhead_bytes += 40

    def send_pieces(self, pieces: list[tuple[int, bytes]], total_length: int | None = None) -> None:
        """Send payload pieces at explicit offsets (splitting / reordering).

        Each piece is (offset, data) relative to the current stream position;
        emission order is the list order, so out-of-order lists reorder the
        wire transmission.  The stream position advances past the furthest
        byte (or *total_length* when given).
        """
        tcp = self._tcp()
        base = tcp.next_seq
        span = total_length if total_length is not None else max(
            (offset + len(data) for offset, data in pieces), default=0
        )
        for offset, data in pieces:
            plan = SegmentPlan(payload=data, seq=(base + offset) & 0xFFFFFFFF)
            tcp.send_plan(plan)
        tcp.next_seq = (base + span) & 0xFFFFFFFF
        # Splitting overhead: extra headers beyond the single-segment baseline.
        self.overhead_bytes += max(len(pieces) - 1, 0) * 40
        self.overhead_packets += max(len(pieces) - 1, 0)

    def send_fragmented(
        self, payload: bytes, fragment_size: int, order: list[int] | None = None
    ) -> None:
        """Send one message as IP fragments, optionally out of order."""
        tcp = self._tcp()
        segment = TCPSegment(
            sport=tcp.sport,
            dport=tcp.dport,
            seq=tcp.next_seq,
            ack=tcp.server_ack,
            flags=TCPFlags.ACK | TCPFlags.PSH,
            payload=payload,
        )
        packet = IPPacket(src=tcp.src, dst=tcp.dst, transport=segment, ttl=tcp.ttl)
        # Fragments cannot be repaired by TCP ARQ (a lost fragment is a
        # permanent reassembly hole), so on a lossy path each one is sent
        # twice; reassemblers and receivers deduplicate by offset.  The
        # duplicates are a fault-tolerance artifact, not technique overhead.
        # Straggler duplicates (copies arriving after their set completed)
        # stay buffered in in-network reassemblers, so each datagram needs a
        # flow-unique IP identification lest a later replay's fragments merge
        # with the leftovers (IP reassembly is keyed ignoring ports).
        copies = 2 if getattr(tcp, "reliable", False) else 1
        ident = None
        if copies > 1:
            self._fragmented_datagrams += 1
            ident = (tcp.sport ^ (self._fragmented_datagrams * 257)) & 0xFFFF
        fragments = fragment_packet(packet, fragment_size, identification=ident)
        sequence = order if order is not None else list(range(len(fragments)))
        for index in sequence:
            for _ in range(copies):
                tcp.send_raw(fragments[index])
        tcp.next_seq = (tcp.next_seq + len(payload)) & 0xFFFFFFFF
        self.inert_markers.append(payload)  # found iff the datagram was reassembled
        self.overhead_packets += max(len(fragments) - 1, 0)
        self.overhead_bytes += max(len(fragments) - 1, 0) * 20

    # ------------------------------------------------------------------
    # UDP emission
    # ------------------------------------------------------------------
    def send_datagram(self, payload: bytes) -> None:
        """Send one plain datagram."""
        self._udp().send_datagram(payload)

    def send_inert_datagram(
        self,
        payload: bytes,
        ttl: int | None = None,
        checksum: int | None = None,
        length_delta: int | None = None,
    ) -> None:
        """Send one inert (malformed or TTL-limited) datagram."""
        self.inert_markers.append(payload)
        self.overhead_packets += 1
        self.overhead_bytes += len(payload) + 28
        self._udp().send_datagram(
            payload, ttl=ttl, checksum=checksum, length_delta=length_delta
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def pause(self, seconds: float) -> None:
        """Advance virtual time (the classification-flushing primitive)."""
        self.clock.advance(seconds)
        self.overhead_seconds += seconds

    def _tcp(self) -> RawTCPClient:
        if not isinstance(self.client, RawTCPClient):
            raise TypeError("trace is not TCP")
        return self.client

    def _udp(self) -> RawUDPClient:
        if not isinstance(self.client, RawUDPClient):
            raise TypeError("trace is not UDP")
        return self.client
