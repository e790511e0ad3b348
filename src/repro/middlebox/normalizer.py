"""A norm-style traffic normalizer (Kreibich et al. 2001) — the countermeasure.

§4.3's "Evasion countermeasures" discussion: a network can deploy a
normalizer ahead of its classifier that (a) drops lib·erate's inert packets,
(b) raises suspiciously low TTLs so nothing can die between the classifier
and the server, and (c) reassembles and re-segments TCP streams so splitting
and reordering present the classifier with clean, in-order, coalesced data.
The paper found, strikingly, that none of the operational middleboxes had
deployed these 15-year-old defenses.

The price the paper predicts is also modeled: TTL normalization un-inerts
TTL-limited packets (their junk now *reaches the server*), and full
reassembly costs state.  The classification-flushing techniques survive by
construction — no normalizer can force a classifier to retain state longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.middlebox.flowtable import FlowTable
from repro.netsim.element import NetworkElement, TransitContext
from repro.packets.flow import Direction
from repro.packets.fragment import FragmentBuffer
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

_ACK_PSH = TCPFlags.ACK | TCPFlags.PSH

NORMALIZED_MSS = 1460
#: Bound on concurrently-coalescing flows; beyond it the least recently
#: active flow's reassembly state is evicted (its later segments pass
#: through un-coalesced, a safe degradation).
MAX_FLOWS = 65536


@dataclass
class _NormalizedFlow:
    expected_seq: int
    ooo: dict[int, bytes] = field(default_factory=dict)


class TrafficNormalizer(NetworkElement):
    """Normalizes client→server TCP traffic ahead of a classifier.

    Args:
        min_ttl: packets arriving with a smaller TTL are raised to this
            value (defeats TTL-limited insertion, with the paper's caveat
            that the packet then reaches the server).
        strip_ip_options: remove all IP options (defeats the options rows).
        coalesce: reassemble and re-emit in-order MSS segments (defeats
            splitting and reordering) for up to :data:`MAX_FLOWS` flows.
    """

    def __init__(
        self,
        min_ttl: int = 32,
        strip_ip_options: bool = True,
        coalesce: bool = True,
        name: str = "normalizer",
    ) -> None:
        self.name = name
        self.min_ttl = min_ttl
        self.strip_ip_options = strip_ip_options
        self.coalesce = coalesce
        self.dropped: list[IPPacket] = []
        self._flows: FlowTable[tuple[str, int, str, int], _NormalizedFlow] = FlowTable(
            capacity=MAX_FLOWS, name="normalizer"
        )
        self._fragments = FragmentBuffer(name="normalizer_fragments")

    # ------------------------------------------------------------------
    # element interface
    # ------------------------------------------------------------------
    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Validate, de-fragment, raise TTLs, strip options, coalesce streams."""
        if direction is not Direction.CLIENT_TO_SERVER:
            return [packet]
        now = ctx.clock.now
        if packet.is_fragment:
            whole, _fragments = self._fragments.feed(packet, now)
            if whole is None:
                return []
            packet = whole
        reason = self._malformed_reason(packet)
        if reason is not None:
            self.dropped.append(packet)
            if obs.EVENTS is not None:
                # Provenance: a normalizer drop is a verdict-shaping decision
                # — the classifier never sees this packet at all.
                obs.EVENTS.emit(
                    "norm.drop", now, element=self.name, reason=reason, src=packet.src,
                    dst=packet.dst,
                )
            return []
        packet = self._scrub(packet, now)
        tcp = packet.tcp
        if tcp is None or packet.effective_protocol != 6 or not self.coalesce:
            return [packet]
        return self._coalesce_tcp(packet, tcp, now)

    def reset(self) -> None:
        """Forget all flow and fragment state."""
        self.dropped.clear()
        self._flows.clear()
        self._fragments.clear()

    # ------------------------------------------------------------------
    # the norm rule set
    # ------------------------------------------------------------------
    def _malformed_reason(self, packet: IPPacket) -> str | None:
        """Why the norm rule set rejects *packet* (None = well-formed).

        The reason string is the provenance payload of ``norm.drop`` — it
        names the exact rule an inert packet tripped, which is the evidence
        the paper's countermeasure discussion turns on.
        """
        if not packet.has_valid_version():
            return "ip-version"
        if not packet.has_valid_ihl():
            return "ip-ihl"
        if not packet.has_valid_total_length():
            return "ip-total-length"
        if not packet.has_valid_checksum():
            return "ip-checksum"
        if not packet.has_known_protocol():
            return "ip-protocol"
        if packet.padded_options and not packet.has_wellformed_options():
            return "ip-options"
        tcp = packet.tcp
        if tcp is not None and packet.effective_protocol == 6:
            if not tcp.has_valid_data_offset():
                return "tcp-data-offset"
            if not tcp.verify_checksum(packet.src, packet.dst):
                return "tcp-checksum"
            if not tcp.flags.is_valid_combination():
                return "tcp-flags"
            flags = int(tcp.flags)
            if tcp.payload and not flags & 0x06 and not flags & 0x10:
                return "tcp-payload-flags"
        udp = packet.udp
        if udp is not None and packet.effective_protocol == 17:
            if not udp.verify_checksum(packet.src, packet.dst):
                return "udp-checksum"
            if not udp.has_valid_length():
                return "udp-length"
        return None

    def _scrub(self, packet: IPPacket, now: float) -> IPPacket:
        changes: dict[str, object] = {}
        if packet.ttl < self.min_ttl:
            changes["ttl"] = self.min_ttl
        if self.strip_ip_options and packet.padded_options:
            changes["options"] = b""
            changes["ihl"] = None
        if changes:
            if obs.EVENTS is not None:
                # Provenance: a scrub silently rewrites what the classifier
                # (and the server!) will see — e.g. a raised TTL un-inerts a
                # TTL-limited insertion, the paper's predicted cost.
                obs.EVENTS.emit(
                    "norm.scrub", now, element=self.name, src=packet.src, dst=packet.dst,
                    ttl_raised="ttl" in changes, options_stripped="options" in changes,
                )
            changes["checksum"] = None
            packet = packet.copy(**changes)
        return packet

    # ------------------------------------------------------------------
    # stream coalescing
    # ------------------------------------------------------------------
    def _coalesce_tcp(
        self, packet: IPPacket, tcp: TCPSegment, now: float
    ) -> list[IPPacket]:
        key = (packet.src, tcp.sport, packet.dst, tcp.dport)
        flags = int(tcp.flags)
        if flags & 0x12 == 0x02:  # SYN without ACK
            self._flows.insert(key, _NormalizedFlow(expected_seq=(tcp.seq + 1) & 0xFFFFFFFF))
            return [packet]
        if flags & 0x04:  # RST
            self._flows.pop(key)
            return [packet]
        flow = self._flows.get(key)  # touches the LRU chain
        if flow is None or not tcp.payload:
            return [packet]
        fresh = self._reassemble(flow, tcp)
        if not fresh:
            return []  # out-of-order or duplicate: held until in order
        packets = self._emit(packet, tcp, flow, fresh)
        events = obs.EVENTS
        if events is not None and (len(packets) != 1 or packets[0].tcp.payload != tcp.payload):
            # Provenance: the classifier sees these re-segmented bytes, not
            # the wire packet — splitting/reordering evasion is undone here.
            events.emit(
                "norm.coalesce", now, element=self.name, src=packet.src, dst=packet.dst,
                sport=tcp.sport, dport=tcp.dport, in_bytes=len(tcp.payload), out_bytes=len(fresh),
                out_segments=len(packets),
            )
        return packets

    def _reassemble(self, flow: _NormalizedFlow, tcp: TCPSegment) -> bytes:
        seq, payload = tcp.seq, tcp.payload
        ahead = (seq - flow.expected_seq) & 0xFFFFFFFF
        if 0 < ahead < 0x8000_0000:
            flow.ooo.setdefault(seq, payload)
            return b""
        if ahead != 0:
            behind = 0x1_0000_0000 - ahead
            if behind >= len(payload):
                return b""
            payload = payload[behind:]
        fresh = bytearray(payload)
        flow.expected_seq = (flow.expected_seq + len(payload)) & 0xFFFFFFFF
        while flow.expected_seq in flow.ooo:
            chunk = flow.ooo.pop(flow.expected_seq)
            fresh.extend(chunk)
            flow.expected_seq = (flow.expected_seq + len(chunk)) & 0xFFFFFFFF
        return bytes(fresh)

    def _emit(
        self, original: IPPacket, tcp: TCPSegment, flow: _NormalizedFlow, data: bytes
    ) -> list[IPPacket]:
        start_seq = (flow.expected_seq - len(data)) & 0xFFFFFFFF
        packets = []
        for offset in range(0, len(data), NORMALIZED_MSS):
            chunk = data[offset : offset + NORMALIZED_MSS]
            segment = TCPSegment(
                sport=tcp.sport,
                dport=tcp.dport,
                seq=(start_seq + offset) & 0xFFFFFFFF,
                ack=tcp.ack,
                flags=_ACK_PSH | (tcp.flags & TCPFlags.FIN),
                payload=chunk,
            )
            packets.append(
                IPPacket(src=original.src, dst=original.dst, transport=segment, ttl=original.ttl)
            )
        return packets
