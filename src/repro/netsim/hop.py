"""Router hops: TTL decrement, expiry and basic IP header validation.

The TTL-limited evasion techniques depend on routers decrementing TTL and
emitting ICMP Time Exceeded when it reaches zero — that ICMP is also what
lib·erate's localization phase uses to count hops to the middlebox.
"""

from __future__ import annotations

import zlib

from repro import obs
from repro.netsim.element import NetworkElement, TransitContext
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.icmp import icmp_time_exceeded
from repro.packets.ip import IPPacket


class RouterHop(NetworkElement):
    """A router that decrements TTL and optionally validates IP headers.

    Args:
        name: label used in diagnostics.
        validate_ip_header: when True the router drops packets with an
            invalid version, inconsistent IHL/total-length, or a bad IP
            header checksum — behaviour we observed from the testbed router
            and, more aggressively, from operational networks.
        send_time_exceeded: emit ICMP Time Exceeded when TTL expires.
    """

    def __init__(
        self,
        name: str = "router",
        validate_ip_header: bool = True,
        send_time_exceeded: bool = True,
    ) -> None:
        self.name = name
        self.validate_ip_header = validate_ip_header
        self.send_time_exceeded = send_time_exceeded
        self.dropped: list[IPPacket] = []
        self.drop_reasons: dict[str, int] = {}

    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Decrement TTL, drop expired/malformed packets, forward the rest."""
        if self.validate_ip_header:
            # Pristine fast path: auto-computed IHL/length/checksum are
            # self-consistent by construction, so only crafted overrides
            # need the full predicate walk.
            if (
                packet.version != 4
                or packet.ihl is not None
                or packet.total_length is not None
                or packet.checksum is not None
            ) and not self._header_acceptable(packet):
                self._drop(packet, "bad-header", ctx)
                return []
        if packet.ttl <= 1:
            self._drop(packet, "ttl-expired", ctx)
            if self.send_time_exceeded:
                original = packet.to_bytes()[:28]
                reply = IPPacket(
                    src=self._router_address(packet),
                    dst=packet.src,
                    transport=icmp_time_exceeded(original),
                    ttl=64,
                )
                if obs.EVENTS is not None:
                    obs.EVENTS.emit(
                        "hop.icmp_time_exceeded", ctx.clock.now, element=self.name,
                        **obs_trace.packet_fields(packet),
                    )
                ctx.inject_back(reply)
            return []
        return [packet.decremented()]

    def _drop(self, packet: IPPacket, reason: str, ctx: TransitContext) -> None:
        self.dropped.append(packet)
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "hop.drop", ctx.clock.now, element=self.name, reason=reason,
                **obs_trace.packet_fields(packet),
            )

    def _header_acceptable(self, packet: IPPacket) -> bool:
        return (
            packet.has_valid_version()
            and packet.has_valid_ihl()
            and packet.has_valid_total_length()
            and packet.has_valid_checksum()
        )

    def _router_address(self, packet: IPPacket) -> str:
        # A synthetic address unique-ish per router name, good enough for
        # traceroute-style hop counting.  CRC32 (not hash()) so the address
        # is identical across interpreter runs — traces stay diffable.
        return f"198.51.100.{(zlib.crc32(self.name.encode()) % 250) + 1}"

    def reset(self) -> None:
        """Forget dropped-packet diagnostics."""
        self.dropped.clear()
        self.drop_reasons.clear()
