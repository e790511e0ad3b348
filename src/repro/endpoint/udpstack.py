"""A server-side UDP endpoint with OS-specific validation."""

from __future__ import annotations

from typing import Protocol

from repro.endpoint.osmodel import LINUX, OSProfile, Verdict
from repro.packets.fragment import FragmentBuffer
from repro.packets.ip import IPPacket
from repro.packets.udp import UDP_HEADER_LEN, UDPDatagram


class UDPApp(Protocol):
    """Application attached to the UDP server stack."""

    def on_datagram(self, src: str, sport: int, dport: int, data: bytes) -> list[bytes]:
        """Called per delivered datagram; returns response payloads."""


class NullUDPApp:
    """Accepts everything, responds with nothing."""

    def on_datagram(self, src: str, sport: int, dport: int, data: bytes) -> list[bytes]:  # noqa: D102
        return []


class UDPServerStack:
    """A UDP endpoint listening on one address.

    Attributes:
        raw_arrivals: every packet that reached the endpoint (pre-validation);
            read by the RS? measurement.
        delivered: (sport, dport, payload) tuples handed to the application.
    """

    def __init__(
        self,
        address: str,
        os_profile: OSProfile = LINUX,
        app: UDPApp | None = None,
        ports: set[int] | None = None,
    ) -> None:
        self.address = address
        self.os_profile = os_profile
        self.app = app if app is not None else NullUDPApp()
        self.ports = ports
        self.raw_arrivals: list[IPPacket] = []
        self.delivered: list[tuple[int, int, bytes]] = []
        self._fragments = FragmentBuffer()

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        """Validate and deliver one datagram; return response packets."""
        self.raw_arrivals.append(packet)
        if packet.dst != self.address:
            return []
        if packet.is_fragment:
            # The OS IP layer reassembles fragments before UDP sees them.
            whole, _fragments = self._fragments.feed(packet)
            if whole is None:
                return []
            packet = whole
        if self.os_profile.verdict_for_ip(packet) is not Verdict.DELIVER:
            return []
        datagram = packet.udp
        if datagram is None or packet.effective_protocol != 17:
            return []
        if self.ports is not None and datagram.dport not in self.ports:
            return []
        verdict = self.os_profile.verdict_for_udp(packet, datagram)
        if verdict is Verdict.DROP:
            return []
        payload = datagram.payload
        if verdict is Verdict.DELIVER_TRUNCATED:
            payload = payload[: max(datagram.effective_length - UDP_HEADER_LEN, 0)]
        self.delivered.append((datagram.sport, datagram.dport, payload))
        responses = self.app.on_datagram(packet.src, datagram.sport, datagram.dport, payload)
        return [
            IPPacket(
                src=self.address,
                dst=packet.src,
                transport=UDPDatagram(sport=datagram.dport, dport=datagram.sport, payload=body),
            )
            for body in responses
        ]

    def delivered_stream(self, sport: int, dport: int) -> list[bytes]:
        """Payloads delivered for one (client-port, server-port) pair, in order."""
        return [data for s, d, data in self.delivered if s == sport and d == dport]

    def reset(self) -> None:
        """Forget all datagrams and diagnostics."""
        self.raw_arrivals.clear()
        self.delivered.clear()
        self._fragments.clear()
