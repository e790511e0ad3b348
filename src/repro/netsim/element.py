"""The network-element interface every hop, filter, shaper and middlebox implements."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.netsim.clock import VirtualClock
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket


@dataclass
class TransitContext:
    """Per-delivery context handed to each element.

    Attributes:
        clock: the shared virtual clock.
        inject_back: call to send a packet back toward where the current
            packet came from (e.g. an ICMP Time Exceeded, or a censor RST
            toward the client).
        inject_forward: call to send an extra packet onward toward the
            current packet's destination (e.g. a censor RST toward the
            server).
    """

    clock: VirtualClock
    inject_back: Callable[[IPPacket], None]
    inject_forward: Callable[[IPPacket], None]


class NetworkElement(ABC):
    """One processing stage on the path between the endpoints.

    Elements receive every packet in both directions.  They may forward the
    packet (possibly transformed), drop it (return an empty list), expand it
    (fragment reassembly returning the whole datagram), or inject extra
    packets via the context.
    """

    name: str = "element"

    @abstractmethod
    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Handle *packet* traveling in *direction*; return packets to forward."""

    def reset(self) -> None:
        """Clear any per-flow state (called between independent replays)."""


@dataclass(slots=True)
class PacketRecord:
    """A packet observation with its timestamp and direction."""

    time: float
    direction: Direction
    packet: IPPacket


class PacketTap(NetworkElement):
    """A passive element that records everything it sees — used for diagnostics."""

    def __init__(self, name: str = "tap") -> None:
        self.name = name
        self.records: list[PacketRecord] = []

    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Record and forward the packet unchanged."""
        self.records.append(PacketRecord(time=ctx.clock.now, direction=direction, packet=packet))
        return [packet]

    def reset(self) -> None:
        """Drop all recorded packets."""
        self.records.clear()
