"""Flow identification: five-tuples, bidirectional keys, directions."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment
from repro.packets.udp import UDPDatagram

_new = tuple.__new__


class Direction(enum.Enum):
    """The direction a packet travels relative to the lib·erate client."""

    CLIENT_TO_SERVER = "c2s"
    SERVER_TO_CLIENT = "s2c"

    @property
    def reversed(self) -> "Direction":
        """The opposite direction."""
        if self is Direction.CLIENT_TO_SERVER:
            return Direction.SERVER_TO_CLIENT
        return Direction.CLIENT_TO_SERVER

    def __str__(self) -> str:
        return self.value


class FiveTuple(NamedTuple):
    """A unidirectional flow identifier (src, sport, dst, dport, protocol).

    A plain tuple underneath: hashing, equality and field access run in C,
    and a key equals (and hashes like) the bare 5-tuple of its fields.
    """

    src: str
    sport: int
    dst: str
    dport: int
    protocol: int

    @classmethod
    def of(cls, packet: IPPacket) -> "FiveTuple | None":
        """Extract the five-tuple of *packet*, or None for non-TCP/UDP packets.

        The result is memoized on the packet (every element along a path
        asks for the same packet's flow key) as ``(transport, declared
        protocol, key, src, dst, sport, dport)``.  The memo is checked on
        read: it is used only while the packet carries the same transport
        object with the same declared protocol, and a hit re-checks the
        addresses and ports the key was built from, so no field assignment,
        transport swap or in-place port change can surface a stale key.
        The checks are identity tests on the memo's plain-tuple items (a
        ``FiveTuple`` index read is not specialized); an equal but distinct
        value only costs a recompute.
        """
        transport = packet.transport
        cached = packet._flow_cache
        if cached is not None and cached[0] is transport and cached[1] is packet.protocol:
            key = cached[2]
            if key is None or (
                cached[3] is packet.src
                and cached[4] is packet.dst
                and cached[5] is transport.sport
                and cached[6] is transport.dport
            ):
                return key
        src = packet.src
        dst = packet.dst
        sport = getattr(transport, "sport", None)
        dport = getattr(transport, "dport", None)
        if sport is None or dport is None:
            key = None
        else:
            # Inline effective_protocol for the typed-transport common case
            # (the property costs a descriptor call per packet per element).
            proto = packet.protocol
            if proto is None:
                ttype = type(transport)
                if ttype is TCPSegment:
                    proto = 6
                elif ttype is UDPDatagram:
                    proto = 17
                else:
                    proto = packet.effective_protocol
            key = _new(cls, (src, sport, dst, dport, proto))
        packet._flow_cache = (transport, packet.protocol, key, src, dst, sport, dport)
        return key

    @property
    def reversed(self) -> "FiveTuple":
        """The five-tuple of the reverse direction."""
        src, sport, dst, dport, protocol = self
        return _new(FiveTuple, (dst, dport, src, sport, protocol))

    def normalized(self) -> "FiveTuple":
        """A direction-independent key: the lexicographically smaller endpoint first.

        Both directions of the same connection normalize to the same value,
        which is what middlebox flow tables key on.
        """
        src, sport, dst, dport, protocol = self
        if src < dst or (src == dst and sport <= dport):
            return self
        return _new(FiveTuple, (dst, dport, src, sport, protocol))

    def __str__(self) -> str:
        return f"{self.src}:{self.sport}->{self.dst}:{self.dport}/{self.protocol}"
