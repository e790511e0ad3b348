"""Flow identification: five-tuples, bidirectional keys, directions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment
from repro.packets.udp import UDPDatagram


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


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """A unidirectional flow identifier (src, sport, dst, dport, protocol)."""

    src: str
    sport: int
    dst: str
    dport: int
    protocol: int
    # Memoized normalized() / hash() results; excluded from equality/repr.
    _norm: "FiveTuple | None" = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, packet: IPPacket) -> "FiveTuple | None":
        """Extract the five-tuple of *packet*, or None for non-TCP/UDP packets.

        The result is memoized on the packet (every element along a path
        asks for the same packet's flow key).  The memo is keyed on the
        transport object's identity and re-checked against its ports, so
        replacing or mutating the transport can never surface a stale key;
        any IP-level field assignment clears it via ``__setattr__``.
        """
        transport = packet.transport
        cached = packet._flow_cache
        if cached is not None and cached[0] is transport:
            hit = cached[1]
            if hit is None or (hit.sport == transport.sport and hit.dport == transport.dport):
                return hit
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
            # Intern on the raw field tuple: every packet of a flow then
            # shares one FiveTuple whose normalized()/hash memos are already
            # warm, instead of re-deriving them per packet chain.
            tup = (packet.src, sport, packet.dst, dport, proto)
            key = _KEY_INTERN.get(tup)
            if key is None:
                key = cls(tup[0], sport, tup[2], dport, tup[4])
                if len(_KEY_INTERN) >= _INTERN_LIMIT:
                    _KEY_INTERN.clear()
                _KEY_INTERN[tup] = key
        object.__setattr__(packet, "_flow_cache", (transport, key))
        return key

    @property
    def reversed(self) -> "FiveTuple":
        """The five-tuple of the reverse direction."""
        return FiveTuple(
            src=self.dst, sport=self.dport, dst=self.src, dport=self.sport, protocol=self.protocol
        )

    def normalized(self) -> "FiveTuple":
        """A direction-independent key: the lexicographically smaller endpoint first.

        Both directions of the same connection normalize to the same value,
        which is what middlebox flow tables key on.  Memoized per instance,
        and interned process-wide: every packet of a connection then maps to
        the *same object*, so flow-table probes take the dict's identity
        fast path instead of calling the generated ``__eq__``.
        """
        norm = self._norm
        if norm is None:
            if (self.src, self.sport) <= (self.dst, self.dport):
                norm = self
            else:
                norm = self.reversed
            interned = _NORMALIZED_INTERN.get(norm)
            if interned is None:
                if len(_NORMALIZED_INTERN) >= _INTERN_LIMIT:
                    _NORMALIZED_INTERN.clear()
                _NORMALIZED_INTERN[norm] = interned = norm
            norm = interned
            # The normalized tuple is its own normalization.
            object.__setattr__(norm, "_norm", norm)
            object.__setattr__(self, "_norm", norm)
        return norm

    def __hash__(self) -> int:
        # Flow tables hash the same tuples on every packet; the generated
        # dataclass __hash__ rebuilds the field tuple each time, so memoize.
        value = self._hash
        if value is None:
            value = hash((self.src, self.sport, self.dst, self.dport, self.protocol))
            object.__setattr__(self, "_hash", value)
        return value

    def __str__(self) -> str:
        return f"{self.src}:{self.sport}->{self.dst}:{self.dport}/{self.protocol}"


#: Interning tables (bounded, cleared on overflow: O(1), where evicting the
#: oldest key scans past every slot deleted since the dict last resized).
#: Best-effort only — equality semantics never depend on identity.
#: _KEY_INTERN maps raw field tuples to the shared unidirectional key;
#: _NORMALIZED_INTERN maps normalized keys to their canonical instance so
#: flow-table probes hit the dict identity path.
_KEY_INTERN: dict[tuple, FiveTuple] = {}
_NORMALIZED_INTERN: dict[FiveTuple, FiveTuple] = {}
_INTERN_LIMIT = 16_384
