"""IPv4 packet construction and parsing.

``IPPacket`` is the unit that travels through the simulated network.  Header
fields that default to ``None`` (``ihl``, ``total_length``, ``protocol``,
``checksum``) are computed on serialization; explicit values freeze arbitrary
— possibly invalid — numbers on the wire.  That override mechanism is the
foundation of the *inert packet insertion* taxonomy (paper §4.3, Table 3).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, fields

from repro.obs import metrics as obs_metrics
from repro.packets._wirecache import install_wire_cache
from repro.packets.checksum import bytes_to_ip, internet_checksum, ip_to_bytes
from repro.packets.icmp import ICMP_PROTO, ICMPMessage
from repro.packets.options import options_are_wellformed, options_contain_deprecated
from repro.packets.tcp import TCP_PROTO, TCPSegment
from repro.packets.udp import UDP_PROTO, UDPDatagram

IP_HEADER_MIN = 20

Transport = TCPSegment | UDPDatagram | ICMPMessage | bytes


class IPProto(enum.IntEnum):
    """IP protocol numbers used in this reproduction."""

    ICMP = ICMP_PROTO
    TCP = TCP_PROTO
    UDP = UDP_PROTO


_PROTO_FOR_TYPE: dict[type, int] = {
    TCPSegment: TCP_PROTO,
    UDPDatagram: UDP_PROTO,
    ICMPMessage: ICMP_PROTO,
}


@dataclass(init=False)
class IPPacket:
    """An IPv4 packet wrapping a transport-layer payload.

    Attributes:
        src: dotted-quad source address.
        dst: dotted-quad destination address.
        transport: a :class:`TCPSegment`, :class:`UDPDatagram`,
            :class:`ICMPMessage`, or raw ``bytes`` (used for fragments).
        ttl: time-to-live; decremented by each router hop in the simulator.
        version: IP version field; 4 unless crafting an invalid packet.
        ihl: header length in 32-bit words; ``None`` computes it.
        tos: type-of-service byte.
        total_length: header+payload length field; ``None`` computes it.
        identification: fragment identification.
        df / mf: Don't Fragment / More Fragments flags.
        frag_offset: fragment offset in 8-byte units.
        protocol: protocol number; ``None`` derives it from *transport*.
        checksum: header checksum; ``None`` computes it.
        options: raw IP option bytes (padded to 4-byte multiple on wire).
    """

    src: str
    dst: str
    transport: Transport = b""
    ttl: int = 64
    version: int = 4
    ihl: int | None = None
    tos: int = 0
    total_length: int | None = None
    identification: int = 0
    df: bool = False
    mf: bool = False
    frag_offset: int = 0
    protocol: int | None = None
    checksum: int | None = None
    options: bytes = b""

    def __init__(
        self, src: str, dst: str, transport: Transport = b"", ttl: int = 64, version: int = 4,
        ihl: int | None = None, tos: int = 0, total_length: int | None = None,
        identification: int = 0, df: bool = False, mf: bool = False, frag_offset: int = 0,
        protocol: int | None = None, checksum: int | None = None, options: bytes = b"",
    ) -> None:
        # One store of the whole instance dict: a fresh packet has no cache
        # to invalidate, so construction skips the wire-cache __setattr__.
        object.__setattr__(self, "__dict__", {
            "src": src, "dst": dst, "transport": transport, "ttl": ttl, "version": version,
            "ihl": ihl, "tos": tos, "total_length": total_length,
            "identification": identification, "df": df, "mf": mf, "frag_offset": frag_offset,
            "protocol": protocol, "checksum": checksum, "options": options,
        })

    # ------------------------------------------------------------------
    # derived header fields
    # ------------------------------------------------------------------
    @property
    def padded_options(self) -> bytes:
        """IP options padded with zero bytes to a 4-byte boundary."""
        remainder = len(self.options) % 4
        if remainder:
            return self.options + b"\x00" * (4 - remainder)
        return self.options

    @property
    def header_length(self) -> int:
        """Actual serialized header length in bytes (ignores IHL override)."""
        length = len(self.options)
        return IP_HEADER_MIN + length + (-length % 4)

    @property
    def effective_ihl(self) -> int:
        """The IHL field value that will appear on the wire."""
        if self.ihl is not None:
            return self.ihl
        return self.header_length // 4

    @property
    def effective_protocol(self) -> int:
        """The protocol field value that will appear on the wire."""
        if self.protocol is not None:
            return self.protocol
        number = _PROTO_FOR_TYPE.get(type(self.transport))
        if number is not None:
            return number
        for klass, proto in _PROTO_FOR_TYPE.items():  # transport subclasses
            if isinstance(self.transport, klass):
                return proto
        return 0xFF  # raw bytes with no declared protocol

    @property
    def payload_bytes(self) -> bytes:
        """The serialized transport payload (checksums computed in context)."""
        if isinstance(self.transport, bytes):
            return self.transport
        return self.transport.to_bytes(self.src, self.dst)

    @property
    def effective_total_length(self) -> int:
        """The total-length field value that will appear on the wire."""
        if self.total_length is not None:
            return self.total_length
        return self.wire_length()

    def wire_length(self) -> int:
        """Actual number of bytes the packet occupies on the wire.

        Computed arithmetically — every transport knows its serialized
        length without serializing, which keeps the per-hop validation and
        shaping paths free of wire encoding.
        """
        length = len(self.options)
        header = IP_HEADER_MIN + length + (-length % 4)
        transport = self.transport
        if isinstance(transport, bytes):
            return header + len(transport)
        return header + transport.wire_length()

    # ------------------------------------------------------------------
    # typed transport accessors
    # ------------------------------------------------------------------
    @property
    def tcp(self) -> TCPSegment | None:
        """The TCP segment, or None if the payload is not parsed TCP."""
        return self.transport if isinstance(self.transport, TCPSegment) else None

    @property
    def udp(self) -> UDPDatagram | None:
        """The UDP datagram, or None if the payload is not parsed UDP."""
        return self.transport if isinstance(self.transport, UDPDatagram) else None

    @property
    def icmp(self) -> ICMPMessage | None:
        """The ICMP message, or None if the payload is not parsed ICMP."""
        return self.transport if isinstance(self.transport, ICMPMessage) else None

    @property
    def is_fragment(self) -> bool:
        """True when the packet is one fragment of a larger datagram."""
        return self.mf or self.frag_offset > 0

    @property
    def app_payload(self) -> bytes:
        """Application bytes carried by the transport layer (empty for ICMP/raw)."""
        if isinstance(self.transport, (TCPSegment, UDPDatagram)):
            return self.transport.payload
        return b""

    # ------------------------------------------------------------------
    # validity predicates — used by middlebox/OS validation models
    # ------------------------------------------------------------------
    def has_valid_version(self) -> bool:
        """True when the version field is 4."""
        return self.version == 4

    def has_valid_ihl(self) -> bool:
        """True when the IHL matches the actual header length."""
        if self.ihl is None:
            return True  # computed IHL is header_length // 4, always consistent
        return self.ihl * 4 == self.header_length and self.ihl >= 5

    def has_valid_total_length(self) -> bool:
        """True when the total-length field matches the actual wire length."""
        if self.total_length is None:
            return True  # computed on serialization, always consistent
        return self.total_length == self.wire_length()

    def total_length_too_long(self) -> bool:
        """True when the declared total length exceeds the actual bytes."""
        if self.total_length is None:
            return False
        return self.total_length > self.wire_length()

    def total_length_too_short(self) -> bool:
        """True when the declared total length understates the actual bytes."""
        if self.total_length is None:
            return False
        return self.total_length < self.wire_length()

    def has_valid_checksum(self) -> bool:
        """True when the header checksum is correct (or auto-computed)."""
        if self.checksum is None:
            return True
        expected = internet_checksum(self._header_zero())
        return expected == self.checksum

    def has_wellformed_options(self) -> bool:
        """True when the IP option list is structurally valid."""
        return options_are_wellformed(self.padded_options)

    def has_deprecated_options(self) -> bool:
        """True when the option list contains RFC 6814-deprecated options."""
        return options_contain_deprecated(self.padded_options)

    def has_known_protocol(self) -> bool:
        """True when the declared protocol is ICMP, TCP or UDP."""
        return self.effective_protocol in (ICMP_PROTO, TCP_PROTO, UDP_PROTO)

    def protocol_matches_transport(self) -> bool:
        """True when the declared protocol agrees with the parsed transport."""
        if isinstance(self.transport, bytes):
            return True  # nothing to contradict
        return self.effective_protocol == _PROTO_FOR_TYPE[type(self.transport)]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def _header_bytes(self, checksum: int) -> bytes:
        flags_frag = (0x4000 if self.df else 0) | (0x2000 if self.mf else 0)
        flags_frag |= self.frag_offset & 0x1FFF
        return (
            struct.pack(
                "!BBHHHBBH",
                ((self.version & 0xF) << 4) | (self.effective_ihl & 0xF),
                self.tos,
                self.effective_total_length & 0xFFFF,
                self.identification & 0xFFFF,
                flags_frag,
                self.ttl & 0xFF,
                self.effective_protocol & 0xFF,
                checksum,
            )
            + ip_to_bytes(self.src)
            + ip_to_bytes(self.dst)
            + self.padded_options
        )

    def _header_zero(self) -> bytes:
        """Serialized header with a zero checksum field (memoized).

        IP header fields live on this object (mutations invalidate via
        ``__setattr__``), but the total-length field also depends on the
        transport object, which can be mutated behind our back.  The memo is
        therefore keyed on the identity of the transport's serialized bytes:
        the transport's own cache returns the same object until it is
        mutated, so a stale header can never be observed.
        """
        payload = self.payload_bytes
        cached = self._hdr0_cache
        if cached is not None and cached[0] is payload:
            return cached[1]
        header0 = self._header_bytes(checksum=0)
        object.__setattr__(self, "_hdr0_cache", (payload, header0))
        return header0

    def to_bytes(self) -> bytes:
        """Serialize the full packet (header + transport) to wire bytes."""
        payload = self.payload_bytes
        cached = self._wire_cache
        metrics = obs_metrics.METRICS
        if cached is not None and cached[0] is payload:
            if metrics is not None:
                metrics.inc("wirecache.hits")
            return cached[1]
        if metrics is not None:
            metrics.inc("wirecache.misses")
        header0 = self._header_zero()
        if self.checksum is not None:
            csum = self.checksum
        else:
            csum = internet_checksum(header0)
        wire = header0[:10] + struct.pack("!H", csum) + header0[12:] + payload
        object.__setattr__(self, "_wire_cache", (payload, wire))
        return wire

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IPPacket":
        """Parse a packet from wire bytes.

        The transport layer is parsed into a typed object only for complete
        (non-fragmented) TCP/UDP/ICMP datagrams; anything else stays raw.
        """
        if len(raw) < IP_HEADER_MIN:
            raise ValueError("truncated IP header")
        ver_ihl, tos, total_length, identification, flags_frag, ttl, protocol, checksum = (
            struct.unpack("!BBHHHBBH", raw[:12])
        )
        version = ver_ihl >> 4
        ihl = ver_ihl & 0xF
        header_len = max(ihl * 4, IP_HEADER_MIN)
        if header_len > len(raw):
            raise ValueError("IHL overruns packet")
        src = bytes_to_ip(raw[12:16])
        dst = bytes_to_ip(raw[16:20])
        options = raw[IP_HEADER_MIN:header_len]
        body = raw[header_len:]
        mf = bool(flags_frag & 0x2000)
        frag_offset = flags_frag & 0x1FFF
        transport: Transport = body
        if not mf and frag_offset == 0:
            try:
                if protocol == TCP_PROTO:
                    transport = TCPSegment.from_bytes(body)
                elif protocol == UDP_PROTO:
                    transport = UDPDatagram.from_bytes(body)
                elif protocol == ICMP_PROTO:
                    transport = ICMPMessage.from_bytes(body)
            except ValueError:
                transport = body
        return cls(
            src=src,
            dst=dst,
            transport=transport,
            ttl=ttl,
            version=version,
            ihl=ihl,
            tos=tos,
            total_length=total_length,
            identification=identification,
            df=bool(flags_frag & 0x4000),
            mf=mf,
            frag_offset=frag_offset,
            protocol=protocol,
            checksum=checksum,
            options=options,
        )

    def copy(self, **changes: object) -> "IPPacket":
        """Return a copy with *changes* applied.

        The transport object is also copied when it is a dataclass, so the
        copy can be mutated independently.  This is the per-hop hot path, so
        the copy is a direct instance-dict clone rather than
        ``dataclasses.replace`` (``IPPacket.__init__`` validates nothing, and
        the source's fields already satisfy every invariant).  Cloning the
        dict also carries the transport's memoized wire bytes — valid on a
        field-identical copy — while the IP-level header/wire caches are
        dropped (a copy almost always changes header fields).
        """
        if changes and not _FIELD_NAMES.issuperset(changes):
            bad = ", ".join(sorted(set(changes) - _FIELD_NAMES))
            raise TypeError(f"unknown IPPacket field(s): {bad}")
        new = object.__new__(IPPacket)
        d = new.__dict__
        d.update(self.__dict__)
        d.pop("_hdr0_cache", None)
        d.pop("_wire_cache", None)
        d.update(changes)
        transport = d["transport"]
        if "transport" not in changes and not isinstance(transport, bytes):
            fresh = object.__new__(type(transport))
            fresh.__dict__.update(transport.__dict__)
            d["transport"] = fresh
        flow = d.get("_flow_cache")
        if flow is not None:
            # The memoized flow key survives copies that leave the flow
            # identity alone (the per-hop TTL decrement), re-keyed onto the
            # cloned transport; any flow-identity change drops it.
            if changes and not _FLOW_FIELDS.isdisjoint(changes):
                del d["_flow_cache"]
            elif d["transport"] is not flow[0]:
                d["_flow_cache"] = (d["transport"], flow[1])
        return new

    def decremented(self, hops: int = 1) -> "IPPacket":
        """The packet *hops* router hops later: TTL − hops, checksum recomputed.

        Dedicated clone for the router-hop fast path — the single most
        frequent packet operation in the simulator.  Unlike :meth:`copy`
        the transport object is *shared*, not cloned: no element mutates a
        transport in place (mutators like ``TCPChecksumNormalizer`` take a
        :meth:`copy`, which clones, first), and sharing keeps one set of
        memoized wire bytes per transport across the whole path.
        """
        new = object.__new__(IPPacket)
        d = self.__dict__.copy()
        d.pop("_hdr0_cache", None)
        d.pop("_wire_cache", None)
        d["ttl"] = self.ttl - hops
        d["checksum"] = None
        object.__setattr__(new, "__dict__", d)
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IP({self.src}->{self.dst} ttl={self.ttl} proto={self.effective_protocol} {self.transport!r})"


install_wire_cache(IPPacket, ("_hdr0_cache", "_wire_cache", "_flow_cache"))

_FIELD_NAMES = frozenset(f.name for f in fields(IPPacket))
#: Fields that participate in flow identity (see FiveTuple.of's packet memo).
_FLOW_FIELDS = frozenset({"src", "dst", "transport", "protocol"})
