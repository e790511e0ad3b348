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

from repro import obs
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

_new = object.__new__


class _IPMemos:
    """Memo slots of :class:`IPPacket`, each checked when read.

    ``_hdr0_cache`` (zero-checksum header) and ``_wire_cache`` (full wire)
    are ``(header fields, transport type, transport bytes, value)``: used
    only while the 14 header fields still equal the recorded ones and the
    transport serializes to the very bytes object they were built from (its
    own memos return the same object until one of its fields changes).
    ``_flow_cache`` is ``(transport, declared protocol, FiveTuple or None,
    src, dst, sport, dport)``, read by
    :meth:`FiveTuple.of <repro.packets.flow.FiveTuple.of>`.
    """

    __slots__ = ("_hdr0_cache", "_wire_cache", "_flow_cache")


@dataclass(init=False, slots=True)
class IPPacket(_IPMemos):
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
        self.src = src
        self.dst = dst
        self.transport = transport
        self.ttl = ttl
        self.version = version
        self.ihl = ihl
        self.tos = tos
        self.total_length = total_length
        self.identification = identification
        self.df = df
        self.mf = mf
        self.frag_offset = frag_offset
        self.protocol = protocol
        self.checksum = checksum
        self.options = options
        self._hdr0_cache = self._wire_cache = self._flow_cache = None

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

    def _header_key(self) -> tuple:
        """The 14 header fields the header and wire memos are keyed on."""
        return (
            self.src, self.dst, self.ttl, self.version, self.ihl, self.tos,
            self.total_length, self.identification, self.df, self.mf, self.frag_offset,
            self.protocol, self.checksum, self.options,
        )

    def _header_zero(self, payload: bytes | None = None, key: tuple | None = None) -> bytes:
        """Serialized header with a zero checksum field (memoized).

        The header depends on the transport only through its type (the
        derived protocol) and its length, so the memo is keyed on the header
        fields, the transport type and the identity of the transport's
        serialized bytes: a transport's own memo returns the same bytes
        object until one of its fields changes.  *payload* and *key* are
        passed in by :meth:`to_bytes`, which has already computed them.
        """
        if payload is None:
            payload = self.payload_bytes
            key = self._header_key()
        ttype = type(self.transport)
        cached = self._hdr0_cache
        if cached is not None and cached[2] is payload and cached[1] is ttype and cached[0] == key:
            return cached[3]
        header0 = self._header_bytes(checksum=0)
        self._hdr0_cache = (key, ttype, payload, header0)
        return header0

    def to_bytes(self) -> bytes:
        """Serialize the full packet (header + transport) to wire bytes."""
        payload = self.payload_bytes
        key = self._header_key()
        ttype = type(self.transport)
        cached = self._wire_cache
        metrics = obs.METRICS
        if cached is not None and cached[2] is payload and cached[1] is ttype and cached[0] == key:
            if metrics is not None:
                metrics.inc("wirecache.hits")
            return cached[3]
        if metrics is not None:
            metrics.inc("wirecache.misses")
        header0 = self._header_zero(payload, key)
        if self.checksum is not None:
            csum = self.checksum
        else:
            csum = internet_checksum(header0)
        wire = header0[:10] + struct.pack("!H", csum) + header0[12:] + payload
        self._wire_cache = (key, ttype, payload, wire)
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

        The transport object is also copied (its memos carried over), so the
        copy can be mutated independently.  This is the per-hop hot path, so
        the copy is built slot by slot rather than through
        ``dataclasses.replace`` (``IPPacket.__init__`` validates nothing, and
        the source's fields already satisfy every invariant).  The header
        and wire memos start empty: a copy almost always changes a header
        field.  The flow-key memo follows the transport onto its clone.
        """
        if changes and not _FIELD_NAMES.issuperset(changes):
            bad = ", ".join(sorted(set(changes) - _FIELD_NAMES))
            raise TypeError(f"unknown IPPacket field(s): {bad}")
        new = _new(IPPacket)
        transport = self.transport
        new.src = self.src
        new.dst = self.dst
        new.transport = transport
        new.ttl = self.ttl
        new.version = self.version
        new.ihl = self.ihl
        new.tos = self.tos
        new.total_length = self.total_length
        new.identification = self.identification
        new.df = self.df
        new.mf = self.mf
        new.frag_offset = self.frag_offset
        new.protocol = self.protocol
        new.checksum = self.checksum
        new.options = self.options
        new._hdr0_cache = new._wire_cache = None
        flow = self._flow_cache
        for name, value in changes.items():
            setattr(new, name, value)
        if "transport" in changes:
            flow = None
        elif not isinstance(transport, bytes):
            fresh = transport.copy()
            new.transport = fresh
            if flow is not None:
                flow = (fresh,) + flow[1:]
        new._flow_cache = flow
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
        new = _new(IPPacket)
        new.src = self.src
        new.dst = self.dst
        new.transport = self.transport
        new.ttl = self.ttl - hops
        new.version = self.version
        new.ihl = self.ihl
        new.tos = self.tos
        new.total_length = self.total_length
        new.identification = self.identification
        new.df = self.df
        new.mf = self.mf
        new.frag_offset = self.frag_offset
        new.protocol = self.protocol
        new.checksum = None
        new.options = self.options
        new._hdr0_cache = new._wire_cache = None
        new._flow_cache = self._flow_cache
        return new

    def __reduce__(self) -> tuple:
        # Pickle and copy.copy rebuild through the constructor, so every
        # memo slot exists (empty) on the result.
        return (type(self), (
            self.src, self.dst, self.transport, self.ttl, self.version, self.ihl, self.tos,
            self.total_length, self.identification, self.df, self.mf, self.frag_offset,
            self.protocol, self.checksum, self.options,
        ))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IP({self.src}->{self.dst} ttl={self.ttl} proto={self.effective_protocol} {self.transport!r})"


_FIELD_NAMES = frozenset(f.name for f in fields(IPPacket))
