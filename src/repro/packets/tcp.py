"""TCP segment construction and parsing.

``TCPSegment`` keeps header fields as attributes and serializes bit-exactly.
Fields whose default is ``None`` (``data_offset``, ``checksum``) are computed
on serialization; setting them explicitly freezes an arbitrary — possibly
invalid — value, which is how the TCP inert-packet techniques are crafted.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, fields

from repro.packets.checksum import internet_checksum, pseudo_header

TCP_PROTO = 6
TCP_HEADER_MIN = 20

_new = object.__new__


class TCPFlags(enum.IntFlag):
    """TCP control flags (RFC 793 plus ECN bits)."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80

    def is_valid_combination(self) -> bool:
        """Return False for nonsensical flag combinations (e.g. SYN|FIN).

        The check mirrors what strict stacks and NIDS normalizers reject:
        SYN together with FIN or RST, a segment with no flags at all, or the
        "christmas tree" pattern with every flag lit.
        """
        # Plain int arithmetic: this runs per packet in strict-carrier
        # filters, and IntFlag operators re-wrap every result.
        value = int(self)
        if not value:
            return False
        if value & 0x02 and value & 0x05:  # SYN with FIN or RST
            return False
        if value & 0x04 and value & 0x01:  # RST with FIN
            return False
        if value & 0x3F == 0x3F:  # FIN|SYN|RST|PSH|ACK|URG all lit
            return False
        return True


class _TCPMemos:
    """Memo slots of :class:`TCPSegment`, each checked when read.

    ``_wire0_cache`` is ``(header fields, zero-checksum wire)``, keyed on
    every header field except the checksum.  ``_wire_cache`` is ``(key,
    zero-wire, wire)`` and ``_csum_cache`` is ``((src, dst), zero-wire,
    correct checksum)``; *key* is the address pair, or the explicit checksum
    when one is set.  Both are used only while the zero-wire they were built
    from is the current one (an identity test), so assigning any field, in
    place or through a copy, can never surface a stale memo.
    """

    __slots__ = ("_wire0_cache", "_wire_cache", "_csum_cache")


@dataclass(init=False, slots=True)
class TCPSegment(_TCPMemos):
    """A TCP segment.

    Attributes:
        sport: source port.
        dport: destination port.
        seq: sequence number.
        ack: acknowledgment number.
        flags: :class:`TCPFlags` combination.
        window: receive window.
        urgent: urgent pointer.
        options: raw TCP option bytes (padded to 4-byte multiple on wire).
        payload: application bytes carried by the segment.
        data_offset: header length in 32-bit words; ``None`` computes the
            correct value, an explicit value may declare an invalid offset.
        checksum: ``None`` computes the correct value against the enclosing
            IP pseudo-header; an explicit value is emitted verbatim.
    """

    sport: int = 0
    dport: int = 0
    seq: int = 0
    ack: int = 0
    flags: TCPFlags = TCPFlags.ACK
    window: int = 65535
    urgent: int = 0
    options: bytes = b""
    payload: bytes = b""
    data_offset: int | None = None
    checksum: int | None = None

    def __init__(
        self, sport: int = 0, dport: int = 0, seq: int = 0, ack: int = 0,
        flags: TCPFlags = TCPFlags.ACK, window: int = 65535, urgent: int = 0,
        options: bytes = b"", payload: bytes = b"", data_offset: int | None = None,
        checksum: int | None = None,
    ) -> None:
        if type(flags) is not TCPFlags:
            flags = TCPFlags(flags)
        if not 0 <= sport <= 0xFFFF:
            raise ValueError(f"sport out of range: {sport}")
        if not 0 <= dport <= 0xFFFF:
            raise ValueError(f"dport out of range: {dport}")
        self.sport = sport
        self.dport = dport
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window
        self.urgent = urgent
        self.options = options
        self.payload = payload
        self.data_offset = data_offset
        self.checksum = checksum
        self._wire0_cache = self._wire_cache = self._csum_cache = None

    @property
    def padded_options(self) -> bytes:
        """Options padded with zero bytes to a 4-byte boundary."""
        remainder = len(self.options) % 4
        if remainder:
            return self.options + b"\x00" * (4 - remainder)
        return self.options

    @property
    def effective_data_offset(self) -> int:
        """The data offset that will appear on the wire."""
        if self.data_offset is not None:
            return self.data_offset
        return (TCP_HEADER_MIN + len(self.padded_options)) // 4

    @property
    def header_length(self) -> int:
        """Actual serialized header length in bytes (ignores overrides)."""
        length = len(self.options)
        return TCP_HEADER_MIN + length + (-length % 4)

    def wire_length(self) -> int:
        """Total serialized length: header plus payload.

        Inlined arithmetic rather than going through ``header_length``:
        shapers call this once per packet per hop.
        """
        length = len(self.options)
        return TCP_HEADER_MIN + length + (-length % 4) + len(self.payload)

    def has_valid_data_offset(self) -> bool:
        """True when the declared data offset matches the actual header."""
        return self.effective_data_offset * 4 == self.header_length

    def _wire_zero(self) -> bytes:
        """Serialized segment with a zero checksum field (memoized)."""
        key = (
            self.sport, self.dport, self.seq, self.ack, self.flags, self.window,
            self.urgent, self.options, self.payload, self.data_offset,
        )
        cached = self._wire0_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        header = struct.pack(
            "!HHIIHHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            (self.effective_data_offset & 0xF) << 12 | (int(self.flags) & 0xFF),
            self.window,
            0,
            self.urgent,
        )
        segment = header + self.padded_options + self.payload
        self._wire0_cache = (key, segment)
        return segment

    def to_bytes(self, src: str | None = None, dst: str | None = None) -> bytes:
        """Serialize the segment.

        When *src* and *dst* are given and ``checksum`` is ``None`` the
        correct checksum is computed over the pseudo-header; otherwise a
        checksum of zero (or the explicit override) is emitted.  The result
        is memoized per (src, dst), or per explicit checksum, on top of the
        current zero-checksum wire.
        """
        zero = self._wire_zero()
        checksum = self.checksum
        if checksum is not None:
            cached = self._wire_cache
            if cached is not None and cached[1] is zero and cached[0] == checksum:
                return cached[2]
            wire = zero[:16] + struct.pack("!H", checksum) + zero[18:]
            self._wire_cache = (checksum, zero, wire)
            return wire
        if src is not None and dst is not None:
            pair = (src, dst)
            cached = self._wire_cache
            if cached is not None and cached[1] is zero and cached[0] == pair:
                return cached[2]
            pseudo = pseudo_header(src, dst, TCP_PROTO, len(zero))
            csum = internet_checksum(pseudo + zero)
            wire = zero[:16] + struct.pack("!H", csum) + zero[18:]
            self._wire_cache = (pair, zero, wire)
            return wire
        return zero

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TCPSegment":
        """Parse a segment from wire bytes.

        The declared data offset is honored when splitting header from
        payload; a declared offset that overruns the buffer raises
        ``ValueError`` (matching what a stack would reject).
        """
        if len(raw) < TCP_HEADER_MIN:
            raise ValueError("truncated TCP header")
        sport, dport, seq, ack, off_flags, window, checksum, urgent = struct.unpack(
            "!HHIIHHHH", raw[:TCP_HEADER_MIN]
        )
        data_offset = off_flags >> 12
        flags = TCPFlags(off_flags & 0xFF)
        header_len = data_offset * 4
        if header_len < TCP_HEADER_MIN or header_len > len(raw):
            raise ValueError(f"invalid data offset {data_offset}")
        options = raw[TCP_HEADER_MIN:header_len]
        payload = raw[header_len:]
        return cls(
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            urgent=urgent,
            options=options,
            payload=payload,
            data_offset=data_offset,
            checksum=checksum,
        )

    def verify_checksum(self, src: str, dst: str) -> bool:
        """Check whether the segment's checksum is correct for *src*/*dst*.

        A ``None`` checksum (not yet serialized) counts as correct since
        serialization would fill in the right value.
        """
        checksum = self.checksum
        if checksum is None:
            return True
        zero = self._wire_zero()
        pair = (src, dst)
        cached = self._csum_cache
        if cached is not None and cached[1] is zero and cached[0] == pair:
            return cached[2] == checksum
        pseudo = pseudo_header(src, dst, TCP_PROTO, len(zero))
        expected = internet_checksum(pseudo + zero)
        self._csum_cache = (pair, zero, expected)
        return expected == checksum

    def copy(self, **changes: object) -> "TCPSegment":
        """Return a copy with *changes* applied.

        Equivalent to ``dataclasses.replace`` but built slot by slot (this
        is a per-packet construction hot path): unchanged fields already
        satisfy every ``__init__`` invariant, so only the changed ones are
        re-validated.  The memos are carried over; they are checked on read.
        """
        if changes and not _FIELD_NAMES.issuperset(changes):
            bad = ", ".join(sorted(set(changes) - _FIELD_NAMES))
            raise TypeError(f"unknown TCPSegment field(s): {bad}")
        new = _new(TCPSegment)
        new.sport = self.sport
        new.dport = self.dport
        new.seq = self.seq
        new.ack = self.ack
        new.flags = self.flags
        new.window = self.window
        new.urgent = self.urgent
        new.options = self.options
        new.payload = self.payload
        new.data_offset = self.data_offset
        new.checksum = self.checksum
        new._wire0_cache = self._wire0_cache
        new._wire_cache = self._wire_cache
        new._csum_cache = self._csum_cache
        if changes:
            for name, value in changes.items():
                setattr(new, name, value)
            if "flags" in changes and type(new.flags) is not TCPFlags:
                new.flags = TCPFlags(new.flags)
            for name in ("sport", "dport"):
                if name in changes and not 0 <= changes[name] <= 0xFFFF:
                    raise ValueError(f"{name} out of range: {changes[name]}")
            if "seq" in changes:
                new.seq &= 0xFFFFFFFF
            if "ack" in changes:
                new.ack &= 0xFFFFFFFF
        return new

    def __reduce__(self) -> tuple:
        # Pickle and copy.copy rebuild through the constructor, so every
        # memo slot exists (empty) on the result.
        return (type(self), (
            self.sport, self.dport, self.seq, self.ack, self.flags, self.window,
            self.urgent, self.options, self.payload, self.data_offset, self.checksum,
        ))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TCP({self.sport}->{self.dport} seq={self.seq} ack={self.ack} "
            f"flags={self.flags!r} len={len(self.payload)})"
        )


_FIELD_NAMES = frozenset(f.name for f in fields(TCPSegment))
