"""UDP datagram construction and parsing.

The ``length`` and ``checksum`` fields accept explicit overrides so callers
can craft the *UDP Length longer/shorter than payload* and *UDP Invalid
Checksum* inert packets from the paper's Table 3.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

from repro.packets.checksum import internet_checksum, pseudo_header

UDP_PROTO = 17
UDP_HEADER_LEN = 8

_new = object.__new__


class _UDPMemos:
    """Memo slots of :class:`UDPDatagram`, shaped and checked as TCP's.

    ``_wire0_cache`` is keyed on every header field except the checksum;
    ``_wire_cache`` and ``_csum_cache`` on the address pair (or the explicit
    checksum) plus the identity of the zero-wire they were built from.
    """

    __slots__ = ("_wire0_cache", "_wire_cache", "_csum_cache")


@dataclass(init=False, slots=True)
class UDPDatagram(_UDPMemos):
    """A UDP datagram.

    Attributes:
        sport: source port.
        dport: destination port.
        payload: application bytes.
        length: ``None`` computes header+payload; an explicit value is
            emitted verbatim (possibly inconsistent with the payload).
        checksum: ``None`` computes the correct value against the enclosing
            IP pseudo-header; an explicit value is emitted verbatim.
    """

    sport: int = 0
    dport: int = 0
    payload: bytes = b""
    length: int | None = None
    checksum: int | None = None

    def __init__(
        self, sport: int = 0, dport: int = 0, payload: bytes = b"",
        length: int | None = None, checksum: int | None = None,
    ) -> None:
        if not 0 <= sport <= 0xFFFF:
            raise ValueError(f"sport out of range: {sport}")
        if not 0 <= dport <= 0xFFFF:
            raise ValueError(f"dport out of range: {dport}")
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.length = length
        self.checksum = checksum
        self._wire0_cache = self._wire_cache = self._csum_cache = None

    @property
    def effective_length(self) -> int:
        """The length field value that will appear on the wire."""
        if self.length is not None:
            return self.length
        return UDP_HEADER_LEN + len(self.payload)

    def wire_length(self) -> int:
        """Actual serialized length (header + payload, ignoring overrides)."""
        return UDP_HEADER_LEN + len(self.payload)

    def has_valid_length(self) -> bool:
        """True when the declared length matches header + payload exactly."""
        return self.effective_length == self.wire_length()

    def _wire_zero(self) -> bytes:
        """Serialized datagram with a zero checksum field (memoized)."""
        key = (self.sport, self.dport, self.payload, self.length)
        cached = self._wire0_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        header = struct.pack("!HHHH", self.sport, self.dport, self.effective_length & 0xFFFF, 0)
        datagram = header + self.payload
        self._wire0_cache = (key, datagram)
        return datagram

    def to_bytes(self, src: str | None = None, dst: str | None = None) -> bytes:
        """Serialize the datagram, computing the checksum when possible.

        The result is memoized per (src, dst), or per explicit checksum, on
        top of the current zero-checksum wire.
        """
        zero = self._wire_zero()
        checksum = self.checksum
        if checksum is not None:
            cached = self._wire_cache
            if cached is not None and cached[1] is zero and cached[0] == checksum:
                return cached[2]
            wire = zero[:6] + struct.pack("!H", checksum) + zero[8:]
            self._wire_cache = (checksum, zero, wire)
            return wire
        if src is not None and dst is not None:
            pair = (src, dst)
            cached = self._wire_cache
            if cached is not None and cached[1] is zero and cached[0] == pair:
                return cached[2]
            pseudo = pseudo_header(src, dst, UDP_PROTO, len(zero))
            csum = internet_checksum(pseudo + zero)
            if csum == 0:
                csum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
            wire = zero[:6] + struct.pack("!H", csum) + zero[8:]
            self._wire_cache = (pair, zero, wire)
            return wire
        return zero

    @classmethod
    def from_bytes(cls, raw: bytes) -> "UDPDatagram":
        """Parse a datagram from wire bytes (declared length preserved)."""
        if len(raw) < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        sport, dport, length, checksum = struct.unpack("!HHHH", raw[:UDP_HEADER_LEN])
        return cls(
            sport=sport,
            dport=dport,
            payload=raw[UDP_HEADER_LEN:],
            length=length,
            checksum=checksum,
        )

    def verify_checksum(self, src: str, dst: str) -> bool:
        """Check the datagram checksum against the pseudo-header for src/dst."""
        checksum = self.checksum
        if checksum is None or checksum == 0:
            return True  # zero means "checksum not used" in UDP over IPv4
        zero = self._wire_zero()
        pair = (src, dst)
        cached = self._csum_cache
        if cached is not None and cached[1] is zero and cached[0] == pair:
            return cached[2] == checksum
        pseudo = pseudo_header(src, dst, UDP_PROTO, len(zero))
        expected = internet_checksum(pseudo + zero)
        if expected == 0:
            expected = 0xFFFF
        self._csum_cache = (pair, zero, expected)
        return expected == checksum

    def copy(self, **changes: object) -> "UDPDatagram":
        """Return a copy with *changes* applied (validating changed ports).

        The memos are carried over; they are checked on read.
        """
        if changes and not _FIELD_NAMES.issuperset(changes):
            bad = ", ".join(sorted(set(changes) - _FIELD_NAMES))
            raise TypeError(f"unknown UDPDatagram field(s): {bad}")
        new = _new(UDPDatagram)
        new.sport = self.sport
        new.dport = self.dport
        new.payload = self.payload
        new.length = self.length
        new.checksum = self.checksum
        new._wire0_cache = self._wire0_cache
        new._wire_cache = self._wire_cache
        new._csum_cache = self._csum_cache
        if changes:
            for name, value in changes.items():
                setattr(new, name, value)
            for name in ("sport", "dport"):
                if name in changes and not 0 <= changes[name] <= 0xFFFF:
                    raise ValueError(f"{name} out of range: {changes[name]}")
        return new

    def __reduce__(self) -> tuple:
        # Rebuild through the constructor: every memo slot exists (empty).
        return (type(self), (self.sport, self.dport, self.payload, self.length, self.checksum))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UDP({self.sport}->{self.dport} len={len(self.payload)})"


_FIELD_NAMES = frozenset(f.name for f in fields(UDPDatagram))
