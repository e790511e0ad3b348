"""Minimal ICMP support: Time Exceeded and Destination Unreachable.

Routers in :mod:`repro.netsim` emit Time Exceeded messages when a packet's
TTL expires, which lib·erate's localization phase (traceroute-style probing,
§5.2 of the paper) relies on to find the middlebox hop distance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

from repro.packets.checksum import internet_checksum

ICMP_PROTO = 1
ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACHABLE = 3
ICMP_ECHO_REQUEST = 8
ICMP_TIME_EXCEEDED = 11

_new = object.__new__


class _ICMPMemos:
    """Memo slot of :class:`ICMPMessage`: ``(its four fields, wire)``."""

    __slots__ = ("_wire_cache",)


@dataclass(init=False, slots=True)
class ICMPMessage(_ICMPMemos):
    """An ICMP message.

    Attributes:
        icmp_type: ICMP type number.
        code: ICMP code.
        rest: the 4 bytes following the checksum (identifier/sequence, unused
            for errors).
        payload: for error messages, the offending IP header + 8 bytes of its
            payload, as required by RFC 792.
    """

    icmp_type: int = ICMP_ECHO_REQUEST
    code: int = 0
    rest: bytes = b"\x00\x00\x00\x00"
    payload: bytes = b""

    def __init__(
        self, icmp_type: int = ICMP_ECHO_REQUEST, code: int = 0,
        rest: bytes = b"\x00\x00\x00\x00", payload: bytes = b"",
    ) -> None:
        if len(rest) != 4:
            raise ValueError("ICMP 'rest of header' must be exactly 4 bytes")
        self.icmp_type = icmp_type
        self.code = code
        self.rest = rest
        self.payload = payload
        self._wire_cache = None

    def to_bytes(self, src: str | None = None, dst: str | None = None) -> bytes:
        """Serialize with a correct checksum (src/dst accepted for API symmetry).

        ICMP checksums do not involve a pseudo-header, so the full wire form
        is memoized directly, keyed on the four fields.
        """
        key = (self.icmp_type, self.code, self.rest, self.payload)
        cached = self._wire_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        body = struct.pack("!BBH", self.icmp_type, self.code, 0) + self.rest + self.payload
        csum = internet_checksum(body)
        wire = body[:2] + struct.pack("!H", csum) + body[4:]
        self._wire_cache = (key, wire)
        return wire

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ICMPMessage":
        """Parse an ICMP message from wire bytes."""
        if len(raw) < 8:
            raise ValueError("truncated ICMP message")
        icmp_type, code, _checksum = struct.unpack("!BBH", raw[:4])
        return cls(icmp_type=icmp_type, code=code, rest=raw[4:8], payload=raw[8:])

    @property
    def is_time_exceeded(self) -> bool:
        """True for TTL-expired notifications."""
        return self.icmp_type == ICMP_TIME_EXCEEDED

    def wire_length(self) -> int:
        """Serialized length in bytes."""
        return 8 + len(self.payload)

    def copy(self, **changes: object) -> "ICMPMessage":
        """Return a copy with *changes* applied (the memo is carried over)."""
        if changes and not _FIELD_NAMES.issuperset(changes):
            bad = ", ".join(sorted(set(changes) - _FIELD_NAMES))
            raise TypeError(f"unknown ICMPMessage field(s): {bad}")
        new = _new(ICMPMessage)
        new.icmp_type = self.icmp_type
        new.code = self.code
        new.rest = self.rest
        new.payload = self.payload
        new._wire_cache = self._wire_cache
        if changes:
            for name, value in changes.items():
                setattr(new, name, value)
            if "rest" in changes and len(new.rest) != 4:
                raise ValueError("ICMP 'rest of header' must be exactly 4 bytes")
        return new

    def __reduce__(self) -> tuple:
        # Rebuild through the constructor: the memo slot exists (empty).
        return (type(self), (self.icmp_type, self.code, self.rest, self.payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ICMP(type={self.icmp_type} code={self.code})"


_FIELD_NAMES = frozenset(f.name for f in fields(ICMPMessage))


def icmp_time_exceeded(original_header: bytes) -> ICMPMessage:
    """Build a Time Exceeded (TTL expired in transit) error for a dropped packet.

    *original_header* should be the first bytes of the offending packet
    (IP header + 8 payload bytes), per RFC 792.
    """
    return ICMPMessage(
        icmp_type=ICMP_TIME_EXCEEDED,
        code=0,
        rest=b"\x00\x00\x00\x00",
        payload=original_header[:28],
    )
