"""UDP datagram construction and parsing.

The ``length`` and ``checksum`` fields accept explicit overrides so callers
can craft the *UDP Length longer/shorter than payload* and *UDP Invalid
Checksum* inert packets from the paper's Table 3.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

from repro.packets._wirecache import install_wire_cache
from repro.packets.checksum import internet_checksum, pseudo_header

UDP_PROTO = 17
UDP_HEADER_LEN = 8

_EXPLICIT = object()  # _wire_cache key for serializations with an overridden checksum


@dataclass(init=False)
class UDPDatagram:
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
        # Validate as locals, then store the instance dict in one write
        # (construction skips the wire-cache __setattr__ hook).
        if not 0 <= sport <= 0xFFFF:
            raise ValueError(f"sport out of range: {sport}")
        if not 0 <= dport <= 0xFFFF:
            raise ValueError(f"dport out of range: {dport}")
        object.__setattr__(self, "__dict__", {
            "sport": sport, "dport": dport, "payload": payload, "length": length,
            "checksum": checksum,
        })

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
        cached = self._wire0_cache
        if cached is not None:
            return cached
        header = struct.pack("!HHHH", self.sport, self.dport, self.effective_length & 0xFFFF, 0)
        datagram = header + self.payload
        object.__setattr__(self, "_wire0_cache", datagram)
        return datagram

    def to_bytes(self, src: str | None = None, dst: str | None = None) -> bytes:
        """Serialize the datagram, computing the checksum when possible.

        The result is memoized per (src, dst) and invalidated when any field
        is assigned.
        """
        if self.checksum is not None:
            cached = self._wire_cache
            if cached is not None and cached[0] is _EXPLICIT:
                return cached[1]
            datagram = self._wire_zero()
            wire = datagram[:6] + struct.pack("!H", self.checksum) + datagram[8:]
            object.__setattr__(self, "_wire_cache", (_EXPLICIT, wire))
            return wire
        if src is not None and dst is not None:
            cached = self._wire_cache
            if cached is not None and cached[0] == (src, dst):
                return cached[1]
            datagram = self._wire_zero()
            pseudo = pseudo_header(src, dst, UDP_PROTO, len(datagram))
            csum = internet_checksum(pseudo + datagram)
            if csum == 0:
                csum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
            wire = datagram[:6] + struct.pack("!H", csum) + datagram[8:]
            object.__setattr__(self, "_wire_cache", ((src, dst), wire))
            return wire
        return self._wire_zero()

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
        if self.checksum is None or self.checksum == 0:
            return True  # zero means "checksum not used" in UDP over IPv4
        cached = self._csum_cache
        if cached is not None and cached[0] == (src, dst):
            return cached[1]
        datagram = self._wire_zero()
        pseudo = pseudo_header(src, dst, UDP_PROTO, len(datagram))
        expected = internet_checksum(pseudo + datagram)
        if expected == 0:
            expected = 0xFFFF
        ok = expected == self.checksum
        object.__setattr__(self, "_csum_cache", ((src, dst), ok))
        return ok

    def copy(self, **changes: object) -> "UDPDatagram":
        """Return a copy with *changes* applied (validating changed ports)."""
        if changes and not _FIELD_NAMES.issuperset(changes):
            bad = ", ".join(sorted(set(changes) - _FIELD_NAMES))
            raise TypeError(f"unknown UDPDatagram field(s): {bad}")
        new = object.__new__(UDPDatagram)
        d = new.__dict__
        d.update(self.__dict__)
        d.pop("_wire0_cache", None)
        d.pop("_wire_cache", None)
        d.pop("_csum_cache", None)
        if changes:
            d.update(changes)
            for name in ("sport", "dport"):
                if name in changes and not 0 <= d[name] <= 0xFFFF:
                    raise ValueError(f"{name} out of range: {d[name]}")
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UDP({self.sport}->{self.dport} len={len(self.payload)})"


install_wire_cache(UDPDatagram, ("_wire0_cache", "_wire_cache", "_csum_cache"))

_FIELD_NAMES = frozenset(f.name for f in fields(UDPDatagram))
