"""Batched wire serialization for packet collections.

Replay observation, pcap export and path delivery all serialize *many*
packets at once — usually long runs of plain TCP/UDP packets that share the
same (src, dst) pair.  :func:`serialize_batch` exploits that shape: the
pseudo-header prefix and address bytes are computed once per endpoint pair,
checksums are folded over memo-warm zero-wires, and every result is written
back into the per-object wire memos, in the shape ``to_bytes()`` writes them
(keyed on the fields and the zero-wire or transport bytes they were built
from), so later ``to_bytes()`` calls hit.

Exact-equivalence contract: for every packet, the produced bytes are
byte-identical to ``packet.to_bytes()`` — anything whose shape the fast path
does not cover (header overrides, IP options, fragments, raw/ICMP
transports, explicit checksums) falls back to ``to_bytes()`` itself.
"""

from __future__ import annotations

import struct

from repro import obs
from repro.packets.checksum import internet_checksum, ip_to_bytes
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCP_PROTO, TCPSegment
from repro.packets.udp import UDP_PROTO, UDPDatagram

_PACK_BBH = struct.Struct("!BBH").pack
_PACK_H = struct.Struct("!H").pack
_PACK_IP = struct.Struct("!BBHHHBBH").pack


def _plain_shape(packet: IPPacket) -> bool:
    """True when the fast path reproduces ``to_bytes()`` exactly.

    Pristine IP header (every override field at its auto-computed default,
    no options) wrapping a typed TCP/UDP transport whose checksum is
    computed, not frozen.  A UDP length override is fine: both the
    pseudo-header and the IP total length use the actual serialized size,
    exactly as ``to_bytes()`` does.
    """
    if (
        packet.version != 4
        or packet.ihl is not None
        or packet.total_length is not None
        or packet.protocol is not None
        or packet.checksum is not None
        or packet.options
    ):
        return False
    transport = packet.transport
    if type(transport) is TCPSegment:
        return transport.checksum is None
    if type(transport) is UDPDatagram:
        return transport.checksum is None
    return False


def serialize_batch(
    packets: list[IPPacket], *, lenient: bool = False
) -> list[bytes | None]:
    """Serialize *packets* to wire bytes, sharing work across the batch.

    Returns one entry per input packet, in order.  With ``lenient=True``,
    packets that cannot be serialized (deliberately malformed crafted
    packets) yield ``None`` instead of raising.

    Every produced byte string equals the packet's own ``to_bytes()``
    result, and both the transport's and the packet's wire memos are warmed,
    so interleaved per-packet serialization stays consistent.  Each wire the
    fast path computes counts as one ``wirecache.misses``; packets that go
    through ``to_bytes()`` count there.
    """
    out: list[bytes | None] = []
    encoded = 0
    # Shared per-(src, dst) state: address bytes and pseudo-header prefix.
    pair_key: tuple[str, str] | None = None
    addr_bytes = b""
    for packet in packets:
        if not _plain_shape(packet):
            out.append(_serialize_one(packet, lenient))
            continue
        src = packet.src
        dst = packet.dst
        transport = packet.transport
        proto = TCP_PROTO if type(transport) is TCPSegment else UDP_PROTO
        try:
            if (src, dst) != pair_key:
                addr_bytes = ip_to_bytes(src) + ip_to_bytes(dst)
                pair_key = (src, dst)
            # Transport bytes: reuse the per-(src, dst) memo built on the
            # current zero-wire, else compute over the shared pseudo-header
            # prefix and warm the memo.
            zero = transport._wire_zero()
            cached = transport._wire_cache
            if cached is not None and cached[1] is zero and cached[0] == pair_key:
                seg = cached[2]
            else:
                csum = internet_checksum(
                    addr_bytes + _PACK_BBH(0, proto, len(zero)) + zero
                )
                if proto == TCP_PROTO:
                    seg = zero[:16] + _PACK_H(csum) + zero[18:]
                else:
                    if csum == 0:
                        csum = 0xFFFF  # RFC 768: zero means "no checksum"
                    seg = zero[:6] + _PACK_H(csum) + zero[8:]
                transport._wire_cache = (pair_key, zero, seg)
            # IP header: pristine shape means IHL 5, version 4, derived
            # protocol, computed total length and checksum.
            flags_frag = (0x4000 if packet.df else 0) | (0x2000 if packet.mf else 0)
            flags_frag |= packet.frag_offset & 0x1FFF
            header0 = (
                _PACK_IP(
                    0x45,
                    packet.tos,
                    (20 + len(seg)) & 0xFFFF,
                    packet.identification & 0xFFFF,
                    flags_frag,
                    packet.ttl & 0xFF,
                    proto,
                    0,
                )
                + addr_bytes
            )
        except (ValueError, OverflowError, struct.error):
            if not lenient:
                raise
            out.append(None)
            continue
        wire = header0[:10] + _PACK_H(internet_checksum(header0)) + header0[12:] + seg
        packet._wire_cache = (packet._header_key(), type(transport), seg, wire)
        out.append(wire)
        encoded += 1
    metrics = obs.METRICS
    if metrics is not None and encoded:
        metrics.inc("wirecache.misses", encoded)
    return out


def _serialize_one(packet: IPPacket, lenient: bool) -> bytes | None:
    try:
        return packet.to_bytes()
    except (ValueError, OverflowError, struct.error):
        if not lenient:
            raise
        return None


def concat_wire_bytes(packets: list[IPPacket]) -> bytes:
    """All serializable packets' wire bytes, concatenated in order.

    Unserializable crafted packets are skipped — the marker-scan and
    replay-progress checks that call this only care about the byte stream
    that actually made it onto the wire.
    """
    return b"".join(wire for wire in serialize_batch(packets, lenient=True) if wire)
