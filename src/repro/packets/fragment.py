"""IP fragmentation and reassembly.

The *payload splitting/reordering via IP fragments* techniques (Table 3)
split one IP datagram into several fragments.  Fragments carry raw transport
bytes (a receiver cannot parse half a TCP header), so reassembly restores the
original typed packet.

Every hop that reassembles (the in-network reassembler, the DPI engine's
virtual reassembly, the transparent proxy, the normalizer and the endpoint
stacks) holds fragments in a :class:`FragmentBuffer`: one bound, one
eviction order and one optional timeout, the parameter set by which Xue et
al. tell such devices apart.
"""

from __future__ import annotations

from typing import Callable

from repro.middlebox.flowtable import FlowTable
from repro.packets.icmp import ICMP_PROTO, ICMPMessage
from repro.packets.ip import IPPacket, Transport
from repro.packets.tcp import TCP_PROTO, TCPSegment
from repro.packets.udp import UDP_PROTO, UDPDatagram

FRAGMENT_UNIT = 8  # fragment offsets are expressed in 8-byte units

#: Fragment groups one buffer holds at once; a new group beyond it drops
#: the oldest.
FRAGMENT_GROUPS = 4096

#: A fragment group: (src, dst, identification, protocol).
FragmentKey = tuple[str, str, int, int]


def fragment_packet(
    packet: IPPacket, fragment_size: int, identification: int | None = None
) -> list[IPPacket]:
    """Split *packet* into fragments of at most *fragment_size* payload bytes.

    *fragment_size* is rounded down to a multiple of 8 (the fragment-offset
    unit); it must be at least 8.  Returns the fragments in order.  A packet
    whose payload fits in one fragment is returned unchanged (as a one-element
    list).
    """
    if fragment_size < FRAGMENT_UNIT:
        raise ValueError("fragment_size must be at least 8 bytes")
    fragment_size -= fragment_size % FRAGMENT_UNIT
    body = packet.payload_bytes
    if len(body) <= fragment_size:
        return [packet]
    if packet.df:
        raise ValueError("cannot fragment a packet with DF set")
    ident = identification if identification is not None else packet.identification or 0x4242
    fragments: list[IPPacket] = []
    offset = 0
    while offset < len(body):
        chunk = body[offset : offset + fragment_size]
        last = offset + len(chunk) >= len(body)
        fragments.append(
            packet.copy(
                transport=chunk,
                protocol=packet.effective_protocol,
                identification=ident,
                mf=not last,
                frag_offset=offset // FRAGMENT_UNIT,
                total_length=None,
                checksum=None,
            )
        )
        offset += len(chunk)
    return fragments


def reassemble_fragments(fragments: list[IPPacket]) -> IPPacket | None:
    """Reassemble fragments (any order) into the original packet.

    Returns None when the fragment set is incomplete (holes, missing last
    fragment) or inconsistent.  On success the transport layer is re-parsed
    into its typed form.
    """
    if not fragments:
        return None
    ordered = sorted(fragments, key=lambda p: p.frag_offset)
    # Duplicated fragments (retransmission or a lossy link emitting copies)
    # must not read as an overlap: keep the first arrival at each offset.
    deduped: list[IPPacket] = []
    seen_offsets: set[int] = set()
    for frag in ordered:
        if frag.frag_offset in seen_offsets:
            continue
        seen_offsets.add(frag.frag_offset)
        deduped.append(frag)
    ordered = deduped
    first = ordered[0]
    if first.frag_offset != 0:
        return None
    body = bytearray()
    expected_offset = 0
    saw_last = False
    for frag in ordered:
        if frag.frag_offset * FRAGMENT_UNIT != expected_offset:
            return None  # hole or overlap
        chunk = frag.transport if isinstance(frag.transport, bytes) else frag.payload_bytes
        body.extend(chunk)
        expected_offset += len(chunk)
        if not frag.mf:
            saw_last = True
            break
    if not saw_last:
        return None
    # Parse the reassembled body straight into its typed transport instead of
    # serializing the whole packet and re-parsing it (the header fields are
    # already in hand; only the transport needs re-typing).
    body_bytes = bytes(body)
    protocol = first.effective_protocol
    transport: Transport = body_bytes
    try:
        if protocol == TCP_PROTO:
            transport = TCPSegment.from_bytes(body_bytes)
        elif protocol == UDP_PROTO:
            transport = UDPDatagram.from_bytes(body_bytes)
        elif protocol == ICMP_PROTO:
            transport = ICMPMessage.from_bytes(body_bytes)
    except ValueError:
        transport = body_bytes
    return first.copy(
        transport=transport,
        protocol=protocol,
        mf=False,
        frag_offset=0,
        total_length=None,
        checksum=None,
    )


class _Group:
    """One datagram's fragments: the first arrival at each offset, and the
    number of fragments received, duplicates included."""

    __slots__ = ("first", "fragments", "count")

    def __init__(self, first: float) -> None:
        self.first = first
        self.fragments: dict[int, IPPacket] = {}
        self.count = 0


class FragmentBuffer:
    """Fragments held by group until their datagram reassembles.

    Groups are keyed by :data:`FragmentKey` and kept in creation order,
    at most :data:`FRAGMENT_GROUPS` of them: a new group beyond the bound
    drops the oldest.  A group whose fragments never reassemble (a hole,
    an overlap) stays until the bound or the timeout drops it.  A group
    keeps only the first arrival at each offset, the one
    :func:`reassemble_fragments` would use, so duplicates cost nothing.

    Args:
        name: metrics label of the underlying
            :class:`~repro.middlebox.flowtable.FlowTable` (None: no metrics).
        timeout: seconds after its first fragment beyond which (strictly)
            a group is dropped, checked from the oldest group on each
            arrival; None keeps groups until the bound drops them.
        on_expire: called as ``on_expire(key, count, now)`` for each group
            the timeout drops, *count* being the fragments it received.
    """

    __slots__ = ("timeout", "_on_expire", "_groups")

    def __init__(
        self,
        name: str | None = None,
        timeout: float | None = None,
        on_expire: Callable[[FragmentKey, int, float], None] | None = None,
    ) -> None:
        self.timeout = timeout
        self._on_expire = on_expire
        self._groups: FlowTable[FragmentKey, _Group] = FlowTable(
            capacity=FRAGMENT_GROUPS, name=name
        )

    def __len__(self) -> int:
        return len(self._groups)

    def feed(self, packet: IPPacket, now: float = 0.0) -> tuple[IPPacket | None, int]:
        """Add the fragment *packet* to its group.

        Returns the reassembled datagram once the group completes (None
        before) and the number of fragments the group has received,
        duplicates included.
        """
        if self.timeout is not None:
            self._expire(now)
        groups = self._groups
        key = (packet.src, packet.dst, packet.identification, packet.effective_protocol)
        group = groups.peek(key)
        if group is None:
            group = _Group(now)
            groups.insert(key, group)
        group.count += 1
        fragments = group.fragments
        if packet.frag_offset in fragments:
            # A later copy at a held offset leaves the group's set, and so
            # its (incomplete) reassembly, unchanged.
            return None, group.count
        fragments[packet.frag_offset] = packet
        whole = reassemble_fragments(list(fragments.values()))
        if whole is not None:
            groups.pop(key)
        return whole, group.count

    def _expire(self, now: float) -> None:
        expired = []
        for key, group in self._groups.items():
            if now - group.first <= self.timeout:  # type: ignore[operator]
                break
            expired.append((key, group.count))
        for key, count in expired:
            self._groups.pop(key)
            if self._on_expire is not None:
                self._on_expire(key, count, now)

    def clear(self) -> None:
        """Drop every group."""
        self._groups.clear()
