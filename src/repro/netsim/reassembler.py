"""In-network IP fragment reassembly.

In the testbed, T-Mobile and the GFC, fragments we sent were reassembled
before they reached the server (Table 3 footnote 2).  This element performs
that reassembly at whatever point of the path the environment places it —
always *after* the classifier, since the testbed classifier demonstrably saw
the individual fragments.
"""

from __future__ import annotations

from repro import obs
from repro.netsim.element import NetworkElement, TransitContext
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.fragment import FragmentBuffer, FragmentKey
from repro.packets.ip import IPPacket


class FragmentReassembler(NetworkElement):
    """Buffers fragments and forwards only complete, reassembled datagrams.

    Args:
        timeout: seconds of virtual time after which an incomplete fragment
            set is discarded (as a real reassembler would, lest lost
            fragments pin memory forever); checked whenever a fragment
            arrives.  ``None`` (the default) buffers indefinitely — the
            historical fault-free behaviour.
    """

    name = "frag-reassembler"

    def __init__(self, timeout: float | None = None) -> None:
        self._buffer = FragmentBuffer(timeout=timeout, on_expire=self._expired)
        self.reassembled_count = 0
        self.expired_count = 0

    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Hold fragments until their datagram is complete, pass the rest through."""
        if not packet.is_fragment:
            return [packet]
        now = ctx.clock.now
        whole, fragments = self._buffer.feed(packet, now)
        events = obs.EVENTS
        if whole is None:
            if events is not None:
                events.emit(
                    "frag.hold", now, element=self.name, pending=fragments,
                    **obs_trace.packet_fields(packet),
                )
            return []
        self.reassembled_count += 1
        if events is not None:
            events.emit(
                "frag.reassembled", now, element=self.name, fragments=fragments,
                **obs_trace.packet_fields(whole),
            )
        return [whole]

    def _expired(self, key: FragmentKey, count: int, now: float) -> None:
        self.expired_count += 1
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "frag.expired", now, element=self.name, reason="timeout", fragments=count,
                src=key[0], dst=key[1], ident=key[2],
            )

    def reset(self) -> None:
        """Drop buffered fragments."""
        self._buffer.clear()
        self.reassembled_count = 0
