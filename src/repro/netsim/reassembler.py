"""In-network IP fragment reassembly.

In the testbed, T-Mobile and the GFC, fragments we sent were reassembled
before they reached the server (Table 3 footnote 2).  This element performs
that reassembly at whatever point of the path the environment places it —
always *after* the classifier, since the testbed classifier demonstrably saw
the individual fragments.
"""

from __future__ import annotations

from repro.netsim.element import NetworkElement, TransitContext
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.fragment import reassemble_fragments
from repro.packets.ip import IPPacket

ReassemblyKey = tuple[str, str, int, int]


class FragmentReassembler(NetworkElement):
    """Buffers fragments and forwards only complete, reassembled datagrams.

    Args:
        timeout: seconds of virtual time after which an incomplete fragment
            set is discarded (as a real reassembler would, lest lost
            fragments pin memory forever).  ``None`` (the default) buffers
            indefinitely — the historical fault-free behaviour.
    """

    name = "frag-reassembler"

    def __init__(self, timeout: float | None = None) -> None:
        self.timeout = timeout
        self._pending: dict[ReassemblyKey, list[IPPacket]] = {}
        self._first_seen: dict[ReassemblyKey, float] = {}
        #: key -> (scheduler, event_id) for natively armed expiry timers
        #: (only populated while the path has a scheduler bound).
        self._timers: dict[ReassemblyKey, tuple[object, int]] = {}
        self.reassembled_count = 0
        self.expired_count = 0

    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Hold fragments until their datagram is complete, pass the rest through."""
        if self.timeout is not None:
            self._expire_stale(ctx.clock.now)
        if not packet.is_fragment:
            return [packet]
        key: ReassemblyKey = (
            packet.src,
            packet.dst,
            packet.identification,
            packet.effective_protocol,
        )
        bucket = self._pending.setdefault(key, [])
        if key not in self._first_seen:
            self._first_seen[key] = ctx.clock.now
            self._arm_expiry(key, ctx)
        bucket.append(packet)
        whole = reassemble_fragments(bucket)
        if whole is None:
            if obs_trace.TRACER is not None:
                obs_trace.TRACER.emit(
                    "frag.hold",
                    ctx.clock.now,
                    element=self.name,
                    pending=len(bucket),
                    **obs_trace.packet_fields(packet),
                )
            return []
        del self._pending[key]
        self._first_seen.pop(key, None)
        self._disarm(key)
        self.reassembled_count += 1
        if obs_trace.TRACER is not None:
            obs_trace.TRACER.emit(
                "frag.reassembled",
                ctx.clock.now,
                element=self.name,
                fragments=len(bucket),
                **obs_trace.packet_fields(whole),
            )
        if obs_metrics.METRICS is not None:
            obs_metrics.METRICS.inc("netsim.frags.reassembled")
        return [whole]

    def _expire_stale(self, now: float) -> None:
        stale = [
            key
            for key, first in self._first_seen.items()
            if now - first > self.timeout
        ]
        for key in stale:
            self._drop_expired(key, now)

    def _drop_expired(self, key: ReassemblyKey, now: float) -> None:
        pending = self._pending.pop(key, None)
        self._first_seen.pop(key, None)
        self._disarm(key)
        self.expired_count += 1
        if obs_trace.TRACER is not None:
            obs_trace.TRACER.emit(
                "frag.expired",
                now,
                element=self.name,
                reason="timeout",
                fragments=len(pending) if pending else 0,
                src=key[0],
                dst=key[1],
                ident=key[2],
            )
        if obs_metrics.METRICS is not None:
            obs_metrics.METRICS.inc("netsim.frags.expired")

    # ------------------------------------------------------------------
    # native (scheduler-armed) expiry — only while a scheduler is bound
    # ------------------------------------------------------------------
    def _arm_expiry(self, key: ReassemblyKey, ctx: TransitContext) -> None:
        """Arm a scheduler timer for *key*'s expiry deadline.

        Only when the path has a scheduler bound; without one the
        per-packet scan is the sole expiry.  The callback re-checks the
        pending state: the scan may have expired (strictly-late) or a
        completing fragment may have consumed the datagram first.
        """
        scheduler = getattr(ctx, "scheduler", None)
        if self.timeout is None or scheduler is None:
            return
        deadline = self._first_seen[key] + self.timeout
        event_id = scheduler.at(deadline, self._on_expiry_timer, key, deadline)
        self._timers[key] = (scheduler, event_id)

    def _on_expiry_timer(self, key: ReassemblyKey, deadline: float) -> None:
        self._timers.pop(key, None)
        first = self._first_seen.get(key)
        if first is None or self.timeout is None:
            return  # completed (or reset) before the deadline
        # The timer fires exactly at first + timeout; the native deadline is
        # inclusive (the scan's strict ``>`` would wait for the next packet,
        # which in deferred mode may never come).
        if deadline - first >= self.timeout:
            self._drop_expired(key, deadline)

    def _disarm(self, key: ReassemblyKey) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            scheduler, event_id = timer
            scheduler.cancel(event_id)  # type: ignore[attr-defined]

    def reset(self) -> None:
        """Drop buffered fragments."""
        for scheduler, event_id in self._timers.values():
            scheduler.cancel(event_id)  # type: ignore[attr-defined]
        self._timers.clear()
        self._pending.clear()
        self._first_seen.clear()
        self.reassembled_count = 0
