"""Deterministic event scheduler — the netsim's deferred-frame queue.

Historically the simulator advanced per packet through nested function
calls: ``Path.send_from_client`` walked every element synchronously, and a
second flow could only begin once the first one's whole frame (including
injected responses) had unwound.  That shape cannot express thousands of
interleaved flows — the regime the bounded flow tables were built for — nor
congestion scenarios where flow B's packets land *between* flow A's.

:class:`EventScheduler` is that substrate: a priority queue of
``(deadline, seq)``-keyed events over the existing
:class:`~repro.netsim.clock.VirtualClock`.  Work is registered with
:meth:`EventScheduler.at` and consumed in virtual-time order by
:meth:`EventScheduler.run`.  The per-packet synchronous API stays a direct
walk of the element chain; the scheduler carries deferred frames
(:meth:`~repro.netsim.path.Path.schedule_from_client`), which is what
``liberate congest`` drives.

Determinism contract (the property suite and the congestion pin hold it):

* Events fire in ``(deadline, seq)`` order — wall-deadline order with FIFO
  tie-breaking on the schedule sequence, independent of heap internals.
* The clock never runs backwards: firing an event whose deadline has
  already passed runs it at the current time without rewinding.
* **Zero-delay events fire in the same drain.**  An event registered at
  the current time — including from inside another event's handler — is
  consumed by the drain already in progress, not parked for a later one.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.netsim.clock import VirtualClock

__all__ = ["EventScheduler"]


class EventScheduler:
    """A deterministic ``(deadline, seq)`` event queue over a virtual clock.

    Args:
        clock: the shared virtual clock; firing an event advances it to the
            event's deadline (monotonically).
    """

    __slots__ = ("clock", "_heap", "_next_seq", "fired", "max_pending", "_draining")

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        #: heap entries: (deadline, seq, fn, args); seq is unique, so the
        #: comparison never reaches fn.
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._next_seq = 0
        self.fired = 0
        self.max_pending = 0
        self._draining = False

    @property
    def now(self) -> float:
        """The scheduler's current virtual time (the clock's)."""
        return self.clock.now

    def at(self, deadline: float, fn: Callable[..., Any], *args: Any) -> None:
        """Register ``fn(*args)`` to run once the drain reaches *deadline*.

        A deadline at or before the current time means "as soon as
        possible": the event keeps its requested deadline for ordering but
        fires within the drain in progress (zero-delay semantics).
        """
        heapq.heappush(self._heap, (deadline, self._next_seq, fn, args))
        self._next_seq += 1
        if len(self._heap) > self.max_pending:
            self.max_pending = len(self._heap)

    def run(self, until: float | None = None, limit: int | None = None) -> int:
        """Drain events in ``(deadline, seq)`` order; returns events fired.

        *until* bounds the drain to events due at or before that time
        (inclusive); None drains until the queue is empty.  Events
        registered by handlers during the drain participate immediately —
        a zero-delay event from inside a handler fires in this same drain.
        *limit* is a safety valve against runaway self-registering loops.
        """
        # Re-entrant run (a handler drained the scheduler itself) would
        # double-fire; the inner call is a no-op and the outer loop picks
        # the new events up naturally.
        if self._draining:
            return 0
        self._draining = True
        heap, clock = self._heap, self.clock
        fired = 0
        try:
            while heap and (limit is None or fired < limit):
                if until is not None and heap[0][0] > until:
                    break
                deadline, _seq, fn, args = heapq.heappop(heap)
                if deadline > clock.now:
                    # Land exactly on the deadline: `now += deadline - now`
                    # can overshoot by one ulp, and exactness is part of the
                    # contract.
                    clock.now = deadline
                self.fired += 1
                fired += 1
                fn(*args)
        finally:
            self._draining = False
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventScheduler(now={self.clock.now:.3f}, pending={len(self._heap)}, "
            f"fired={self.fired})"
        )
