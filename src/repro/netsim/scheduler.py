"""Deterministic event scheduler — the netsim's event-driven core.

Historically the simulator advanced per packet through nested function
calls: ``Path.send_from_client`` walked every element synchronously, and a
second flow could only begin once the first one's whole frame (including
injected responses) had unwound.  That shape cannot express thousands of
interleaved flows — the regime the bounded flow tables were built for — nor
congestion scenarios where flow B's packets land *between* flow A's.

:class:`EventScheduler` is the replacement substrate: a priority queue of
``(deadline, seq)``-keyed events over the existing
:class:`~repro.netsim.clock.VirtualClock`.  Work is *posted* as events and
*consumed* in virtual-time order.  The per-packet synchronous API stays a
direct walk of the element chain; the scheduler carries deferred frames
(:meth:`~repro.netsim.path.Path.schedule_from_client`) and element timers
(fragment-reassembly expiry) armed while one is bound.

Determinism contract (the property suite and the congestion pin hold it):

* Events fire in ``(deadline, seq)`` order — wall-deadline order with FIFO
  tie-breaking on the schedule sequence, independent of heap internals.
* The clock never runs backwards: firing an event whose deadline has
  already passed (scheduled "in the past" by a lazy re-arm) runs it at the
  current time without rewinding.
* **Zero-delay events fire in the same drain.**  An event posted at the
  current time — including from inside another event's handler — is
  consumed by the drain already in progress, not parked for a future
  advance.  This mirrors the fix for ``VirtualClock.advance(0)``: a zero
  advance still drains everything due *now* instead of treating it as
  overdue-next-tick.
* Cancellation is O(1) lazy: the heap entry is tombstoned and skipped
  when popped.
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

    __slots__ = (
        "clock",
        "_heap",
        "_live",
        "_next_id",
        "_next_seq",
        "scheduled",
        "fired",
        "cancelled",
        "max_pending",
        "_draining",
    )

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        #: heap entries: (deadline, seq, event_id)
        self._heap: list[tuple[float, int, int]] = []
        #: event_id -> (fn, args); cancelled ids are removed here and lazily
        #: skipped when popped from the heap.
        self._live: dict[int, tuple[Callable[..., Any], tuple]] = {}
        self._next_id = 0
        self._next_seq = 0
        self.scheduled = 0
        self.fired = 0
        self.cancelled = 0
        self.max_pending = 0
        self._draining = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The scheduler's current virtual time (the clock's)."""
        return self.clock.now

    def __len__(self) -> int:
        return len(self._live)

    @property
    def pending(self) -> int:
        """Number of events scheduled and not yet fired or cancelled."""
        return len(self._live)

    def next_deadline(self) -> float | None:
        """Deadline of the earliest pending event (None when idle)."""
        while self._heap and self._heap[0][2] not in self._live:
            heapq.heappop(self._heap)  # tombstoned (cancelled)
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, deadline: float, fn: Callable[..., Any], *args: Any) -> int:
        """Register ``fn(*args)`` to run once the drain reaches *deadline*.

        A deadline at or before the current time means "as soon as
        possible": the event keeps its requested deadline for ordering but
        fires within the drain in progress (zero-delay semantics).
        Returns an event id for :meth:`cancel`.
        """
        event_id = self._next_id
        self._next_id += 1
        seq = self._next_seq
        self._next_seq += 1
        self._live[event_id] = (fn, args)
        heapq.heappush(self._heap, (deadline, seq, event_id))
        self.scheduled += 1
        if len(self._live) > self.max_pending:
            self.max_pending = len(self._live)
        return event_id

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> int:
        """Register ``fn(*args)`` to run *delay* seconds from now (>= 0)."""
        if delay < 0:
            raise ValueError("delay cannot be negative")
        return self.at(self.clock.now + delay, fn, *args)

    def post(self, fn: Callable[..., Any], *args: Any) -> int:
        """Zero-delay scheduling: run in the current (or next) drain."""
        return self.at(self.clock.now, fn, *args)

    def cancel(self, event_id: int) -> bool:
        """Forget a pending event; True when it had not fired yet."""
        if self._live.pop(event_id, None) is None:
            return False
        self.cancelled += 1
        return True

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def _pop_due(self, horizon: float | None) -> tuple[float, Callable[..., Any], tuple] | None:
        """The earliest live event due by *horizon* (None = no bound)."""
        while self._heap:
            deadline, _seq, event_id = self._heap[0]
            if event_id not in self._live:
                heapq.heappop(self._heap)  # cancelled
                continue
            if horizon is not None and deadline > horizon:
                return None
            heapq.heappop(self._heap)
            fn, args = self._live.pop(event_id)
            return deadline, fn, args
        return None

    def _fire(self, deadline: float, fn: Callable[..., Any], args: tuple) -> None:
        clock = self.clock
        if deadline > clock.now:
            # Land exactly on the deadline: `now += deadline - now` can
            # overshoot by one ulp, and exactness is part of the contract.
            clock.now = deadline
        self.fired += 1
        fn(*args)

    def step(self) -> bool:
        """Fire exactly one event (the earliest); False when idle."""
        entry = self._pop_due(None)
        if entry is None:
            return False
        self._fire(*entry)
        return True

    def run(self, until: float | None = None, limit: int | None = None) -> int:
        """Drain events in ``(deadline, seq)`` order; returns events fired.

        *until* bounds the drain to events due at or before that time
        (inclusive); None drains until the queue is empty.  Events posted by
        handlers during the drain participate immediately — a zero-delay
        post from inside a handler fires in this same drain.  *limit* is a
        safety valve against runaway self-posting loops.
        """
        fired = 0
        # Re-entrant run (a handler drained the scheduler itself) would
        # double-fire; the inner call is a no-op and the outer loop picks
        # the new events up naturally.
        if self._draining:
            return 0
        self._draining = True
        try:
            while True:
                if limit is not None and fired >= limit:
                    break
                entry = self._pop_due(until)
                if entry is None:
                    break
                self._fire(*entry)
                fired += 1
        finally:
            self._draining = False
        return fired

    def run_until_idle(self, limit: int | None = None) -> int:
        """Drain everything, advancing the clock as far as events require."""
        return self.run(until=None, limit=limit)

    def advance(self, seconds: float) -> int:
        """Move the clock forward by *seconds* and drain everything now due.

        ``advance(0)`` is meaningful: it drains events due at the current
        instant (the zero-delay guarantee) instead of silently doing
        nothing, which is the scheduler-level fix for the old
        "``VirtualClock.advance(0)`` is accepted but a zero-delay timer
        waits for the next tick" trap.
        """
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        target = self.clock.now + seconds
        fired = self.run(until=target)
        # The drain stops at the last event; cover the remaining gap.  Set
        # the clock rather than advancing by the difference — the float
        # catch-up can overshoot by one ulp, and the contract is landing
        # exactly on the requested instant.
        if self.clock.now < target:
            self.clock.now = target
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventScheduler(now={self.clock.now:.3f}, pending={len(self._live)}, "
            f"fired={self.fired})"
        )
