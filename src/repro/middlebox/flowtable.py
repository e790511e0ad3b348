"""Bounded LRU store on one ``OrderedDict``: O(1) insert, get, evict and pop.

The middlebox layer's bounded side tables (the engine's endpoint block
counters, the normalizer's flow table, the proxy's connection map) and
every IP fragment buffer (:class:`~repro.packets.fragment.FragmentBuffer`)
are :class:`FlowTable`\\ s.  The engine's own flow table is a plain ``dict``
whose recency comes from its idle-expiry lanes.

The dict's order is recency: :meth:`FlowTable.get` and a replacing
:meth:`FlowTable.insert` move the entry to the recent end, capacity
eviction takes the oldest end, and :meth:`FlowTable.peek` reads without
moving anything.  So :meth:`FlowTable.items` runs least recently used
first, which for a table read only through ``peek`` is insertion order.

Eviction victims can be biased toward *low-value* entries (e.g. closed
connections) by a ``prefer_victim`` predicate examined over the
:data:`VICTIM_SCAN_LIMIT` oldest entries, so eviction stays O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Callable, Generic, Iterator, TypeVar

from repro import obs

K = TypeVar("K")
V = TypeVar("V")

#: How many entries from the LRU end a ``prefer_victim`` scan examines.
VICTIM_SCAN_LIMIT = 8


class FlowTable(Generic[K, V]):
    """A bounded LRU mapping.

    Args:
        capacity: maximum entry count (None = unbounded, no forced eviction).
        on_evict: called as ``on_evict(key, value)`` for entries the table
            itself removes under capacity pressure, *not* for explicit
            :meth:`pop`.
        prefer_victim: optional predicate marking low-value entries; capacity
            eviction takes the first of the :data:`VICTIM_SCAN_LIMIT` oldest
            entries it marks, else the oldest entry.
        name: metrics label; when set (and metrics are enabled) evictions
            increment ``mbx.flowtable.<name>.evictions`` and update the
            ``mbx.flowtable.<name>.size`` gauge.
    """

    __slots__ = ("capacity", "_on_evict", "prefer_victim", "name", "_entries")

    def __init__(
        self,
        capacity: int | None = None,
        on_evict: Callable[[K, V], None] | None = None,
        prefer_victim: Callable[[V], bool] | None = None,
        name: str | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self.prefer_victim = prefer_victim
        self.name = name
        self._entries: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: K) -> V | None:
        """The value for *key* (None when absent), marked most recently used."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def peek(self, key: K) -> V | None:
        """The value for *key* (None when absent); recency is untouched."""
        return self._entries.get(key)

    def insert(self, key: K, value: V) -> None:
        """Insert (or replace) *key* as most recently used, evicting under pressure."""
        entries = self._entries
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return
        if self.capacity is not None and len(entries) >= self.capacity:
            self.evict()
        entries[key] = value

    def pop(self, key: K, default: V | None = None) -> V | None:
        """Remove *key* and return its value (no eviction callback)."""
        return self._entries.pop(key, default)

    def clear(self) -> None:
        """Drop every entry (no eviction callbacks)."""
        self._entries.clear()

    def items(self) -> Iterator[tuple[K, V]]:
        """(key, value) pairs, least recently used first."""
        return iter(self._entries.items())

    def values(self) -> Iterator[V]:
        """Values, least recently used first."""
        return iter(self._entries.values())

    def evict(self) -> tuple[K, V] | None:
        """Evict one entry (preferring low-value victims near the LRU end)."""
        entries = self._entries
        if not entries:
            return None
        victim = next(iter(entries))
        if self.prefer_victim is not None:
            for key, value in islice(entries.items(), VICTIM_SCAN_LIMIT):
                if self.prefer_victim(value):
                    victim = key
                    break
        value = entries.pop(victim)
        if self.name is not None and obs.METRICS is not None:
            obs.METRICS.inc(f"mbx.flowtable.{self.name}.evictions")
            obs.METRICS.set_gauge(f"mbx.flowtable.{self.name}.size", len(entries))
        if self._on_evict is not None:
            self._on_evict(victim, value)
        return victim, value
