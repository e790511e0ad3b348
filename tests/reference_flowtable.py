"""Reference for tests/test_flowtable.py: the slab/LRU ``FlowTable``.

This is the bounded table the middlebox layer used before it was rebuilt
on one ``OrderedDict`` (src/repro/middlebox/flowtable.py), kept verbatim
apart from this docstring so the differential can hold the rebuilt table
to it.  It is a slab allocator threaded by an intrusive doubly-linked LRU
list:

* **slab slots** — entries live in preallocated parallel arrays (key, value,
  LRU links).  Slots are recycled through a free list; the arrays grow
  geometrically up to ``capacity`` and never shrink.
* **intrusive LRU** — ``get`` splices the entry to the MRU end and eviction
  unlinks the LRU end, all by integer index surgery.
* **iteration** — :meth:`items` runs in key-insertion order (a replacing
  ``insert`` moves the key to the back), independent of recency.

Eviction victims can be biased toward *low-value* entries by a
``prefer_victim`` predicate examined over at most ``victim_scan_limit``
entries from the LRU end.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

from repro import obs

K = TypeVar("K")
V = TypeVar("V")

#: Slots preallocated at construction (and the geometric growth floor).
_INITIAL_SLOTS = 64

#: Default cap on the LRU walk when a ``prefer_victim`` predicate is set.
DEFAULT_VICTIM_SCAN_LIMIT = 8

_NIL = -1  # null link in the intrusive list


class FlowTable(Generic[K, V]):
    """A bounded LRU mapping with slab storage and O(1) operations.

    Args:
        capacity: maximum entry count (None = unbounded; the slab still
            recycles slots, there is just no forced eviction).
        on_evict: called as ``on_evict(key, value)`` for entries the table
            itself removes under capacity pressure, *not* for explicit
            :meth:`pop`.
        prefer_victim: optional predicate marking low-value entries; capacity
            eviction scans up to ``victim_scan_limit`` entries from the LRU
            end for one before falling back to the strict LRU victim.
        victim_scan_limit: bound on that scan (keeps eviction O(1)).
        name: metrics label; when set (and metrics are enabled) evictions
            increment ``mbx.flowtable.<name>.evictions`` and update the
            ``mbx.flowtable.<name>.size`` gauge.
    """

    __slots__ = (
        "capacity",
        "_on_evict",
        "prefer_victim",
        "victim_scan_limit",
        "name",
        "_index",
        "_key",
        "_value",
        "_prev",
        "_next",
        "_free",
        "_head",
        "_tail",
    )

    def __init__(
        self,
        capacity: int | None = None,
        on_evict: Callable[[K, V], None] | None = None,
        prefer_victim: Callable[[V], bool] | None = None,
        victim_scan_limit: int = DEFAULT_VICTIM_SCAN_LIMIT,
        name: str | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self.prefer_victim = prefer_victim
        self.victim_scan_limit = victim_scan_limit
        self.name = name
        self._index: dict[K, int] = {}
        size = _INITIAL_SLOTS if capacity is None else min(capacity, _INITIAL_SLOTS)
        self._key: list[K | None] = [None] * size
        self._value: list[V | None] = [None] * size
        self._prev: list[int] = [_NIL] * size
        self._next: list[int] = [_NIL] * size
        self._free: list[int] = list(range(size - 1, -1, -1))
        self._head = _NIL  # MRU end
        self._tail = _NIL  # LRU end

    # ------------------------------------------------------------------
    # slab plumbing
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = len(self._key)
        new = max(_INITIAL_SLOTS, old * 2)
        if self.capacity is not None:
            new = min(new, self.capacity)
        extra = new - old
        self._key.extend([None] * extra)
        self._value.extend([None] * extra)
        self._prev.extend([_NIL] * extra)
        self._next.extend([_NIL] * extra)
        self._free.extend(range(new - 1, old - 1, -1))

    def _link_front(self, slot: int) -> None:
        self._prev[slot] = _NIL
        self._next[slot] = self._head
        if self._head != _NIL:
            self._prev[self._head] = slot
        self._head = slot
        if self._tail == _NIL:
            self._tail = slot

    def _unlink(self, slot: int) -> None:
        prev, nxt = self._prev[slot], self._next[slot]
        if prev != _NIL:
            self._next[prev] = nxt
        else:
            self._head = nxt
        if nxt != _NIL:
            self._prev[nxt] = prev
        else:
            self._tail = prev
        self._prev[slot] = self._next[slot] = _NIL

    def _touch_slot(self, slot: int) -> None:
        if self._head == slot:
            return
        self._unlink(slot)
        self._link_front(slot)

    def _release(self, slot: int) -> V:
        """Unlink *slot*, recycle it, and return its value."""
        self._unlink(slot)
        key = self._key[slot]
        value = self._value[slot]
        del self._index[key]  # type: ignore[arg-type]
        self._key[slot] = None
        self._value[slot] = None
        self._free.append(slot)
        return value  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # mapping API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: K, touch: bool = True) -> V | None:
        """The value for *key* (None when absent); touches LRU by default."""
        slot = self._index.get(key)
        if slot is None:
            return None
        if touch:
            self._touch_slot(slot)
        return self._value[slot]

    def peek(self, key: K) -> V | None:
        """Read without disturbing LRU order (readout paths)."""
        return self.get(key, touch=False)

    def insert(self, key: K, value: V) -> None:
        """Insert (or replace) *key*, evicting under pressure.

        A replaced key keeps its slot but moves to the back of iteration
        order and to the MRU end, mirroring ``dict.pop`` + re-insert.
        """
        slot = self._index.get(key)
        if slot is not None:
            self._value[slot] = value
            del self._index[key]
            self._index[key] = slot
            self._touch_slot(slot)
            return
        if self.capacity is not None and len(self._index) >= self.capacity:
            self.evict()
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._key[slot] = key
        self._value[slot] = value
        self._index[key] = slot
        self._link_front(slot)

    def pop(self, key: K, default: V | None = None) -> V | None:
        """Remove *key* and return its value (no eviction callback)."""
        slot = self._index.get(key)
        if slot is None:
            return default
        return self._release(slot)

    def clear(self) -> None:
        """Drop every entry (no eviction callbacks); slab stays allocated."""
        for slot in list(self._index.values()):
            self._key[slot] = None
            self._value[slot] = None
            self._prev[slot] = self._next[slot] = _NIL
            self._free.append(slot)
        self._index.clear()
        self._head = self._tail = _NIL

    def items(self) -> Iterator[tuple[K, V]]:
        """(key, value) pairs in insertion order."""
        for key, slot in self._index.items():
            yield key, self._value[slot]  # type: ignore[misc]

    def values(self) -> Iterator[V]:
        for slot in self._index.values():
            yield self._value[slot]  # type: ignore[misc]

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _pick_victim(self) -> int:
        slot = self._tail
        if self.prefer_victim is None or slot == _NIL:
            return slot
        cursor, scanned = slot, 0
        while cursor != _NIL and scanned < self.victim_scan_limit:
            if self.prefer_victim(self._value[cursor]):  # type: ignore[arg-type]
                return cursor
            cursor = self._prev[cursor]
            scanned += 1
        return slot

    def evict(self) -> tuple[K, V] | None:
        """Evict one entry (preferring low-value victims near the LRU end)."""
        slot = self._pick_victim()
        if slot == _NIL:
            return None
        key = self._key[slot]
        value = self._release(slot)
        if self.name is not None and obs.METRICS is not None:
            obs.METRICS.inc(f"mbx.flowtable.{self.name}.evictions")
            obs.METRICS.set_gauge(f"mbx.flowtable.{self.name}.size", len(self._index))
        if self._on_evict is not None:
            self._on_evict(key, value)  # type: ignore[arg-type]
        return key, value  # type: ignore[return-value]
