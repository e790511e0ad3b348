"""The event log shared by the flow tracer and the telemetry bus.

Both recorders keep an ordered log of ``(kind, fields)`` records, route a
worker thread's emissions to a task-local log, ship a task's log home as a
:meth:`EventLog.dump` and fold it back with :meth:`EventLog.merge_dump` in
task-index order, tally records per kind, and export a header line followed
by one canonical JSON line per record.  :class:`EventLog` holds that
plumbing once.  Each subclass keeps its own record shape and ``emit``: the
tracer stamps ``seq`` and virtual ``time`` into a bounded ring, the bus
stamps a logical clock ``lclock`` and notifies subscribers.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import IO


def canonical_json(record: dict) -> str:
    """One canonical JSON line: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class _TaskSlot(threading.local):
    """Per-thread routing slot: the task-local log, or None."""

    task: EventLog | None = None


class EventLog:
    """An ordered log of records with per-thread routing and dump/merge.

    Args:
        capacity: ring size; beyond it the oldest records are dropped and
            counted in ``dropped_events``.  ``None`` keeps every record.

    A subclass sets :attr:`HEADER` and :attr:`SCHEMA`, appends records that
    carry ``kind``, ``fields`` and ``to_json()``, and defines how one record
    ships home (:meth:`_pack`) and is appended again (:meth:`_replay`).
    """

    #: ``kind`` of the export's first line.
    HEADER = "log.header"
    #: Bumped whenever an event kind or field is renamed or removed.
    SCHEMA = 1

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.dropped_events = 0
        self._local = _TaskSlot()

    # ------------------------------------------------------------------
    # per-thread task routing and the worker-pool dump/merge protocol
    # ------------------------------------------------------------------
    def route(self, task: EventLog | None) -> None:
        """Send this thread's emissions to *task* (``None`` routes them back)."""
        self._local.task = task

    def dump(self) -> dict:
        """The packed records and drop count, picklable, for shipping home."""
        return {
            "events": [self._pack(event) for event in self._events],
            "dropped": self.dropped_events,
        }

    def merge_dump(self, dump: dict) -> None:
        """Append a :meth:`dump`'s records in their original order.

        The pool merges dumps in task-index order, reproducing the append
        sequence of a serial run; the dump's own ring losses carry forward
        into ``dropped_events``.
        """
        for packed in dump["events"]:
            self._replay(*packed)
        self.dropped_events += dump["dropped"]

    def _pack(self, event) -> tuple:
        raise NotImplementedError

    def _replay(self, *packed) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def events(self, kind: str | None = None) -> list:
        """A snapshot of the records, optionally filtered by kind prefix."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind or e.kind.startswith(kind + ".")]

    def tally(self) -> dict[str, int]:
        """Record count per kind, sorted."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def header(self) -> dict:
        """The export's first line: kind, schema version and record count."""
        return {"kind": self.HEADER, "schema": self.SCHEMA, "events": len(self._events)}

    def export_jsonl(self, target: str | IO[str]) -> int:
        """Write the header line then one line per record; returns the count.

        The header carries the record count, so a truncated file is
        detectable and a reader knows what it is parsing.
        """
        events = list(self._events)
        lines = [canonical_json(self.header())] + [event.to_json() for event in events]
        payload = "\n".join(lines) + "\n"
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            target.write(payload)
        return len(events)

    @classmethod
    def load_jsonl(cls, path: str) -> list[dict]:
        """Read an export back as record dicts (header line dropped)."""
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        return [record for record in records if record.get("kind") != cls.HEADER]
