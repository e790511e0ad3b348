"""Flow tracing: the flight recorder behind ``--trace``.

The paper's contribution is *exposing* classification rules; a final verdict
alone does not explain **which** packet triggered **which** middlebox rule or
**why** an evasion worked.  The :class:`FlowTracer` records the whole causal
chain — hop traversals, fragment reassembly, rule evaluations (rule id,
matched byte range, stream watermark), classifier state transitions, and
replay-layer ARQ — into a bounded ring buffer exportable as JSON lines.

Design constraints, in priority order:

* **Disabled by default, near-zero overhead.**  The module-level
  :data:`TRACER` is ``None`` unless tracing was explicitly enabled;
  instrumented hot paths guard every emission with a single attribute load
  and ``is not None`` check, so the fault-free fast paths are untouched
  when tracing is off.
* **Deterministic output.**  Events carry virtual-clock time and a
  monotonically increasing sequence number — never wall-clock, object ids,
  or hash-randomized values — so a trace is byte-identical across two runs
  with the same seed and diffable as an artifact.
* **Bounded memory.**  The recorder is a ring buffer (default one million
  events); a trace of a pathological run drops the oldest events rather
  than exhausting memory.  ``dropped_events`` says how many were lost.

Tracing state is process-local.  A :class:`~repro.runtime.pool.WorkerPool`
task that leaves the driver records into a **task-local** tracer (routed per
thread by :meth:`FlowTracer.route`, or installed as the worker process's
:data:`TRACER`), ships it home as a :meth:`FlowTracer.dump`, and the parent
folds the dumps in with :meth:`FlowTracer.merge_dump` in task-index order.
Because a serial run emits each task's events contiguously and in task
order, the merged parallel trace is byte-identical to the serial one.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from typing import IO, Iterable, Iterator

#: Bumped whenever an event kind or field is renamed or removed (additions
#: are backward-compatible and do not bump it).  Exported traces carry it so
#: old golden artifacts are never compared against a new schema silently.
TRACE_SCHEMA_VERSION = 1

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 1_000_000

#: Fields that identify an event structurally — the stable skeleton golden
#: tests compare.  Everything else (time, seq, ports, sizes) is allowed to
#: drift across refactors without invalidating a golden trace.
STRUCTURAL_FIELDS = ("kind", "element", "rule", "verdict", "reason", "action")


class TraceEvent:
    """One flight-recorder record.

    Attributes:
        seq: monotonically increasing per-tracer sequence number.
        time: virtual-clock seconds (deterministic; -1.0 when no clock is in
            scope, e.g. worker-pool scheduling events).
        kind: dotted event kind ("hop.traverse", "mbx.rule_match", ...).
        fields: flat JSON-serializable payload.
    """

    __slots__ = ("seq", "time", "kind", "fields")

    def __init__(self, seq: int, time: float, kind: str, fields: dict) -> None:
        self.seq = seq
        self.time = time
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> dict:
        """The event as a plain JSON-ready dict (seq/time/kind first)."""
        record = {"seq": self.seq, "time": round(self.time, 6), "kind": self.kind}
        record.update(self.fields)
        return record

    def to_json(self) -> str:
        """One canonical JSON line (sorted keys, no whitespace)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.seq}, {self.time}, {self.kind!r}, {self.fields!r})"


class FlowTracer:
    """A bounded flight recorder for :class:`TraceEvent` records.

    Args:
        capacity: ring-buffer size; the oldest events are dropped beyond it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped_events = 0
        self._local = _TaskSlot()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(self, kind: str, time: float = -1.0, **fields: object) -> None:
        """Record one event (called only behind an ``is not None`` guard)."""
        # Explicit None check: an empty task tracer is falsy (__len__ == 0).
        task = self._local.task
        if task is not None:
            task.emit(kind, time, **fields)
            return
        if len(self._events) == self.capacity:
            self.dropped_events += 1
        self._events.append(TraceEvent(self._seq, time, kind, fields))
        self._seq += 1

    @contextmanager
    def span(self, name: str, time: float = -1.0, **fields: object) -> Iterator[None]:
        """A paired enter/exit event around a pipeline phase or driver stage."""
        self.emit("span.enter", time, span=name, **fields)
        try:
            yield
        finally:
            self.emit("span.exit", time, span=name)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """A snapshot of recorded events, optionally filtered by kind prefix."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind or e.kind.startswith(kind + ".")]

    def tally(self) -> dict[str, int]:
        """Event count per kind (sorted) — what the property tests check
        metrics counters against."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        """Forget every recorded event (sequence numbering restarts too)."""
        self._events.clear()
        self._seq = 0
        self.dropped_events = 0

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_jsonl(self, target: str | IO[str]) -> int:
        """Write the trace as JSON lines; returns the number of events.

        The first line is a header record (``kind="trace.header"``) carrying
        the schema version and event count, so a truncated file is
        detectable and a reader knows what it is parsing.
        """
        events = list(self._events)
        header = json.dumps(
            {
                "kind": "trace.header",
                "schema": TRACE_SCHEMA_VERSION,
                "events": len(events),
                "dropped": self.dropped_events,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        lines = [header] + [event.to_json() for event in events]
        payload = "\n".join(lines) + "\n"
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            target.write(payload)
        return len(events)

    # ------------------------------------------------------------------
    # per-thread task routing and the worker-pool dump/merge protocol
    # ------------------------------------------------------------------
    def route(self, task: FlowTracer | None) -> None:
        """Send this thread's emissions to *task* (``None`` routes them back)."""
        self._local.task = task

    def dump(self) -> dict:
        """The recorded events and drop count, picklable, for shipping home."""
        return {
            "events": [(e.time, e.kind, e.fields) for e in self._events],
            "dropped": self.dropped_events,
        }

    def merge_dump(self, dump: dict) -> None:
        """Re-emit a :meth:`dump` into this tracer, renumbered.

        Events append in their original order under this tracer's own
        sequence numbers, exactly as if they had been emitted here; the
        dump's own ring-buffer losses carry forward into ``dropped_events``.
        """
        for time, kind, fields in dump["events"]:
            self.emit(kind, time, **fields)
        self.dropped_events += dump["dropped"]


class _TaskSlot(threading.local):
    """Per-thread routing slot: the task-local tracer, or None."""

    task: FlowTracer | None = None


def load_jsonl(path: str) -> list[dict]:
    """Read an exported trace back as a list of event dicts (header dropped)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "trace.header":
                continue
            records.append(record)
    return records


def structural_view(events: Iterable[TraceEvent | dict]) -> list[dict]:
    """Project events onto their stable structural skeleton.

    Golden-trace tests compare this projection — event kinds, rule ids,
    verdicts, drop reasons — not timestamps, ports or byte counts, so a
    golden artifact survives performance work and field additions.
    """
    view = []
    for event in events:
        record = event if isinstance(event, dict) else event.as_dict()
        projected = {
            key: record[key]
            for key in STRUCTURAL_FIELDS
            if key in record and record[key] is not None
        }
        view.append(projected)
    return view


# ----------------------------------------------------------------------
# the module-level recorder (None = tracing disabled, the default)
# ----------------------------------------------------------------------
TRACER: FlowTracer | None = None


def enable_tracing(capacity: int = DEFAULT_CAPACITY) -> FlowTracer:
    """Install a fresh process-wide tracer and return it."""
    global TRACER
    TRACER = FlowTracer(capacity=capacity)
    return TRACER


def disable_tracing() -> None:
    """Remove the process-wide tracer (instrumented sites go back to no-ops)."""
    global TRACER
    TRACER = None


@contextmanager
def tracing(capacity: int = DEFAULT_CAPACITY) -> Iterator[FlowTracer]:
    """Scoped tracing: enable on entry, restore the previous state on exit."""
    global TRACER
    previous = TRACER
    tracer = FlowTracer(capacity=capacity)
    TRACER = tracer
    try:
        yield tracer
    finally:
        TRACER = previous


def packet_fields(packet) -> dict:
    """The deterministic identity of a packet, for event payloads.

    Uses only explicitly-set header fields (addresses, ports, IP ident,
    protocol, TTL, payload length) — never ``id()`` or ``hash()`` — so the
    same run always describes the same packet the same way.
    """
    transport = packet.transport
    fields = {
        "src": packet.src,
        "dst": packet.dst,
        "proto": packet.effective_protocol,
        "ident": packet.identification,
        "ttl": packet.ttl,
    }
    sport = getattr(transport, "sport", None)
    if sport is not None:
        fields["sport"] = sport
        fields["dport"] = getattr(transport, "dport", None)
    payload = packet.app_payload
    fields["plen"] = len(payload) if payload else 0
    if packet.is_fragment:
        fields["frag"] = True
    return fields
