"""Flow tracing: the flight recorder behind ``--trace``.

The paper's contribution is *exposing* classification rules; a final verdict
alone does not explain **which** packet triggered **which** middlebox rule or
**why** an evasion worked.  The :class:`FlowTracer` records the whole causal
chain — hop traversals, fragment reassembly, rule evaluations (rule id,
matched byte range, stream watermark), classifier state transitions, and
replay-layer ARQ — into a bounded ring buffer exportable as JSON lines.

Design constraints, in priority order:

* **Disabled by default, near-zero overhead.**  The
  :data:`repro.obs.TRACER` slot is ``None`` unless a tracer is installed;
  instrumented hot paths guard every event with a single attribute load
  and ``is not None`` check on :data:`repro.obs.EVENTS`, so the fault-free
  fast paths are untouched when tracing is off.
* **Deterministic output.**  Events carry virtual-clock time and a
  monotonically increasing sequence number — never wall-clock, object ids,
  or hash-randomized values — so a trace is byte-identical across two runs
  with the same seed and diffable as an artifact.
* **Bounded memory.**  The recorder is a ring buffer (default one million
  events); a trace of a pathological run drops the oldest events rather
  than exhausting memory.  ``dropped_events`` says how many were lost.

Tracing state is process-local.  A :class:`~repro.runtime.pool.WorkerPool`
task that leaves the driver records into a **task-local** tracer (routed
per thread by :meth:`FlowTracer.route`, or installed in the worker
process's slot), ships it home as a :meth:`FlowTracer.dump`, and the parent
folds the dumps in with :meth:`FlowTracer.merge_dump` in task-index order.
Because a serial run emits each task's events contiguously and in task
order, the merged parallel trace is byte-identical to the serial one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.obs.eventlog import EventLog, canonical_json

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
        return canonical_json(self.as_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.seq}, {self.time}, {self.kind!r}, {self.fields!r})"


class FlowTracer(EventLog):
    """A bounded flight recorder for :class:`TraceEvent` records.

    Args:
        capacity: ring-buffer size; the oldest events are dropped beyond it.
    """

    HEADER = "trace.header"
    SCHEMA = TRACE_SCHEMA_VERSION

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__(capacity)
        self._seq = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(self, kind: str, time: float = -1.0, **fields: object) -> None:
        """Record one event (sites reach it through :data:`repro.obs.EVENTS`)."""
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

    def clear(self) -> None:
        """Forget every recorded event (sequence numbering restarts too)."""
        self._events.clear()
        self._seq = 0
        self.dropped_events = 0

    # ------------------------------------------------------------------
    # the event-log hooks: the header's drop count, and (time, kind,
    # fields) shipped home and re-emitted under this tracer's numbering
    # ------------------------------------------------------------------
    def header(self) -> dict:
        return {**super().header(), "dropped": self.dropped_events}

    def _pack(self, event: TraceEvent) -> tuple:
        return (event.time, event.kind, event.fields)

    def _replay(self, time: float, kind: str, fields: dict) -> None:
        self.emit(kind, time, **fields)


#: Read an exported trace back as a list of event dicts (header dropped).
load_jsonl = FlowTracer.load_jsonl


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
