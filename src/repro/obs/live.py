"""The live telemetry bus: structured lifecycle events, streamed and logged.

The paper's workflow is interactive — an operator watches detection and
characterization converge against a live middlebox and reads off which
evasion technique won.  Traces and metrics (PRs 3–4) only answer questions
*after* a run finishes; the telemetry bus closes that gap with structured
**lifecycle events** (experiment/cell/trial start+finish, pool task
dispatch/retry/circuit activity, fault injections, replay verdicts) that are

* **streamed live** to the parent process over a multiprocessing queue while
  worker-pool tasks are still running, feeding the terminal progress view
  (:class:`LiveProgressView`, ``--live``), and
* **logged deterministically** to an append-only ``events.jsonl``
  (``--events-out``): event timestamps come from a **logical clock** (the
  event's position in the merged log), never wall-clock, so two runs of the
  same seeded experiment produce byte-identical event logs.

Both renderings come from one recorder.  Like the tracer and the metrics
registry, the bus is **off by default**: the :data:`repro.obs.BUS` slot is
``None`` and every instrumented site guards :data:`repro.obs.EVENTS` with a
single ``is not None`` check, so the PR 1 fast paths are untouched when
telemetry is disabled.

Process safety follows the flow tracer's (:mod:`repro.obs.trace`): a
worker-pool task records into a task-local bus (routed per thread on the
thread backend, the worker's slot on the process backend), the pool
ships its :meth:`TelemetryBus.dump` back with the result, and the parent
folds the dumps into its log with :meth:`TelemetryBus.merge_dump` in
**task-index order** — the order a serial run would have appended them in.
The multiprocessing stream queue is display-only; dropping a streamed event
can blur the progress view but can never corrupt the log.
"""

from __future__ import annotations

import threading
from typing import IO, Callable

from repro.obs.eventlog import EventLog, canonical_json

#: Bumped whenever an event kind or field is renamed or removed (additions
#: are backward-compatible and do not bump it).
EVENTS_SCHEMA_VERSION = 1

#: Sentinel kind terminating the stream-drainer thread.
_STREAM_STOP = "__telemetry.stream.stop__"


class LiveEvent:
    """One telemetry record.

    Attributes:
        lclock: logical-clock timestamp — the event's position in the merged
            log.  Deterministic by construction (no wall-clock anywhere).
        kind: dotted event kind ("exp.start", "table3.cell", "pool.retry").
        fields: flat JSON-serializable payload.
    """

    __slots__ = ("lclock", "kind", "fields")

    def __init__(self, lclock: int, kind: str, fields: dict) -> None:
        self.lclock = lclock
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> dict:
        record = {"lclock": self.lclock, "kind": self.kind}
        record.update(self.fields)
        return record

    def to_json(self) -> str:
        """One canonical JSON line (sorted keys, no whitespace)."""
        return canonical_json(self.as_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LiveEvent({self.lclock}, {self.kind!r}, {self.fields!r})"


class TelemetryBus(EventLog):
    """An append-only telemetry log plus live fan-out to subscribers.

    Emissions from the driver process append directly (and notify
    subscribers immediately); emissions inside a worker-pool task land in a
    task-local bus (:meth:`route`) and are appended later by
    :meth:`merge_dump`, in task-index order, when the pool merges the
    shipped dumps — so the log is identical whatever backend ran the map.
    Subscribers are re-notified of merged events only when no stream queue
    is attached (streamed events already reached them live).
    """

    HEADER = "events.header"
    SCHEMA = EVENTS_SCHEMA_VERSION

    def __init__(self) -> None:
        super().__init__()
        self._lclock = 0
        self._subscribers: list[Callable[[str, dict], None]] = []
        self._stream = None  # display-only multiprocessing queue, if any
        self._drainer: threading.Thread | None = None
        self._manager = None

    # ------------------------------------------------------------------
    # recording (sites reach it through ``repro.obs.EVENTS``)
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: object) -> None:
        """Record one event: routed to the task bus inside a pool task."""
        task = self._local.task
        if task is not None:
            task.emit(kind, **fields)
            return
        self._append(kind, fields, notify=True)

    def _append(self, kind: str, fields: dict, notify: bool) -> None:
        self._events.append(LiveEvent(self._lclock, kind, fields))
        self._lclock += 1
        if notify:
            self._notify(kind, fields)

    def _notify(self, kind: str, fields: dict) -> None:
        for subscriber in self._subscribers:
            subscriber(kind, fields)

    def _pack(self, event: LiveEvent) -> tuple:
        return (event.kind, event.fields)

    def _replay(self, kind: str, fields: dict) -> None:
        self._append(kind, dict(fields), notify=self._stream is None)

    # ------------------------------------------------------------------
    # live fan-out
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Callable[[str, dict], None]) -> None:
        """Register *subscriber* to receive ``(kind, fields)`` as events land."""
        self._subscribers.append(subscriber)

    def enable_streaming(self):
        """Create the display-only multiprocessing queue and its drainer.

        Returns the queue (a picklable manager proxy, so worker-pool tasks
        on any backend can push to it).  Idempotent.
        """
        if self._stream is not None:
            return self._stream
        import multiprocessing

        self._manager = multiprocessing.Manager()
        self._stream = self._manager.Queue()
        self._drainer = threading.Thread(
            target=self._drain, name="telemetry-stream-drainer", daemon=True
        )
        self._drainer.start()
        return self._stream

    @property
    def stream(self):
        """The streaming queue, or None when streaming is off."""
        return self._stream

    def _drain(self) -> None:
        while True:
            try:
                kind, fields = self._stream.get()
            except (EOFError, OSError):  # pragma: no cover - manager shut down
                return
            if kind == _STREAM_STOP:
                return
            self._notify(kind, fields)

    def close(self) -> None:
        """Stop the stream drainer and shut the manager down (idempotent)."""
        if self._stream is not None:
            try:
                self._stream.put((_STREAM_STOP, {}))
            except Exception:  # pragma: no cover - manager already gone
                pass
            if self._drainer is not None:
                self._drainer.join(timeout=5.0)
            self._drainer = None
            self._stream = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None


#: Read an exported event log back as dicts (header line dropped).
load_events_jsonl = TelemetryBus.load_jsonl


def task_bus(stream=None) -> TelemetryBus:
    """A fresh bus recording one worker-pool task.

    *stream* is the parent's optional display-only multiprocessing queue;
    each event is additionally pushed there so the parent's progress view
    updates while the task is still running.
    """
    bus = TelemetryBus()
    if stream is not None:

        def push(kind: str, fields: dict) -> None:
            try:
                stream.put((kind, fields))
            except Exception:  # pragma: no cover - display-only, best-effort
                pass

        bus.subscribe(push)
    return bus


# ----------------------------------------------------------------------
# the live terminal progress view (--live)
# ----------------------------------------------------------------------
class LiveProgressView:
    """Renders bus events as a filling cell matrix with an ETA.

    Subscribes to a :class:`TelemetryBus` and keeps a tiny model of the run:
    the experiment's dimensions (from ``exp.start``), which cells have
    completed (``table3.cell`` / ``figure4.sample``), and pool activity
    (dispatch/done/retry).  ETA extrapolates from the mean wall-clock gap
    between completed cells — wall time stays in the view, never in the log.

    Args:
        stream: where to draw (e.g. ``sys.stderr``); ``None`` renders only
            on demand via :meth:`render` (how the tests drive it).
        clock: monotonic time source, injectable for tests.
    """

    def __init__(self, stream: IO[str] | None = None, clock=None) -> None:
        import time

        self.stream = stream
        self.clock = clock or time.monotonic
        self.experiment: str | None = None
        self.envs: list[str] = []
        self.techniques: list[str] = []
        self.total_cells = 0
        self.cells: dict[tuple[str, str], dict] = {}
        self.samples = 0
        self.tasks_dispatched = 0
        self.tasks_done = 0
        self.retries = 0
        self._started_at: float | None = None
        self._finish_times: list[float] = []
        self._lock = threading.Lock()
        self._lines_drawn = 0

    def attach(self, bus: TelemetryBus) -> "LiveProgressView":
        bus.subscribe(self.on_event)
        return self

    # ------------------------------------------------------------------
    # event model
    # ------------------------------------------------------------------
    def on_event(self, kind: str, fields: dict) -> None:
        with self._lock:
            self._apply(kind, fields)
        if self.stream is not None:
            self.draw()

    def _apply(self, kind: str, fields: dict) -> None:
        if kind == "exp.start":
            self.experiment = str(fields.get("experiment", "?"))
            self.envs = list(fields.get("envs") or [])
            self.techniques = list(fields.get("techniques") or [])
            self.total_cells = int(fields.get("cells") or 0)
            self._started_at = self.clock()
        elif kind == "table3.cell":
            key = (str(fields.get("env")), str(fields.get("technique")))
            self.cells[key] = dict(fields)
            self._finish_times.append(self.clock())
        elif kind == "figure4.sample":
            self.samples += 1
            self._finish_times.append(self.clock())
        elif kind == "pool.dispatch":
            self.tasks_dispatched += 1
        elif kind == "pool.task_done":
            self.tasks_done += 1
        elif kind == "pool.retry":
            self.retries += 1

    def completed(self) -> int:
        return len(self.cells) + self.samples

    def eta_seconds(self) -> float | None:
        """Remaining-cell estimate from the mean completed-cell spacing."""
        done = self.completed()
        if self._started_at is None or not self.total_cells or done == 0:
            return None
        remaining = self.total_cells - done
        if remaining <= 0:
            return 0.0
        elapsed = (self._finish_times[-1] if self._finish_times else self.clock()) - self._started_at
        return elapsed / done * remaining

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The current progress picture as text (matrix + counters + ETA)."""
        with self._lock:
            return self._render_locked()

    def _render_locked(self) -> str:
        done = self.completed()
        title = self.experiment or "experiment"
        header = f"{title}: {done}/{self.total_cells or '?'} cells"
        if self.tasks_dispatched:
            header += f"  pool {self.tasks_done}/{self.tasks_dispatched}"
        if self.retries:
            header += f"  retries {self.retries}"
        eta = self.eta_seconds()
        if eta is not None:
            header += f"  ETA {eta:.0f}s" if eta > 0 else "  done"
        lines = [header]
        if self.envs and self.techniques:
            width = max((len(t) for t in self.techniques), default=8)
            lines.append(" " * (width + 1) + " ".join(f"{e[:7]:>7s}" for e in self.envs))
            for technique in self.techniques:
                marks = []
                for env in self.envs:
                    cell = self.cells.get((env, technique))
                    if cell is None:
                        marks.append(f"{'·':>7s}")
                    else:
                        cc, rs = cell.get("cc", "?"), cell.get("rs", "?")
                        marks.append(f"{cc + '/' + rs:>7s}")
                lines.append(f"{technique:<{width}s} " + " ".join(marks))
        return "\n".join(lines)

    def draw(self) -> None:
        """Redraw in place on the attached stream (ANSI cursor-up rewind)."""
        if self.stream is None:
            return
        with self._lock:
            text = self._render_locked()
            if self._lines_drawn:
                self.stream.write(f"\x1b[{self._lines_drawn}F\x1b[J")
            self.stream.write(text + "\n")
            self._lines_drawn = text.count("\n") + 1
            try:
                self.stream.flush()
            except Exception:  # pragma: no cover - stream closed mid-run
                pass

    def finish(self) -> None:
        """Final draw; leaves the completed matrix on screen."""
        if self.stream is not None:
            self.draw()
