"""``repro.obs`` — the recorder slots, and the observability submodules.

This package is the one home of the seven recorders a run can switch on.
Each slot below is ``None`` (off, the default) or one recorder object:

* :data:`TRACER` — :class:`repro.obs.trace.FlowTracer`, the flow tracer: a
  ring buffer of span/event records covering hop traversals, fragment
  reassembly, rule matches, classifier state transitions and replay-layer
  ARQ, exported as deterministic JSON lines (``--trace`` / ``--trace-out``).
* :data:`METRICS` — :class:`repro.obs.metrics.MetricsRegistry`: counters,
  gauges and histograms with a sorted snapshot (``--metrics``).
* :data:`BUS` — :class:`repro.obs.live.TelemetryBus`, the telemetry bus:
  lifecycle events (experiment/cell/sample progress, pool dispatch/retry/
  circuit, fault injections, verdicts) logged to a byte-deterministic
  ``events.jsonl`` and optionally streamed to a live progress view.
* :data:`PROFILER` — :class:`repro.obs.profiling.Profiler`: per-stage wall
  and CPU timers surfaced in ``BENCH_*.json`` (``--profile``).
* :data:`COVERAGE` — :class:`repro.obs.coverage.CoverageRecorder`: per-rule
  hit counts against a registered universe, automaton state/edge visits and
  the env × technique matrix (``--coverage``).
* :data:`OPS` — :class:`repro.obs.ops.OpsRegistry`: wall-clock latency
  recorders and counters behind ``liberate serve --ops-port``.
* :data:`FLIGHT` — :class:`repro.obs.flight.FlightRecorder`: sampled
  serving evidence dumped once per anomaly episode.

:data:`EVENTS` is derived from the first three: ``None`` while they are all
empty, else a :class:`repro.obs.events.EventFanOut` whose ``emit(kind,
now, **fields)`` gives each of them its share of one event.  An
instrumented site reads ``obs.EVENTS`` (or another slot) after ``from repro
import obs``: one module-attribute load and one ``is not None`` check, so a
run with every slot empty pays nearly nothing.  :func:`installed` puts
already-built recorders in their slots for a block and restores the
previous ones on exit; :func:`observability_off` empties every slot.  Both
keep :data:`EVENTS` in step, and nothing else assigns a slot.  The worker
pool ships a task's recorders home and merges them by slot name
(:mod:`repro.runtime.pool`).

The analysis tools sit in their own submodules and load only when used:
:mod:`~repro.obs.analyze` (``liberate obs query`` / ``obs report``),
:mod:`~repro.obs.diff` (``obs diff``), :mod:`~repro.obs.history` (``obs
watch``), :mod:`~repro.obs.report_html` (``obs html`` / ``--dashboard``),
:mod:`~repro.obs.provenance` (``obs explain``) and :mod:`~repro.obs.witness`
(``obs witness``).  The package itself imports none of its submodules.

See ``docs/OBSERVABILITY.md`` for the trace schema, metric catalog and the
"Operating liberate live" runbook.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.coverage import CoverageRecorder
    from repro.obs.events import EventFanOut
    from repro.obs.flight import FlightRecorder
    from repro.obs.live import TelemetryBus
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.ops import OpsRegistry
    from repro.obs.profiling import Profiler
    from repro.obs.trace import FlowTracer

#: Every recorder slot, by name.
SLOTS = ("TRACER", "METRICS", "BUS", "PROFILER", "COVERAGE", "OPS", "FLIGHT")

TRACER: FlowTracer | None = None
METRICS: MetricsRegistry | None = None
BUS: TelemetryBus | None = None
PROFILER: Profiler | None = None
COVERAGE: CoverageRecorder | None = None
OPS: OpsRegistry | None = None
FLIGHT: FlightRecorder | None = None

#: The fan-out over ``TRACER``, ``METRICS`` and ``BUS`` (derived; only
#: :func:`installed` and :func:`observability_off` set it).
EVENTS: EventFanOut | None = None


def _refresh_events() -> None:
    global EVENTS
    if TRACER is None and METRICS is None and BUS is None:
        EVENTS = None
    else:
        from repro.obs.events import EventFanOut

        EVENTS = EventFanOut(TRACER, METRICS, BUS)


@contextmanager
def installed(**recorders: object) -> Iterator[None]:
    """Put *recorders* in their slots for the block, by slot name.

    ``with obs.installed(TRACER=FlowTracer(), METRICS=MetricsRegistry()):``
    On exit, normal or not, every named slot gets its previous recorder
    back, and an installed bus's stream is closed.  :data:`EVENTS` follows
    the slots on entry and on exit.
    """
    unknown = sorted(set(recorders).difference(SLOTS))
    if unknown:
        raise TypeError(f"unknown recorder slot(s): {', '.join(unknown)}")
    slots = globals()
    previous = {name: slots[name] for name in recorders}
    slots.update(recorders)
    _refresh_events()
    try:
        yield
    finally:
        slots.update(previous)
        _refresh_events()
        bus = recorders.get("BUS")
        if bus is not None:
            bus.close()


def observability_off() -> None:
    """Empty every slot (test teardown, CLI exit), closing the bus's stream."""
    slots = globals()
    bus = slots["BUS"]
    for name in SLOTS:
        slots[name] = None
    slots["EVENTS"] = None
    if bus is not None:
        bus.close()
