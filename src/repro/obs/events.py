"""One entry point for events: the catalog, and the fan-out to the sinks.

A fact such as "the engine flushed a flow" reaches up to three recorders:
the flow tracer (``TRACER``), the metrics registry (``METRICS``) and the
telemetry bus (``BUS``).  A site records it once, passing the union of the
fields every sink needs::

    events = obs.EVENTS
    if events is not None:
        events.emit("mbx.flow_flushed", now, element=..., reason=..., ...)

:data:`CATALOG` says, per event kind, which of those fields the trace gets,
which the bus gets, and which counters the kind bumps.  :class:`EventFanOut`
is what :data:`repro.obs.EVENTS` holds while at least one of the three
slots is filled; :func:`repro.obs.installed` rebuilds it whenever one of
them changes, so a site never reads a stale sink.

Facts that only a counter records (bytes scanned, per-hop forwards,
automaton builds, wire-cache hits) are counted directly on ``METRICS``;
the wall-clock ``OPS`` and ``FLIGHT`` recorders and ``COVERAGE`` keep their
own calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.live import TelemetryBus
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import FlowTracer

#: A projection that passes every field the site gave (packet identity
#: fields, or a driver's experiment-specific parameters, vary per event).
ALL = "*"


class Only(NamedTuple):
    """A counter bumped only when ``fields[field] == value``."""

    field: str
    value: object
    name: str


class Kind(NamedTuple):
    """What each sink receives of one event kind.

    ``trace`` and ``bus`` are the field names that sink gets, in order,
    :data:`ALL`, or ``None`` when the kind never reaches it.  ``counters``
    are metric names formatted over the event's fields
    (``"mbx.flows_flushed.{reason}"``) or :class:`Only` entries, each
    bumped by one.
    """

    trace: tuple[str, ...] | str | None
    bus: tuple[str, ...] | str | None
    counters: tuple[str | Only, ...]


def _kind(trace: str | None, bus: str | None = None, *counters: str | Only) -> Kind:
    """A catalog entry from space-separated field names."""
    trace_fields, bus_fields = (
        names if names in (None, ALL) else tuple(names.split()) for names in (trace, bus)
    )
    return Kind(trace_fields, bus_fields, counters)


#: Every event kind, by the module that emits it.
CATALOG: dict[str, Kind] = {
    # envs.base
    "env.created": _kind("env elements signal faulty", None, "env.created", "env.created.{env}"),
    "env.install_faults": _kind("env seed"),
    # netsim.path: the frame loop counts forwards and deliveries itself
    "hop.traverse": _kind(ALL),
    "endpoint.deliver": _kind(ALL),
    # netsim.hop
    "hop.drop": _kind(ALL, None, "netsim.packets.dropped", "netsim.packets.dropped.{reason}"),
    "hop.icmp_time_exceeded": _kind(ALL),
    # netsim.reassembler
    "frag.hold": _kind(ALL),
    "frag.reassembled": _kind(ALL, None, "netsim.frags.reassembled"),
    "frag.expired": _kind("element reason fragments src dst ident", None, "netsim.frags.expired"),
    # netsim.faults: the trace gets the packet's identity, the bus only the cause
    "fault.drop": _kind(
        ALL, "element reason",
        "faults.drop", "netsim.packets.dropped", "netsim.packets.dropped.fault-{reason}",
    ),
    "fault.corrupt": _kind(ALL, "element reason", "faults.corrupt", "netsim.packets.corrupted"),
    "fault.duplicate": _kind(ALL, "element reason", "faults.duplicate"),
    "fault.reorder": _kind(ALL, "element reason", "faults.reorder"),
    "fault.restart": _kind("element targets", None, "faults.restarts"),
    # middlebox.engine
    "mbx.frag_reassembled": _kind("element src dst ident fragments"),
    "mbx.flow_created": _kind("element flow proto_name", None, "mbx.flows_created"),
    "mbx.overload": _kind(None, "element phase fullness shed", "mbx.shed.overload_{phase}"),
    "mbx.flow_shed": _kind("element flow fullness", None, "mbx.shed.flows"),
    "mbx.flow_flushed": _kind(
        "element reason flow verdict", None, "mbx.flows_flushed", "mbx.flows_flushed.{reason}"
    ),
    "mbx.rst_timeout_reduced": _kind("element flow timeout"),
    "mbx.anchor": _kind("element flow ok"),
    "mbx.rule_match": _kind(
        "element rule action flow dir packet_index match_start match_end watermark buffer_len"
        " automaton scan_node rule_scope",
        None,
        "mbx.rule_matches",
    ),
    "mbx.verdict": _kind(
        "element flow verdict reason",
        None,
        Only("verdict", "unclassified-final", "mbx.verdicts.unclassified_final"),
    ),
    "mbx.endpoint_block": _kind("element endpoint until", None, "mbx.endpoint_blocks"),
    "mbx.endpoint_block_hit": _kind("element endpoint flow", None, "mbx.endpoint_block_hits"),
    # middlebox.normalizer
    "norm.drop": _kind("element reason src dst"),
    "norm.scrub": _kind("element src dst ttl_raised options_stripped"),
    "norm.coalesce": _kind("element src dst sport dport in_bytes out_bytes out_segments"),
    # replay.session
    "replay.start": _kind("env trace_name technique proto_name sport dport", None, "replay.runs"),
    "replay.arq.start": _kind("env stage sport"),
    "replay.arq.done": _kind("env stage sport packets_seen", None, "replay.arq.{stage}"),
    "replay.arq.udp_round": _kind(
        "env attempt missing_payloads missing_responses", None, "replay.arq.udp_rounds"
    ),
    "replay.verdict": _kind(
        "env trace_name technique verdict differentiated delivered_ok server_response_ok"
        " blocked rst_count",
        "env technique verdict differentiated",
        Only("differentiated", True, "replay.differentiated"),
        Only("differentiated", False, "replay.undifferentiated"),
    ),
    # core.pipeline
    "pipeline.phase": _kind("env trace_name phase_name", "env phase_name"),
    # experiment drivers (table3, figure4, efficiency, core.distributed)
    "exp.start": _kind(None, ALL),
    "exp.finish": _kind(None, ALL),
    "cell.start": _kind(None, "env phase"),
    "cell.finish": _kind(None, "env cells"),
    "table3.cell": _kind("env technique cc rs", "env technique category cc rs", "table3.cells"),
    "figure4.sample": _kind("hour trial min_delay", "hour trial min_delay", "figure4.samples"),
    # runtime.pool (no clock: trace time is -1)
    "pool.dispatch": _kind(None, "task"),
    "pool.task_done": _kind(None, "task ok"),
    "pool.retry": _kind(
        "task attempt error backend", "task attempt error backend", "pool.retries"
    ),
    "pool.task_failed": _kind("task backend", "task backend", "pool.task_failures"),
    "pool.circuit_open": _kind("task backend", "task backend", "pool.circuit_open"),
    "pool.serial_fallback": _kind(None, "task error_type"),
    # core.proxy_server
    "proxy.serve": _kind(None, "host port technique env"),
    "proxy.flow": _kind(None, ALL, "proxy.flows.{verdict}"),
    "proxy.step_down": _kind(
        None, "flow from_technique to_technique exhausted", "proxy.step_downs"
    ),
    "proxy.overload": _kind(None, "edge active"),
}


def _project(projection: tuple[str, ...] | str, fields: dict) -> dict:
    if projection is ALL:
        return fields
    return {name: fields[name] for name in projection}  # type: ignore[union-attr]


class EventFanOut(NamedTuple):
    """The installed trace, metric and bus sinks, behind one :meth:`emit`.

    Built by :mod:`repro.obs` from its slots; at least one sink is set.
    """

    tracer: FlowTracer | None
    metrics: MetricsRegistry | None
    bus: TelemetryBus | None

    def emit(self, kind: str, now: float = -1.0, **fields: object) -> None:
        """Record one *kind* event: each sink gets its share of *fields*.

        *now* is the virtual-clock time the trace stamps (-1.0 where no
        clock is in scope).  A field a projection or counter names but the
        site did not pass raises ``KeyError``.
        """
        trace, bus, counters = CATALOG[kind]
        if trace is not None and self.tracer is not None:
            self.tracer.emit(kind, now, **_project(trace, fields))
        if counters and self.metrics is not None:
            for counter in counters:
                if isinstance(counter, str):
                    self.metrics.inc(counter.format_map(fields))
                elif fields[counter.field] == counter.value:
                    self.metrics.inc(counter.name)
        if bus is not None and self.bus is not None:
            self.bus.emit(kind, **_project(bus, fields))

    def reaches(self, kind: str) -> bool:
        """Whether an installed sink records *kind*: a hot loop that would
        build fields for every packet asks once, before the loop."""
        trace, bus, counters = CATALOG[kind]
        return (
            (trace is not None and self.tracer is not None)
            or (bool(counters) and self.metrics is not None)
            or (bus is not None and self.bus is not None)
        )
