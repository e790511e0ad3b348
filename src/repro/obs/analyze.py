"""Trace query engine: turn exported flow traces into answers.

The flight recorder (:mod:`repro.obs.trace`) captures *everything*; this
module answers the paper's actual questions from the data — which flow
triggered which rule, where packets were dropped and why, what verdict each
replay ended with.  A :class:`TraceIndex` loads an exported JSONL trace once
and indexes it three ways (event kind, flow, rule id), then serves:

* **queries** — filter by kind prefix / flow / rule / element
  (``liberate obs query``);
* **timelines** — every event a single flow touched, in causal order;
* **aggregates** — rule-hit, drop-reason, verdict and ARQ statistics
  rolled into one JSON-ready summary (``liberate obs report``, and
  ``LiberateReport.trace_summary`` when a pipeline runs traced).

Everything here is read-only over plain event dicts (the output of
:func:`repro.obs.trace.load_jsonl`), so it works equally on a live
tracer's events, a golden artifact, or a trace merged from pool workers.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.trace import FlowTracer, load_jsonl

#: Event kinds that represent classifier / replay decisions — the events a
#: differential diagnosis (obs/diff.py) aligns on.
DECISION_KINDS = (
    "mbx.anchor",
    "mbx.rule_match",
    "mbx.verdict",
    "replay.verdict",
    "table3.cell",
    "figure4.sample",
)

#: Drop-shaped event kinds, grouped for the drop-reason aggregate.
DROP_KINDS = ("hop.drop", "fault.drop", "frag.expired")


def flow_of(event: Mapping) -> str | None:
    """The canonical flow key of an event, or None for flow-less events.

    Middlebox events carry an explicit ``flow`` field
    (``"client:sport>server:dport/proto"``); packet-level events are keyed
    from their header fields, flipped for server-to-client packets so both
    directions of a connection share one key.
    """
    flow = event.get("flow")
    if flow is not None:
        return flow
    src, sport = event.get("src"), event.get("sport")
    dst, dport = event.get("dst"), event.get("dport")
    if src is None or sport is None or dst is None or dport is None:
        return None
    proto = event.get("proto", "?")
    if event.get("dir") == "s2c":
        src, sport, dst, dport = dst, dport, src, sport
    return f"{src}:{sport}>{dst}:{dport}/{proto}"


class TraceIndex:
    """An exported trace, loaded once and queryable by kind / flow / rule.

    Args:
        events: header-free event dicts in trace order (what
            :func:`repro.obs.trace.load_jsonl` returns).
    """

    def __init__(self, events: list[dict]) -> None:
        self.events = events
        self._by_kind: dict[str, list[int]] = {}
        self._by_flow: dict[str, list[int]] = {}
        self._by_rule: dict[str, list[int]] = {}
        for position, event in enumerate(events):
            self._by_kind.setdefault(event.get("kind", "?"), []).append(position)
            flow = flow_of(event)
            if flow is not None:
                self._by_flow.setdefault(flow, []).append(position)
            rule = event.get("rule")
            if rule is not None:
                self._by_rule.setdefault(rule, []).append(position)

    @classmethod
    def load(cls, path: str) -> "TraceIndex":
        """Index an exported JSONL trace file (header line ignored)."""
        return cls(load_jsonl(path))

    @classmethod
    def from_tracer(cls, tracer: FlowTracer) -> "TraceIndex":
        """Index a live tracer's current ring-buffer contents."""
        return cls([event.as_dict() for event in tracer.events()])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def kinds(self) -> dict[str, int]:
        """Event count per kind, sorted by kind."""
        return {kind: len(idx) for kind, idx in sorted(self._by_kind.items())}

    def flows(self) -> list[str]:
        """Every flow key seen, in first-appearance order."""
        return list(self._by_flow)

    def rules(self) -> list[str]:
        """Every rule id seen, in first-appearance order."""
        return list(self._by_rule)

    def query(
        self,
        kind: str | None = None,
        flow: str | None = None,
        rule: str | None = None,
        element: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Events matching every given filter, in trace order.

        *kind* matches exactly or as a dotted prefix (``"mbx"`` selects all
        middlebox events); *flow*/*rule*/*element* match exactly, *flow*
        also as a substring so a bare port or address narrows the search.
        """
        results = []
        for event in self.events:
            if kind is not None:
                event_kind = event.get("kind", "")
                if not (event_kind == kind or event_kind.startswith(kind + ".")):
                    continue
            if flow is not None:
                event_flow = flow_of(event)
                if event_flow is None or (event_flow != flow and flow not in event_flow):
                    continue
            if rule is not None and event.get("rule") != rule:
                continue
            if element is not None and event.get("element") != element:
                continue
            results.append(event)
            if limit is not None and len(results) >= limit:
                break
        return results

    def timeline(self, flow: str) -> list[dict]:
        """Every event of one flow, in causal (trace) order.

        *flow* may be the exact key or any substring of it (a port, an
        address); an ambiguous substring raises ``ValueError`` naming the
        candidates.
        """
        if flow in self._by_flow:
            key = flow
        else:
            matches = [known for known in self._by_flow if flow in known]
            if not matches:
                return []
            if len(matches) > 1:
                raise ValueError(f"flow {flow!r} is ambiguous: {sorted(matches)}")
            key = matches[0]
        return [self.events[position] for position in self._by_flow[key]]

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def rule_stats(self) -> dict[str, dict]:
        """Per-rule hit statistics: match count, actions taken, elements."""
        stats: dict[str, dict] = {}
        for rule, positions in sorted(self._by_rule.items()):
            matches = [
                self.events[p] for p in positions if self.events[p].get("kind") == "mbx.rule_match"
            ]
            actions: dict[str, int] = {}
            elements: set[str] = set()
            for event in matches:
                action = event.get("action")
                if action is not None:
                    actions[action] = actions.get(action, 0) + 1
                element = event.get("element")
                if element is not None:
                    elements.add(element)
            stats[rule] = {
                "matches": len(matches),
                "events": len(positions),
                "actions": dict(sorted(actions.items())),
                "elements": sorted(elements),
            }
        return stats

    def drop_stats(self) -> dict[str, int]:
        """Packet losses per ``kind:reason`` (router drops, faults, frag TTL)."""
        drops: dict[str, int] = {}
        for kind in DROP_KINDS:
            for position in self._by_kind.get(kind, ()):
                reason = self.events[position].get("reason", "unspecified")
                key = f"{kind}:{reason}"
                drops[key] = drops.get(key, 0) + 1
        return dict(sorted(drops.items()))

    def verdicts(self) -> dict[str, int]:
        """Classifier verdict tally (``mbx.verdict`` events)."""
        tally: dict[str, int] = {}
        for position in self._by_kind.get("mbx.verdict", ()):
            verdict = str(self.events[position].get("verdict"))
            tally[verdict] = tally.get(verdict, 0) + 1
        return dict(sorted(tally.items()))

    def arq_stats(self) -> dict[str, int]:
        """Replay-layer retransmission activity per ARQ event kind."""
        return {
            kind: len(positions)
            for kind, positions in sorted(self._by_kind.items())
            if kind.startswith("replay.arq")
        }

    def cells(self) -> list[dict]:
        """Experiment driver results recorded in the trace (table3/figure4)."""
        positions = list(self._by_kind.get("table3.cell", ())) + list(
            self._by_kind.get("figure4.sample", ())
        )
        return [self.events[p] for p in sorted(positions)]

    def summary(self) -> dict:
        """Everything aggregated into one JSON-ready dict (``obs report``)."""
        return {
            "events": len(self.events),
            "flows": len(self._by_flow),
            "kinds": self.kinds(),
            "rules": self.rule_stats(),
            "drops": self.drop_stats(),
            "verdicts": self.verdicts(),
            "arq": self.arq_stats(),
            "cells": self.cells(),
        }


def summarize_tracer(tracer: FlowTracer) -> dict:
    """One-call summary of a live tracer (``LiberateReport.trace_summary``)."""
    return TraceIndex.from_tracer(tracer).summary()


# ----------------------------------------------------------------------
# terminal rendering (the CLI's table output)
# ----------------------------------------------------------------------
def format_events(events: Iterable[dict]) -> str:
    """Render events as a fixed-width terminal table."""
    lines = [f"{'seq':>7s} {'time':>10s} {'kind':26s} {'where':22s} detail"]
    for event in events:
        detail = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "time", "kind", "element", "flow") and value is not None
        }
        where = event.get("element") or flow_of(event) or ""
        time = event.get("time", -1.0)
        lines.append(
            f"{event.get('seq', '?'):>7} {time:>10} {event.get('kind', '?'):26s} "
            f"{str(where)[:22]:22s} "
            + " ".join(f"{key}={value}" for key, value in detail.items())
        )
    if len(lines) == 1:
        lines.append("(no matching events)")
    return "\n".join(lines)


def format_summary(summary: Mapping) -> str:
    """Render a :meth:`TraceIndex.summary` dict as a terminal report."""
    lines = [
        f"events: {summary['events']}   flows: {summary['flows']}",
        "",
        "event kinds:",
    ]
    for kind, count in summary["kinds"].items():
        lines.append(f"  {kind:32s} {count:>8d}")
    if summary["rules"]:
        lines.append("")
        lines.append("rule hits:")
        for rule, stats in summary["rules"].items():
            actions = ",".join(f"{a}x{n}" for a, n in stats["actions"].items()) or "-"
            lines.append(
                f"  {rule:32s} matches={stats['matches']} actions={actions} "
                f"at={','.join(stats['elements']) or '-'}"
            )
    if summary["drops"]:
        lines.append("")
        lines.append("drops:")
        for reason, count in summary["drops"].items():
            lines.append(f"  {reason:40s} {count:>6d}")
    if summary["verdicts"]:
        lines.append("")
        lines.append("verdicts:")
        for verdict, count in summary["verdicts"].items():
            lines.append(f"  {verdict:40s} {count:>6d}")
    if summary["arq"]:
        lines.append("")
        lines.append("replay ARQ:")
        for kind, count in summary["arq"].items():
            lines.append(f"  {kind:40s} {count:>6d}")
    if summary["cells"]:
        lines.append("")
        lines.append("experiment cells:")
        for cell in summary["cells"]:
            detail = {
                key: value
                for key, value in cell.items()
                if key not in ("seq", "time", "kind")
            }
            lines.append(
                f"  {cell['kind']:16s} "
                + " ".join(f"{key}={value}" for key, value in detail.items())
            )
    return "\n".join(lines)
