"""Verdict provenance: *why* a flow got the verdict it got.

The trace query engine (:mod:`repro.obs.analyze`) filters and counts; this
module reconstructs causality.  Given an indexed trace and a flow key it
folds the flow's timeline into a **provenance chain** — every verdict the
classifiers reached for that flow, each annotated with the ordered list of
decisions that led to it: flow creation, normalizer drops/scrubs/coalesces,
virtual fragment reassembly, protocol-anchor outcomes, the winning rule
match (with its byte range, automaton identity and scan state), plus the
state-management events that can change a verdict's meaning after the fact
(load sheds, state flushes, RST timeout reductions, endpoint blocks).

The chain is a plain schema-versioned dict — JSON for ``--json``, a
tree-shaped terminal rendering otherwise — built read-only from the same
event dicts every other analysis tool consumes, so it works on live
tracers, golden artifacts and traces merged from pool workers alike.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.analyze import TraceIndex, flow_of

#: Bumped when the chain layout changes shape; stamped into every chain.
PROVENANCE_SCHEMA_VERSION = 1

#: Kinds that *cause* or shape a verdict, in the flow's own timeline.  A
#: verdict-bearing event closes the current chain segment; everything else
#: here is collected as a cause of the next verdict (or reported as
#: "aftermath" when no further verdict follows).
_CAUSE_KINDS = frozenset(
    {
        "mbx.flow_created",
        "mbx.flow_shed",
        "mbx.anchor",
        "mbx.frag_reassembled",
        "norm.drop",
        "norm.scrub",
        "norm.coalesce",
        "frag.hold",
        "frag.reassembled",
        "frag.expired",
        "mbx.rule_match",
        "mbx.flow_flushed",
        "mbx.rst_timeout_reduced",
        "mbx.endpoint_block",
        "mbx.endpoint_block_hit",
        "hop.drop",
        "fault.drop",
    }
)

#: Kinds that conclude a chain segment with a classification outcome.
_VERDICT_KINDS = frozenset({"mbx.verdict", "replay.verdict"})


def _strip(event: Mapping) -> dict:
    """An event reduced to its informative fields (drop Nones and the seq)."""
    return {
        key: value
        for key, value in event.items()
        if value is not None and key not in ("flow",)
    }


def explain_flow(index: TraceIndex, flow: str) -> dict:
    """The provenance chain of *flow* as a JSON-ready dict.

    *flow* accepts the same exact-or-substring addressing as
    :meth:`TraceIndex.timeline` (ambiguity raises ``ValueError``).  Returns
    a dict with the resolved flow key, the verdict segments (each verdict
    with its ordered causes), and any trailing events after the last
    verdict.  A flow with no events yields ``verdicts == []`` and
    ``resolved is None``.
    """
    timeline = index.timeline(flow)
    resolved = flow_of(timeline[0]) if timeline else None
    verdicts: list[dict] = []
    pending: list[dict] = []
    other_kinds: dict[str, int] = {}
    for event in timeline:
        kind = event.get("kind", "?")
        if kind in _VERDICT_KINDS:
            verdicts.append(
                {
                    "verdict": event.get("verdict"),
                    "kind": kind,
                    "element": event.get("element"),
                    "time": event.get("time"),
                    "seq": event.get("seq"),
                    "reason": event.get("reason"),
                    "causes": pending,
                }
            )
            pending = []
        elif kind in _CAUSE_KINDS:
            pending.append(_strip(event))
        else:
            # Transit noise (hop.forward, packet spans, ARQ...) — tallied so
            # the chain accounts for every event without drowning in them.
            other_kinds[kind] = other_kinds.get(kind, 0) + 1
    return {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "flow": flow,
        "resolved": resolved,
        "events": len(timeline),
        "verdicts": verdicts,
        "aftermath": pending,
        "other_kinds": dict(sorted(other_kinds.items())),
    }


def _render_cause(cause: Mapping) -> str:
    detail = " ".join(
        f"{key}={value}"
        for key, value in cause.items()
        if key not in ("kind", "time", "seq")
    )
    time = cause.get("time", "")
    return f"[{time}] {cause.get('kind', '?')}  {detail}".rstrip()


def format_explain(chain: Mapping) -> str:
    """Render a provenance chain as a causal tree for the terminal."""
    resolved = chain.get("resolved")
    if resolved is None:
        return f"flow {chain.get('flow')!r}: no events in trace"
    lines = [f"flow {resolved}  ({chain['events']} events)"]
    for segment in chain["verdicts"]:
        reason = segment.get("reason")
        suffix = f" ({reason})" if reason else ""
        lines.append(
            f"└─ verdict {segment.get('verdict')!r}{suffix} "
            f"via {segment.get('kind')} at {segment.get('element')} "
            f"t={segment.get('time')}"
        )
        causes = segment["causes"]
        for position, cause in enumerate(causes):
            branch = "└─" if position == len(causes) - 1 else "├─"
            lines.append(f"   {branch} {_render_cause(cause)}")
        if not causes:
            lines.append("   └─ (no recorded causes)")
    if not chain["verdicts"]:
        lines.append("└─ (no verdict reached)")
    if chain.get("aftermath"):
        lines.append("aftermath (after the last verdict):")
        for cause in chain["aftermath"]:
            lines.append(f"   • {_render_cause(cause)}")
    if chain.get("other_kinds"):
        noise = ", ".join(
            f"{kind}×{count}" for kind, count in chain["other_kinds"].items()
        )
        lines.append(f"other events: {noise}")
    return "\n".join(lines)
