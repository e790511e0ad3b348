"""Trace query engine tests, run against the committed golden artifacts."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import obs
from repro.obs import trace as obs_trace
from repro.obs.analyze import (
    TraceIndex,
    flow_of,
    format_events,
    format_summary,
    summarize_tracer,
)

pytestmark = pytest.mark.obs

GOLDEN = Path(__file__).parent / "golden"
THROTTLE_RULE = "testbed:video.example.com"


@pytest.fixture(scope="module")
def throttle_index() -> TraceIndex:
    return TraceIndex.load(str(GOLDEN / "testbed_throttle_cell.jsonl"))


@pytest.fixture(scope="module")
def neutral_index() -> TraceIndex:
    return TraceIndex.load(str(GOLDEN / "neutral_cell.jsonl"))


class TestFlowOf:
    def test_explicit_flow_field_wins(self):
        assert flow_of({"flow": "a:1>b:2/6", "src": "x"}) == "a:1>b:2/6"

    def test_built_from_header_fields(self):
        event = {"src": "10.0.0.1", "sport": 1234, "dst": "10.0.0.2", "dport": 80, "proto": 6}
        assert flow_of(event) == "10.0.0.1:1234>10.0.0.2:80/6"

    def test_server_to_client_direction_is_flipped(self):
        event = {
            "src": "10.0.0.2",
            "sport": 80,
            "dst": "10.0.0.1",
            "dport": 1234,
            "proto": 6,
            "dir": "s2c",
        }
        assert flow_of(event) == "10.0.0.1:1234>10.0.0.2:80/6"

    def test_flowless_event_is_none(self):
        assert flow_of({"kind": "env.created"}) is None


class TestTraceIndexQueries:
    def test_kinds_counts_every_event(self, throttle_index):
        kinds = throttle_index.kinds()
        assert sum(kinds.values()) == len(throttle_index.events) == 62
        assert kinds["mbx.rule_match"] == 1

    def test_rules_sees_the_throttle_rule(self, throttle_index, neutral_index):
        assert throttle_index.rules() == [THROTTLE_RULE]
        assert neutral_index.rules() == []

    def test_query_by_kind_prefix(self, throttle_index):
        mbx = throttle_index.query(kind="mbx")
        assert {e["kind"] for e in mbx} == {
            "mbx.flow_created",
            "mbx.anchor",
            "mbx.rule_match",
            "mbx.verdict",
        }

    def test_query_kind_prefix_does_not_match_substrings(self, throttle_index):
        # "mb" is not a dotted prefix of "mbx.*" and must match nothing.
        assert throttle_index.query(kind="mb") == []

    def test_query_by_rule(self, throttle_index):
        events = throttle_index.query(rule=THROTTLE_RULE)
        assert len(events) == 1  # only the match event carries a rule field
        assert events[0]["kind"] == "mbx.rule_match"
        assert events[0]["action"] == "throttle"

    def test_query_limit_truncates(self, throttle_index):
        full = throttle_index.query(kind="hop.traverse")
        assert len(full) == 45
        assert throttle_index.query(kind="hop.traverse", limit=3) == full[:3]

    def test_query_by_flow_substring(self, throttle_index):
        flow = throttle_index.flows()[0]
        assert throttle_index.query(flow=flow, kind="hop.traverse")
        assert throttle_index.query(flow=":80/", kind="hop.traverse")

    def test_timeline_is_in_trace_order(self, throttle_index):
        flow = throttle_index.flows()[0]
        timeline = throttle_index.timeline(flow)
        assert timeline
        seqs = [event["seq"] for event in timeline]
        assert seqs == sorted(seqs)

    def test_timeline_accepts_unambiguous_substring(self, throttle_index):
        full = throttle_index.timeline(throttle_index.flows()[0])
        assert throttle_index.timeline("203.0.113.50") == full

    def test_timeline_unknown_flow_is_empty(self, throttle_index):
        assert throttle_index.timeline("nosuchhost") == []

    def test_timeline_ambiguous_substring_raises(self):
        index = TraceIndex(
            [
                {"kind": "x", "flow": "a:1>c:3/6", "seq": 0},
                {"kind": "x", "flow": "b:2>c:3/6", "seq": 1},
            ]
        )
        with pytest.raises(ValueError, match="ambiguous"):
            index.timeline("c:3")


class TestTraceIndexAggregates:
    def test_rule_stats_counts_matches_and_actions(self, throttle_index):
        stats = throttle_index.rule_stats()
        assert stats[THROTTLE_RULE]["matches"] == 1
        assert stats[THROTTLE_RULE]["actions"] == {"throttle": 1}
        assert stats[THROTTLE_RULE]["elements"] == ["testbed-dpi"]

    def test_verdicts_tally(self, throttle_index, neutral_index):
        assert throttle_index.verdicts() == {THROTTLE_RULE: 1}
        assert neutral_index.verdicts() == {}

    def test_cells_returns_experiment_results(self, throttle_index):
        cells = throttle_index.cells()
        assert len(cells) == 1
        assert cells[0]["env"] == "testbed"
        assert cells[0]["technique"] == "tcp-invalid-data-offset"
        assert cells[0]["cc"] == "N"

    def test_summary_is_json_ready_and_complete(self, throttle_index):
        import json

        summary = throttle_index.summary()
        assert summary["events"] == 62
        assert summary["flows"] == 1
        json.dumps(summary)  # must serialize without a custom encoder

    def test_summarize_tracer_round_trips(self):
        tracer = obs_trace.FlowTracer()
        with obs.installed(TRACER=tracer):
            tracer.emit("mbx.rule_match", rule="r1", action="block", element="dpi")
            tracer.emit("mbx.verdict", verdict="r1", flow="a:1>b:2/6")
        summary = summarize_tracer(tracer)
        assert summary["events"] == 2
        assert summary["rules"]["r1"]["matches"] == 1
        assert summary["verdicts"] == {"r1": 1}

    def test_drop_stats_groups_kind_and_reason(self):
        index = TraceIndex(
            [
                {"kind": "hop.drop", "reason": "rst-injected", "seq": 0},
                {"kind": "hop.drop", "reason": "rst-injected", "seq": 1},
                {"kind": "fault.drop", "reason": "loss", "seq": 2},
                {"kind": "frag.expired", "seq": 3},
            ]
        )
        assert index.drop_stats() == {
            "fault.drop:loss": 1,
            "frag.expired:unspecified": 1,
            "hop.drop:rst-injected": 2,
        }


class TestRendering:
    def test_format_events_mentions_rule_and_kind(self, throttle_index):
        text = format_events(throttle_index.query(kind="mbx.rule_match"))
        assert "mbx.rule_match" in text
        assert THROTTLE_RULE in text

    def test_format_events_empty(self):
        assert "no matching events" in format_events([])

    def test_format_summary_sections(self, throttle_index):
        text = format_summary(throttle_index.summary())
        assert "rule hits:" in text
        assert "experiment cells:" in text
        assert THROTTLE_RULE in text
