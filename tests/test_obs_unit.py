"""Unit tests for the ``repro.obs`` package itself (recorder slots, tracer, metrics, profiler)."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import observability_off
from repro.obs import profiling as obs_profiling
from repro.obs import trace as obs_trace
from repro.obs.coverage import CoverageRecorder
from repro.obs.flight import FlightRecorder
from repro.obs.live import TelemetryBus
from repro.obs.ops import OpsRegistry
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

pytestmark = pytest.mark.obs


class TestFlowTracer:
    def test_emit_records_seq_time_kind_fields(self):
        tracer = obs_trace.FlowTracer()
        tracer.emit("hop.traverse", 1.25, element="r1")
        tracer.emit("hop.drop", 2.5, element="r1", reason="ttl")
        events = tracer.events()
        assert [e.seq for e in events] == [0, 1]
        assert events[0].as_dict() == {
            "seq": 0,
            "time": 1.25,
            "kind": "hop.traverse",
            "element": "r1",
        }

    def test_ring_buffer_drops_oldest(self):
        tracer = obs_trace.FlowTracer(capacity=3)
        for i in range(5):
            tracer.emit("k", float(i))
        assert len(tracer) == 3
        assert tracer.dropped_events == 2
        assert [e.time for e in tracer.events()] == [2.0, 3.0, 4.0]

    def test_events_filters_by_kind_prefix(self):
        tracer = obs_trace.FlowTracer()
        tracer.emit("mbx.rule_match")
        tracer.emit("mbx.verdict")
        tracer.emit("mbx")
        tracer.emit("mbxother")
        assert len(tracer.events("mbx")) == 3
        assert len(tracer.events("mbx.rule_match")) == 1

    def test_tally_counts_per_kind(self):
        tracer = obs_trace.FlowTracer()
        for _ in range(3):
            tracer.emit("a")
        tracer.emit("b")
        assert tracer.tally() == {"a": 3, "b": 1}

    def test_span_pairs_enter_and_exit(self):
        tracer = obs_trace.FlowTracer()
        with tracer.span("detect", 1.0, env="testbed"):
            tracer.emit("inner")
        kinds = [e.kind for e in tracer.events()]
        assert kinds == ["span.enter", "inner", "span.exit"]

    def test_clear_restarts_numbering(self):
        tracer = obs_trace.FlowTracer()
        tracer.emit("a")
        tracer.clear()
        tracer.emit("b")
        assert tracer.events()[0].seq == 0

    def test_export_and_load_roundtrip(self, tmp_path):
        tracer = obs_trace.FlowTracer()
        tracer.emit("hop.traverse", 0.5, element="r1", ident=7)
        path = str(tmp_path / "t.jsonl")
        assert tracer.export_jsonl(path) == 1
        first = json.loads(open(path).readline())
        assert first == {
            "kind": "trace.header",
            "schema": obs_trace.TRACE_SCHEMA_VERSION,
            "events": 1,
            "dropped": 0,
        }
        records = obs_trace.load_jsonl(path)
        assert records == [
            {"seq": 0, "time": 0.5, "kind": "hop.traverse", "element": "r1", "ident": 7}
        ]

    def test_export_is_canonical_json(self):
        tracer = obs_trace.FlowTracer()
        tracer.emit("k", 1.0, zebra=1, alpha=2)
        buffer = io.StringIO()
        tracer.export_jsonl(buffer)
        line = buffer.getvalue().splitlines()[1]
        assert line == '{"alpha":2,"kind":"k","seq":0,"time":1.0,"zebra":1}'

    def test_structural_view_projects_stable_fields(self):
        events = [
            {"kind": "mbx.rule_match", "rule": "r", "time": 3.5, "sport": 40_001},
            {"kind": "hop.drop", "reason": "ttl", "element": "r1", "verdict": None},
        ]
        assert obs_trace.structural_view(events) == [
            {"kind": "mbx.rule_match", "rule": "r"},
            {"kind": "hop.drop", "element": "r1", "reason": "ttl"},
        ]

    def test_packet_fields_are_deterministic_identity(self):
        segment = TCPSegment(
            sport=40_001, dport=80, seq=1, ack=1, flags=TCPFlags.ACK, payload=b"abc"
        )
        packet = IPPacket(
            src="10.1.0.2", dst="203.0.113.50", transport=segment, identification=9
        )
        fields = obs_trace.packet_fields(packet)
        assert fields["src"] == "10.1.0.2"
        assert fields["sport"] == 40_001
        assert fields["ident"] == 9
        assert fields["plen"] == 3
        assert obs_trace.packet_fields(packet) == fields


class TestRingBufferWraparound:
    def test_export_header_counts_wrapped_drops(self, tmp_path):
        tracer = obs_trace.FlowTracer(capacity=3)
        for i in range(7):
            tracer.emit("k", float(i))
        path = str(tmp_path / "wrapped.jsonl")
        assert tracer.export_jsonl(path) == 3
        header = json.loads(open(path).readline())
        assert header["events"] == 3
        assert header["dropped"] == 4

    def test_wrapped_events_keep_original_seq(self, tmp_path):
        tracer = obs_trace.FlowTracer(capacity=3)
        for i in range(5):
            tracer.emit("k", float(i))
        path = str(tmp_path / "wrapped.jsonl")
        tracer.export_jsonl(path)
        records = obs_trace.load_jsonl(path)
        # The survivors are the newest three, still carrying their global
        # sequence numbers — the gap tells the reader exactly what was lost.
        assert [r["seq"] for r in records] == [2, 3, 4]

    def test_exact_capacity_drops_nothing(self):
        tracer = obs_trace.FlowTracer(capacity=4)
        for i in range(4):
            tracer.emit("k", float(i))
        assert len(tracer) == 4
        assert tracer.dropped_events == 0

    def test_single_slot_ring_keeps_only_newest(self):
        tracer = obs_trace.FlowTracer(capacity=1)
        for i in range(3):
            tracer.emit("k", float(i))
        events = tracer.events()
        assert len(events) == 1
        assert events[0].time == 2.0
        assert tracer.dropped_events == 2

    def test_clear_resets_drop_accounting(self):
        tracer = obs_trace.FlowTracer(capacity=2)
        for i in range(5):
            tracer.emit("k", float(i))
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped_events == 0
        tracer.emit("fresh")
        assert tracer.events()[0].seq == 0


class TestHistogramEdgeCases:
    def test_empty_histogram_snapshot(self):
        histogram = obs_metrics.Histogram()
        snap = histogram.as_dict()
        assert snap["count"] == 0
        assert snap["sum"] == 0.0
        assert set(snap["buckets"].values()) == {0}

    def test_empty_histogram_percentile_is_zero(self):
        assert obs_metrics.Histogram().percentile(50) == 0.0
        assert obs_metrics.Histogram().percentile(99.9) == 0.0

    def test_single_sample_every_percentile_hits_its_bucket(self):
        histogram = obs_metrics.Histogram()
        histogram.observe(3)  # lands in the <=5 bucket
        for p in (0, 1, 50, 99, 100):
            assert histogram.percentile(p) == 5.0

    def test_bucket_boundary_value_lands_in_its_own_bucket(self):
        histogram = obs_metrics.Histogram()
        histogram.observe(5)  # exactly on a bound: bisect_left -> that bucket
        assert histogram.as_dict()["buckets"]["5"] == 1
        assert histogram.as_dict()["buckets"]["2"] == 0
        assert histogram.percentile(100) == 5.0

    def test_percentile_walks_the_distribution(self):
        histogram = obs_metrics.Histogram()
        for value in (1, 1, 1, 1, 1, 1, 1, 1, 1, 250):
            histogram.observe(value)
        assert histogram.percentile(50) == 1.0
        assert histogram.percentile(90) == 1.0
        assert histogram.percentile(91) == 250.0

    def test_overflow_observation_reports_inf(self):
        histogram = obs_metrics.Histogram()
        histogram.observe(10_001)  # beyond the last default bound
        assert histogram.percentile(100) == float("inf")
        assert histogram.as_dict()["buckets"]["inf"] == 1

    def test_percentile_out_of_range_raises(self):
        histogram = obs_metrics.Histogram()
        with pytest.raises(ValueError):
            histogram.percentile(-1)
        with pytest.raises(ValueError):
            histogram.percentile(100.1)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = obs_metrics.MetricsRegistry()
        registry.inc("pkts")
        registry.inc("pkts", 4)
        registry.set_gauge("depth", 2)
        registry.set_gauge("depth", 7)
        registry.observe("lat", 3)
        registry.observe("lat", 9_999_999)
        assert registry.counter("pkts") == 5
        assert registry.counter("never") == 0
        snap = registry.snapshot()
        assert snap["depth"] == 7
        assert snap["lat"]["count"] == 2
        assert snap["lat"]["buckets"]["inf"] == 2

    def test_snapshot_is_sorted(self):
        registry = obs_metrics.MetricsRegistry()
        registry.inc("z")
        registry.inc("a")
        assert list(registry.snapshot()) == ["a", "z"]

    def test_render_and_reset(self):
        registry = obs_metrics.MetricsRegistry()
        assert registry.render() == "(no metrics recorded)"
        registry.inc("pkts", 2)
        registry.observe("lat", 1)
        rendered = registry.render()
        assert "pkts" in rendered and "count=1" in rendered
        registry.reset()
        assert registry.snapshot() == {}


class TestProfiler:
    def test_stage_accumulates(self):
        profiler = obs_profiling.Profiler()
        for _ in range(3):
            with profiler.stage("phase"):
                pass
        snap = profiler.snapshot()
        assert snap["phase"]["calls"] == 3
        assert snap["phase"]["wall_seconds"] >= 0
        assert "phase" in profiler.render()

    def test_module_stage_is_noop_when_disabled(self):
        assert obs.PROFILER is None
        with obs_profiling.stage("anything"):
            pass  # must not raise, must not record anywhere

    def test_module_stage_records_on_installed_profiler(self):
        profiler = obs_profiling.Profiler()
        with obs.installed(PROFILER=profiler):
            with obs_profiling.stage("s"):
                pass
        assert profiler.snapshot()["s"]["calls"] == 1


def _streaming_bus() -> TelemetryBus:
    bus = TelemetryBus()
    bus.enable_streaming()
    return bus


#: A recorder factory for every slot of the home's table; a slot added
#: without one fails the test below.
RECORDER_FACTORIES = {
    "TRACER": obs_trace.FlowTracer,
    "METRICS": obs_metrics.MetricsRegistry,
    "BUS": _streaming_bus,
    "PROFILER": obs_profiling.Profiler,
    "COVERAGE": CoverageRecorder,
    "OPS": OpsRegistry,
    "FLIGHT": FlightRecorder,
}


@pytest.mark.parametrize("slot", obs.SLOTS)
def test_slot_installer_restores_and_off_empties_every_slot(slot):
    make = RECORDER_FACTORIES[slot]
    outer, inner = make(), make()
    assert getattr(obs, slot) is None
    with obs.installed(**{slot: outer}):
        assert getattr(obs, slot) is outer
        with pytest.raises(RuntimeError), obs.installed(**{slot: inner}):
            assert getattr(obs, slot) is inner
            raise RuntimeError("the body fails")
        assert getattr(obs, slot) is outer
    assert getattr(obs, slot) is None
    assert getattr(inner, "stream", None) is None  # an installed bus is closed

    live = make()
    setattr(obs, slot, live)
    observability_off()
    assert {name: getattr(obs, name) for name in obs.SLOTS} == dict.fromkeys(obs.SLOTS)
    assert getattr(live, "stream", None) is None  # a streaming bus is closed


def test_installer_rejects_unknown_slot():
    with pytest.raises(TypeError, match="TRACE"):
        with obs.installed(TRACE=obs_trace.FlowTracer()):
            pass
