"""The operational observability layer: latency recorders, SLO health,
Prometheus exposition, and ops-namespace segregation.

Three properties carry the layer: (1) the log-bucketed LatencyRecorder is
O(1) per record and its percentiles stay inside the observed value
envelope; (2) everything wall-clock lives in its own
registry / the ``ops.`` namespace and never reaches a deterministic
snapshot; (3) the Prometheus rendering is valid text exposition, because a
scrape endpoint that almost parses is worse than none.
"""

import math
import re

import pytest

from repro import obs
from repro.obs import ops as obs_ops
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    log_bucket_bounds,
)
from repro.obs.ops import (
    LatencyRecorder,
    OpsRegistry,
    SLOPolicy,
    evaluate_health,
    render_prometheus,
)

pytestmark = pytest.mark.obs


class TestLogBucketBounds:
    def test_bounds_are_strictly_increasing_and_span_the_range(self):
        bounds = log_bucket_bounds(1e-6, 60.0, per_decade=5)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert bounds[0] == 1e-6
        assert bounds[-1] >= 60.0

    def test_per_decade_controls_resolution(self):
        coarse = log_bucket_bounds(1e-3, 1.0, per_decade=2)
        fine = log_bucket_bounds(1e-3, 1.0, per_decade=10)
        assert len(fine) > 2 * len(coarse)
        # Relative spacing is bounded by the decade growth factor.
        growth = 10 ** (1 / 10)
        for a, b in zip(fine, fine[1:]):
            assert b / a <= growth * 1.05

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_bucket_bounds(0, 1.0)
        with pytest.raises(ValueError):
            log_bucket_bounds(2.0, 1.0)
        with pytest.raises(ValueError):
            log_bucket_bounds(1e-3, 1.0, per_decade=0)

    def test_shared_layout_with_histogram_and_recorder(self):
        histogram = Histogram.log_spaced()
        recorder = LatencyRecorder()
        assert histogram.bounds == recorder.bounds == LATENCY_BUCKETS


class TestLatencyRecorder:
    def test_record_counts_and_envelope(self):
        recorder = LatencyRecorder()
        for value in (0.001, 0.004, 0.02, 0.5):
            recorder.record(value)
        assert recorder.count == 4
        assert recorder.min == 0.001
        assert recorder.max == 0.5
        assert math.isclose(recorder.total, 0.525)

    def test_percentiles_stay_inside_observed_range(self):
        recorder = LatencyRecorder()
        values = [0.0003 * (i + 1) for i in range(200)]
        for value in values:
            recorder.record(value)
        for p in (0, 50, 90, 99, 99.9, 100):
            estimate = recorder.percentile(p)
            assert recorder.min <= estimate <= recorder.max

    def test_percentile_relative_error_is_bucket_bounded(self):
        # All mass at one value: every percentile must come back within
        # one bucket's growth factor of the true value.
        recorder = LatencyRecorder()
        for _ in range(1000):
            recorder.record(0.0123)
        for p in (50, 99):
            assert recorder.percentile(p) == pytest.approx(0.0123, rel=10 ** (1 / 5))

    def test_empty_recorder(self):
        recorder = LatencyRecorder()
        assert recorder.percentile(50) == 0.0
        assert recorder.summary() == {"count": 0}

    def test_overflow_bucket_reports_observed_max(self):
        recorder = LatencyRecorder()
        recorder.record(120.0)  # beyond the 60s top bound
        assert recorder.percentile(99) == 120.0

    def test_summary_reports_milliseconds(self):
        recorder = LatencyRecorder()
        recorder.record(0.25)
        summary = recorder.summary()
        assert summary["count"] == 1
        assert summary["p50_ms"] == summary["p99_ms"] == 250.0
        assert summary["min_ms"] == summary["max_ms"] == 250.0
        assert set(summary) >= {"p50_ms", "p90_ms", "p99_ms", "p999_ms"}

    def test_rejects_bad_percentile_and_layout(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(101)
        with pytest.raises(ValueError):
            LatencyRecorder(bounds=(1.0,))


class TestHistogramPercentileEdges:
    """The satellite: explicit edge cases for Histogram.percentile."""

    def test_empty_histogram_is_zero(self):
        assert Histogram().percentile(50) == 0.0
        assert Histogram.log_spaced().percentile(99) == 0.0

    def test_single_bucket_all_percentiles_agree(self):
        histogram = Histogram(bounds=(10.0, 100.0))
        for _ in range(7):
            histogram.observe(3.0)
        for p in (1, 50, 99, 100):
            assert histogram.percentile(p) == 10.0

    def test_overflow_observations_report_inf(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(50.0)
        assert histogram.percentile(99) == float("inf")

    def test_merged_dump_percentile_equals_single_process(self):
        shards = [MetricsRegistry() for _ in range(3)]
        reference = MetricsRegistry()
        for index, shard in enumerate(shards):
            for i in range(20):
                value = (index * 20 + i) * 1e-4
                shard.observe("ops.latency", value, bounds=LATENCY_BUCKETS)
                reference.observe("ops.latency", value, bounds=LATENCY_BUCKETS)
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge_dump(shard.dump())
        merged_hist = merged.histograms()["ops.latency"]
        reference_hist = reference.histograms()["ops.latency"]
        assert merged_hist.counts == reference_hist.counts
        for p in (50, 90, 99):
            assert merged_hist.percentile(p) == reference_hist.percentile(p)


class TestOpsNamespaceSegregation:
    def test_snapshot_excludes_ops_keys_by_default(self):
        registry = MetricsRegistry()
        registry.inc("mbx.scan_bytes", 10)
        registry.inc("ops.proxy.shed", 3)
        registry.set_gauge("ops.uptime", 12.5)
        registry.observe("ops.latency", 0.1, bounds=LATENCY_BUCKETS)
        deterministic = registry.snapshot()
        assert "mbx.scan_bytes" in deterministic
        assert not any(key.startswith("ops.") for key in deterministic)
        operational = registry.snapshot(include_ops=True)
        assert {"ops.proxy.shed", "ops.uptime", "ops.latency"} <= set(operational)

    def test_ops_registry_is_separate_from_metrics(self):
        registry = obs_ops.OpsRegistry()
        with obs.installed(OPS=registry):
            registry.record("proxy.verdict", 0.005)
            registry.inc("proxy.shed")
            assert obs.METRICS is None  # never auto-enabled
        assert obs.OPS is None  # context restored

    def test_enable_disable_globals(self):
        registry = obs_ops.OpsRegistry()
        with obs.installed(OPS=registry):
            assert obs.OPS is registry
        assert obs.OPS is None

    def test_registry_snapshot_shape(self):
        registry = OpsRegistry()
        registry.record("proxy.verdict", 0.002)
        registry.inc("proxy.step_downs")
        snapshot = registry.snapshot()
        assert snapshot["uptime_seconds"] >= 0
        assert snapshot["latency"]["proxy.verdict"]["count"] == 1
        assert snapshot["counters"] == {"proxy.step_downs": 1}
        assert registry.latency_summaries(prefix="pool.") == {}


_SAMPLE_LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE+.\-]+$")
_TYPE_LINE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$"
)


def _assert_valid_exposition(text: str) -> set[str]:
    """Line-validate Prometheus text format; return the series names."""
    assert text.endswith("\n")
    names = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert _TYPE_LINE.match(line), line
            continue
        assert _SAMPLE_LINE.match(line), line
        names.add(line.split("{")[0].split(" ")[0])
    return names


class TestPrometheusRendering:
    def test_counters_gauges_histograms_render(self):
        registry = MetricsRegistry()
        registry.inc("mbx.scan_bytes", 4096)
        registry.set_gauge("pool.workers", 8)
        registry.observe("mbx.scan.payload_bytes", 700)
        ops = OpsRegistry()
        ops.record("proxy.verdict", 0.004)
        ops.inc("proxy.shed", 2)
        names = _assert_valid_exposition(render_prometheus(registry, ops))
        assert "liberate_mbx_scan_bytes" in names
        assert "liberate_pool_workers" in names
        assert "liberate_mbx_scan_payload_bytes_bucket" in names
        assert "liberate_ops_proxy_verdict_seconds_bucket" in names
        assert "liberate_ops_proxy_shed" in names
        assert "liberate_ops_uptime_seconds" in names

    def test_histogram_buckets_are_cumulative_with_inf(self):
        ops = OpsRegistry()
        for value in (0.001, 0.002, 0.5):
            ops.record("proxy.verdict", value)
        text = render_prometheus(None, ops)
        buckets = [
            line
            for line in text.splitlines()
            if line.startswith("liberate_ops_proxy_verdict_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1].startswith(
            'liberate_ops_proxy_verdict_seconds_bucket{le="+Inf"}'
        )
        assert counts[-1] == 3
        assert "liberate_ops_proxy_verdict_seconds_count 3" in text

    def test_empty_render_is_still_valid(self):
        assert render_prometheus(None, None) == "\n"


class TestHealthEvaluation:
    def _snapshot(self, **overrides):
        base = {
            "flows": 100,
            "shed": 0,
            "broken": 0,
            "active": 10,
            "max_active": 512,
            "ladder": {"rung": 0, "exhausted": False, "active_technique": "t"},
        }
        base.update(overrides)
        return base

    def test_ok_when_nothing_degrades(self):
        report = evaluate_health(self._snapshot(), SLOPolicy())
        assert report["status"] == "ok"
        assert report["reasons"] == []

    def test_any_shedding_degrades_by_default(self):
        report = evaluate_health(self._snapshot(shed=1), SLOPolicy())
        assert report["status"] == "degraded"
        assert any("shedding" in reason for reason in report["reasons"])

    def test_majority_shedding_is_unhealthy(self):
        report = evaluate_health(self._snapshot(shed=60), SLOPolicy())
        assert report["status"] == "unhealthy"

    def test_exhausted_ladder_is_unhealthy(self):
        snapshot = self._snapshot(
            ladder={"rung": 2, "exhausted": True, "active_technique": None}
        )
        report = evaluate_health(snapshot, SLOPolicy())
        assert report["status"] == "unhealthy"

    def test_step_down_and_fullness_degrade(self):
        snapshot = self._snapshot(
            active=500,
            ladder={"rung": 1, "exhausted": False, "active_technique": "u"},
        )
        report = evaluate_health(snapshot, SLOPolicy())
        assert report["status"] == "degraded"
        assert len(report["reasons"]) == 2  # rung + fullness

    def test_p99_slo_breach_degrades(self):
        registry = OpsRegistry()
        for _ in range(32):
            registry.record("proxy.verdict", 0.050)  # 50ms
        slo = SLOPolicy(verdict_p99_ms=10.0)
        report = evaluate_health(self._snapshot(), slo, registry)
        assert report["status"] == "degraded"
        assert report["verdict_p99_ms"] > 10.0
        # Same latencies against a loose SLO: healthy.
        loose = evaluate_health(self._snapshot(), SLOPolicy(verdict_p99_ms=500.0), registry)
        assert loose["status"] == "ok"

    def test_slo_needs_min_samples(self):
        registry = OpsRegistry()
        registry.record("proxy.verdict", 5.0)  # one awful sample
        report = evaluate_health(
            self._snapshot(), SLOPolicy(verdict_p99_ms=1.0, min_samples=16), registry
        )
        assert report["status"] == "ok"
        assert report["verdict_p99_ms"] is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(verdict_p99_ms=0)
        with pytest.raises(ValueError):
            SLOPolicy(max_shed_rate=1.5)
        with pytest.raises(ValueError):
            SLOPolicy(unhealthy_shed_rate=0.0)
