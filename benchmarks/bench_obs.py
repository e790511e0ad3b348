"""Observability overhead — the same Table 3 slice traced and untraced.

Runs a single-environment Table 3 column three times: once with every
observability facility disabled (the shipping default), once with the
flow tracer, metrics registry and profiler all enabled, and once with the
rule/automaton coverage profiler on its own.  ``BENCH_obs.json`` records
the wall-clock timings, the traced event volume, the per-stage profile and
the coverage-overhead ratio so the cost of instrumentation is a tracked
number instead of folklore.
"""

from repro import obs
from repro.experiments.table3 import run_table3
from repro.obs.coverage import CoverageRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler
from repro.obs.trace import FlowTracer

from benchmarks.conftest import BenchProbe, save_bench_json

_KWARGS = {
    "env_names": ("testbed",),
    "characterize": False,
    "include_os_matrix": False,
}


def test_obs_overhead_datapoint(benchmark, results_dir):
    """One tracing-enabled Table 3 datapoint next to its untraced twin."""
    obs.observability_off()
    with BenchProbe() as probe_off:
        benchmark.pedantic(run_table3, kwargs=_KWARGS, rounds=1, iterations=1)

    recorder = CoverageRecorder()
    with obs.installed(COVERAGE=recorder):
        with BenchProbe() as probe_cov:
            run_table3(**_KWARGS)
        coverage_hits = recorder.snapshot()["total_rule_hits"]

    tracer, metrics, profiler = FlowTracer(), MetricsRegistry(), Profiler()
    with obs.installed(TRACER=tracer, METRICS=metrics, PROFILER=profiler):
        with BenchProbe() as probe_on:
            run_table3(**_KWARGS)
    events = len(tracer)
    rule_matches = metrics.counter("mbx.rule_matches")
    save_bench_json(
        results_dir,
        "obs",
        probe_on,
        traced_events=events,
        dropped_events=tracer.dropped_events,
        rule_matches=rule_matches,
        untraced_seconds=round(probe_off.seconds, 4),
        overhead_ratio=round(probe_on.seconds / probe_off.seconds, 3)
        if probe_off.seconds > 0
        else None,
        coverage_seconds=round(probe_cov.seconds, 4),
        coverage_overhead_ratio=round(
            probe_cov.seconds / probe_off.seconds, 3
        )
        if probe_off.seconds > 0
        else None,
        coverage_rule_hits=coverage_hits,
    )
    assert profiler.stages, "profiling stages should have fired"

    assert events > 0, "a traced table3 run must emit events"
    assert tracer.dropped_events == 0
    assert rule_matches > 0
    assert coverage_hits > 0, "a covered table3 run must record rule hits"
