"""Overhead guard: observability must cost ~nothing while disabled.

The wall-clock budget in the issue ("tracing-disabled table3 within 5% of
the PR 1 baseline") cannot be asserted against a *recorded* baseline —
wall time is machine-dependent and this suite runs on many machines.  The
guard here is machine-independent: it measures the actual cost of the
disabled-site guard pattern (`TRACER is not None`) on *this* machine,
multiplies by a generous overestimate of how many instrumented sites a
table3 slice executes, and requires that total to stay under 5% of the
slice's measured runtime.  `benchmarks/bench_obs.py` records the
companion wall-clock datapoints in ``BENCH_obs.json``.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core.evasion import ALL_TECHNIQUES
from repro.experiments.table3 import run_table3
from repro.obs import coverage as obs_coverage
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.obs import ops as obs_ops
from repro.obs import trace as obs_trace

pytestmark = pytest.mark.obs

_KWARGS = dict(
    env_names=("testbed",),
    techniques=ALL_TECHNIQUES[:8],
    include_os_matrix=False,
    characterize=False,
)


def test_observability_disabled_by_default():
    assert {slot: getattr(obs, slot) for slot in obs.SLOTS} == dict.fromkeys(obs.SLOTS)


def test_coverage_does_not_change_results():
    """A coverage-profiled run reports the same cells as a plain run.

    Coverage swaps the automaton's bulk regex scan for the counted
    byte-walk; the differential suite pins their equivalence, and this
    pins the end-to-end consequence: identical Table 3 cells.
    """

    def cells(rows):
        return [
            (row.technique, name, cell.cc, cell.rs)
            for row in rows
            for name, cell in sorted(row.cells.items())
        ]

    plain = cells(run_table3(**_KWARGS))
    with obs.installed(COVERAGE=obs_coverage.CoverageRecorder()):
        covered = cells(run_table3(**_KWARGS))
    assert covered == plain


def test_bus_guard_is_single_none_check():
    """The telemetry bus follows the same disabled-site pattern as the rest."""
    checks = 100_000
    t0 = time.perf_counter()
    for _ in range(checks):
        if obs.BUS is not None:  # pragma: no cover - never taken
            raise AssertionError
    per_check = (time.perf_counter() - t0) / checks
    # One attribute load + identity check: far below a microsecond each.
    assert per_check < 1e-6


def test_tracing_does_not_change_results():
    """A traced run must report the exact same Table 3 cells as an untraced one."""

    def cells(rows):
        return [
            (row.technique, name, cell.cc, cell.rs)
            for row in rows
            for name, cell in sorted(row.cells.items())
        ]

    plain = cells(run_table3(**_KWARGS))
    with obs.installed(TRACER=obs_trace.FlowTracer(), METRICS=obs_metrics.MetricsRegistry()):
        traced = cells(run_table3(**_KWARGS))
    assert traced == plain


@pytest.mark.slow
def test_disabled_instrumentation_under_5_percent():
    run_table3(**_KWARGS)  # warm imports and caches
    t0 = time.perf_counter()
    run_table3(**_KWARGS)
    disabled_seconds = time.perf_counter() - t0

    # How many instrumented sites does the slice execute?  A traced run
    # counts one event per trace site; double it (metrics sites pair with
    # trace sites), add another for the telemetry-bus guards, and double
    # again as margin for guard-only branches.
    tracer = obs_trace.FlowTracer()
    with obs.installed(TRACER=tracer):
        run_table3(**_KWARGS)
    site_executions = 6 * len(tracer)

    # Cost of one disabled-site guard (attribute load + None check),
    # measured with its loop overhead included — an overestimate.
    checks = 200_000
    t0 = time.perf_counter()
    for _ in range(checks):
        if obs.TRACER is not None:  # pragma: no cover - never taken
            raise AssertionError
    per_check = (time.perf_counter() - t0) / checks

    overhead = per_check * site_executions
    assert overhead < 0.05 * disabled_seconds, (
        f"disabled-instrumentation estimate {overhead * 1000:.2f}ms exceeds 5% of "
        f"the {disabled_seconds * 1000:.1f}ms slice runtime"
    )


def test_serving_always_on_path_within_budget():
    """The always-on serving config (flight recorder + ops registry live,
    both *idle*: no anomaly, below the sampling stride) must fit the same
    <5% budget as the disabled guards.

    Measured the same machine-independent way: per-operation cost of the
    real hot-path operations — a flight ``note()`` that is sampled *out*
    (the 15-in-16 case) and an ops ``record()`` — times a generous
    overestimate of how many of each a live flow executes, compared
    against the (sub-)millisecond end-to-end verdict latency a loopback
    flow actually costs (``BENCH_serve.json`` pins it above 1ms; 1ms is
    the conservative floor used here).
    """
    flight = obs_flight.FlightRecorder("/tmp", sample_every=16)
    registry = obs_ops.OpsRegistry()
    flight.note("warm")  # consume the always-sampled first offer

    reps = 50_000
    t0 = time.perf_counter()
    for _ in range(reps):
        flight.note("proxy.flow", flow=1, verdict="evaded")
    per_note = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        registry.record("proxy.verdict", 0.001)
    per_record = (time.perf_counter() - t0) / reps

    # A served flow executes ~2 flight offers (verdict note + a possible
    # shed-path note) and ~6 ops records (verdict, read, judge, plus
    # margin for mbx.scan sites); double everything as headroom.
    per_flow = 2 * (2 * per_note) + 2 * (6 * per_record)
    verdict_floor_seconds = 0.001
    assert per_flow < 0.05 * verdict_floor_seconds, (
        f"always-on serving instrumentation costs {per_flow * 1e6:.1f}µs/flow, "
        f"over 5% of the {verdict_floor_seconds * 1000:.0f}ms verdict floor"
    )
