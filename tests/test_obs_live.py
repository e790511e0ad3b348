"""The telemetry bus: deterministic event logs, cross-process metric merging.

The acceptance bar mirrors the flow tracer's: whatever backend runs a
seeded experiment, the merged telemetry event log and the merged metrics
snapshot must equal what the serial backend records — and two runs of the
same seeded experiment must export byte-identical ``events.jsonl`` files.
"""

from __future__ import annotations

import io

import pytest

from repro import obs
from repro.experiments.table3 import run_table3
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs import profiling as obs_profiling
from repro.obs import trace as obs_trace
from repro.runtime import RetryPolicy, TaskFailure, WorkerPool

pytestmark = pytest.mark.obs

TABLE3_KWARGS = {
    "env_names": ("testbed", "sprint"),
    "include_os_matrix": False,
    "characterize": False,
}


_ATTEMPTS: dict[int, int] = {}


def _flaky_task(item: int) -> int:
    """Emit one telemetry event per attempt; first attempts fail, item 2 always."""
    attempt = _ATTEMPTS[item] = _ATTEMPTS.get(item, 0) + 1
    obs.BUS.emit("unit.attempt", item=item, attempt=attempt)
    if attempt == 1 or item == 2:
        raise RuntimeError("attempt fails")
    return item


# ----------------------------------------------------------------------
# bus unit behaviour
# ----------------------------------------------------------------------
class TestTelemetryBus:
    def test_emit_appends_with_logical_clock(self):
        bus = obs_live.TelemetryBus()
        bus.emit("unit.a", value=1)
        bus.emit("unit.b", value=2)
        assert [e.lclock for e in bus.events()] == [0, 1]
        assert [e.kind for e in bus.events()] == ["unit.a", "unit.b"]
        assert bus.tally() == {"unit.a": 1, "unit.b": 1}

    def test_subscribers_see_direct_emissions(self):
        bus = obs_live.TelemetryBus()
        seen = []
        bus.subscribe(lambda kind, fields: seen.append((kind, dict(fields))))
        bus.emit("unit.x", n=3)
        assert seen == [("unit.x", {"n": 3})]

    def test_task_routing_and_merge_dump_order(self):
        bus = obs_live.TelemetryBus()
        bus.emit("unit.before")
        task = obs_live.task_bus()
        bus.route(task)
        bus.emit("unit.task", task=0)
        bus.route(None)
        assert [e.kind for e in bus.events()] == ["unit.before"]  # routed, not appended
        assert task.dump() == {"events": [("unit.task", {"task": 0})], "dropped": 0}
        bus.merge_dump(task.dump())
        bus.merge_dump({"events": [("unit.task", {"task": 1})], "dropped": 0})
        assert [e.fields.get("task") for e in bus.events()[1:]] == [0, 1]
        assert [e.lclock for e in bus.events()] == [0, 1, 2]

    def test_merge_dump_notifies_when_not_streaming(self):
        bus = obs_live.TelemetryBus()
        seen = []
        bus.subscribe(lambda kind, fields: seen.append(kind))
        bus.merge_dump({"events": [("unit.late", {})], "dropped": 0})
        assert seen == ["unit.late"]

    def test_export_and_load_round_trip(self, tmp_path):
        bus = obs_live.TelemetryBus()
        bus.emit("unit.a", n=1)
        bus.emit("unit.b", n=2)
        out = tmp_path / "events.jsonl"
        assert bus.export_jsonl(str(out)) == 2
        text = out.read_text()
        assert text.splitlines()[0] == (
            '{"events":2,"kind":"events.header","schema":1}'
        )
        records = obs_live.load_events_jsonl(str(out))
        assert records == [
            {"kind": "unit.a", "lclock": 0, "n": 1},
            {"kind": "unit.b", "lclock": 1, "n": 2},
        ]

    def test_bus_on_scopes_and_restores(self):
        assert obs.BUS is None
        bus = obs_live.TelemetryBus()
        with obs.installed(BUS=bus):
            assert obs.BUS is bus
            bus.emit("unit.scoped")
        assert obs.BUS is None

    def test_failed_task_buffer_is_discarded(self):
        # Each task's first attempt emits and then fails; the pool discards
        # that attempt's events, so the retry alone owns the task's log, and
        # a task that exhausts its retries leaves nothing in it.
        _ATTEMPTS.clear()
        retry = RetryPolicy(max_attempts=2, backoff_base=0.0)
        bus = obs_live.TelemetryBus()
        with obs.installed(BUS=bus):
            results = WorkerPool("thread", max_workers=2).map(
                _flaky_task, [0, 1, 2], retry=retry
            )
        assert results[:2] == [0, 1]
        assert isinstance(results[2], TaskFailure)
        assert bus.tally()["pool.retry"] == 4
        attempts = [e.fields for e in bus.events() if e.kind == "unit.attempt"]
        assert attempts == [{"item": 0, "attempt": 2}, {"item": 1, "attempt": 2}]


# ----------------------------------------------------------------------
# cross-process identity (the tentpole guarantee)
# ----------------------------------------------------------------------
def _seeded_run(backend: str) -> tuple[dict, str, dict]:
    """One traced + metered + telemetered table3 slice on *backend*."""
    registry, bus = obs_metrics.MetricsRegistry(), obs_live.TelemetryBus()
    with obs.installed(TRACER=obs_trace.FlowTracer(), METRICS=registry, BUS=bus):
        rows = run_table3(pool=WorkerPool(backend), **TABLE3_KWARGS)
        assert rows
        out = io.StringIO()
        bus.export_jsonl(out)
        return _portable(registry.snapshot()), out.getvalue(), bus.tally()


def _portable(snapshot: dict) -> dict:
    """The snapshot minus process-local series.

    ``mbx.automaton.*`` counts lookups and memoized builds — how many of
    each a process performs depends on worker scheduling and intern-memo
    state, not on the experiment, so those series are excluded from the
    cross-backend identity contract (see ``automaton._record_build``).
    """
    return {k: v for k, v in snapshot.items() if not k.startswith("mbx.automaton.")}


@pytest.mark.slow
class TestCrossProcessIdentity:
    def test_process_pool_metrics_snapshot_equals_serial(self):
        serial_snap, _, _ = _seeded_run("serial")
        process_snap, _, _ = _seeded_run("process")
        assert process_snap == serial_snap
        assert serial_snap["table3.cells"] > 0
        assert serial_snap["mbx.rule_matches"] > 0
        # The histogram merged from worker dumps, not just the counters.
        assert serial_snap["mbx.scan.payload_bytes"]["count"] > 0

    def test_thread_pool_metrics_snapshot_equals_serial(self):
        serial_snap, _, _ = _seeded_run("serial")
        thread_snap, _, _ = _seeded_run("thread")
        assert thread_snap == serial_snap

    def test_event_log_identical_across_backends(self):
        _, serial_log, serial_tally = _seeded_run("serial")
        _, process_log, _ = _seeded_run("process")
        assert process_log == serial_log
        assert serial_tally["table3.cell"] == 52  # 26 techniques x 2 envs
        assert serial_tally["exp.start"] == 1
        assert serial_tally["pool.dispatch"] == 2

    def test_seeded_runs_export_byte_identical_events(self, tmp_path):
        paths = []
        for run in range(2):
            bus = obs_live.TelemetryBus()
            with obs.installed(BUS=bus):
                run_table3(pool=WorkerPool("process"), **TABLE3_KWARGS)
                path = tmp_path / f"events-{run}.jsonl"
                bus.export_jsonl(str(path))
                paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_worker_stage_timings_merge_into_parent_profile(self):
        profiler = obs_profiling.Profiler()
        with obs.installed(PROFILER=profiler):
            run_table3(pool=WorkerPool("process"), **TABLE3_KWARGS)
        stages = profiler.snapshot()
        # The map's envelope is timed in the parent...
        assert "table3.columns" in stages
        # ...and the workers' per-environment stages shipped home and merged.
        assert stages["env.build.testbed"]["calls"] >= 1
        assert stages["env.build.sprint"]["calls"] >= 1
        assert stages["env.build.testbed"]["wall_seconds"] >= 0.0


# ----------------------------------------------------------------------
# profiling merge unit behaviour
# ----------------------------------------------------------------------
class TestProfileMerge:
    def test_merge_dump_sums_stages(self):
        worker = obs_profiling.Profiler()
        with worker.stage("unit.stage"):
            pass
        parent = obs_profiling.Profiler()
        with parent.stage("unit.stage"):
            pass
        before = parent.stages["unit.stage"].calls
        parent.merge_dump(worker.dump())
        assert parent.stages["unit.stage"].calls == before + 1

    def test_metrics_merge_dump_counters_and_histograms(self):
        worker = obs_metrics.MetricsRegistry()
        worker.inc("unit.count", 2)
        worker.observe("unit.hist", 7)
        worker.set_gauge("unit.gauge", 5)
        parent = obs_metrics.MetricsRegistry()
        parent.inc("unit.count", 1)
        parent.observe("unit.hist", 3)
        parent.set_gauge("unit.gauge", 1)
        parent.merge_dump(worker.dump())
        snap = parent.snapshot()
        assert snap["unit.count"] == 3
        assert snap["unit.gauge"] == 5  # last write wins
        assert snap["unit.hist"]["count"] == 2
        assert snap["unit.hist"]["sum"] == 10.0

    def test_histogram_shape_mismatch_rejected(self):
        histogram = obs_metrics.Histogram(bounds=(1, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            histogram.merge_counts([1, 2], 3.0, 2)


# ----------------------------------------------------------------------
# the live progress view
# ----------------------------------------------------------------------
class TestLiveProgressView:
    def _view(self, times):
        ticks = iter(times)
        return obs_live.LiveProgressView(clock=lambda: next(ticks))

    def test_matrix_fills_as_cells_land(self):
        view = self._view([0.0, 10.0, 20.0])
        view.on_event(
            "exp.start",
            {"experiment": "table3", "envs": ["testbed", "sprint"],
             "techniques": ["t1", "t2"], "cells": 4},
        )
        view.on_event(
            "table3.cell", {"env": "testbed", "technique": "t1", "cc": "Y", "rs": "N"}
        )
        rendered = view.render()
        assert "table3: 1/4 cells" in rendered
        assert "Y/N" in rendered
        assert "·" in rendered  # pending cells

    def test_eta_extrapolates_from_completed_cells(self):
        view = self._view([0.0, 30.0, 60.0])
        view.on_event("exp.start", {"experiment": "table3", "cells": 4})
        view.on_event(
            "table3.cell", {"env": "a", "technique": "t", "cc": "Y", "rs": "Y"}
        )
        view.on_event(
            "table3.cell", {"env": "b", "technique": "t", "cc": "Y", "rs": "Y"}
        )
        # 2 cells in 60s -> 30s/cell -> 2 remaining -> 60s.
        assert view.eta_seconds() == pytest.approx(60.0)

    def test_pool_counters_and_draw(self):
        stream = io.StringIO()
        view = obs_live.LiveProgressView(stream=stream)
        view.on_event("pool.dispatch", {"task": 0})
        view.on_event("pool.task_done", {"task": 0, "ok": True})
        view.on_event("pool.retry", {"task": 0, "attempt": 1})
        assert view.tasks_dispatched == 1
        assert view.tasks_done == 1
        assert view.retries == 1
        assert "pool 1/1" in stream.getvalue()

    def test_attach_subscribes_to_bus(self):
        bus = obs_live.TelemetryBus()
        view = obs_live.LiveProgressView().attach(bus)
        bus.emit("exp.start", experiment="figure4", cells=2)
        bus.emit("figure4.sample", hour=3, trial=0, min_delay=20)
        assert view.experiment == "figure4"
        assert view.completed() == 1


# ----------------------------------------------------------------------
# live streaming (display-only queue)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_streaming_delivers_worker_events_live():
    bus = obs_live.TelemetryBus()
    with obs.installed(BUS=bus):
        seen = []
        bus.subscribe(lambda kind, fields: seen.append(kind))
        bus.enable_streaming()
        run_table3(
            pool=WorkerPool("process"),
            env_names=("testbed",),
            include_os_matrix=False,
            characterize=False,
        )
        # Worker events reached the subscriber via the stream; the merged
        # log still carries them all, exactly once.
        assert bus.tally()["table3.cell"] == 26
    assert seen.count("exp.start") == 1
    assert seen.count("table3.cell") == 26
