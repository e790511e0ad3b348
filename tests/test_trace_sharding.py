"""Per-task trace capture: traced parallel runs must equal traced serial.

The acceptance bar is byte identity: a traced ``table3``/``figure4`` run on
a process or thread pool must export exactly the JSONL a serial run
exports, because each task's events land in a task-local tracer whose dump
the pool merges back in task-index order — the order the serial loop would
have emitted them in.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro import obs
from repro.experiments.figure4 import run_figure4
from repro.experiments.table3 import run_table3
from repro.obs import trace as obs_trace
from repro.runtime import RetryPolicy, WorkerPool

pytestmark = [pytest.mark.obs, pytest.mark.slow]

TABLE3_KWARGS = {
    "env_names": ("testbed", "sprint"),
    "include_os_matrix": False,
    "characterize": False,
}


def _traced_table3(tmp_path, backend: str) -> str:
    out = tmp_path / f"table3-{backend}.jsonl"
    tracer = obs_trace.FlowTracer()
    with obs.installed(TRACER=tracer):
        rows = run_table3(pool=WorkerPool(backend), **TABLE3_KWARGS)
        tracer.export_jsonl(str(out))
    assert rows  # the run itself must have produced the table
    return out.read_text()


def _emit_events(count: int) -> int:
    """A pool task emitting *count* trace events of its own."""
    tracer = obs.TRACER
    if tracer is not None:
        with tracer.span("unit.task", count=count):
            for index in range(count):
                tracer.emit("unit.work", index=index)
    return count


def _traced_map(
    backend: str, counts, retry=None, capacity=obs_trace.DEFAULT_CAPACITY, workers=2
) -> str:
    tracer = obs_trace.FlowTracer(capacity)
    with obs.installed(TRACER=tracer):
        results = WorkerPool(backend, max_workers=workers).map(
            _emit_events, counts, retry=retry
        )
        assert results == list(counts)
        out = io.StringIO()
        tracer.export_jsonl(out)
    return out.getvalue()


def _kinds(export: str) -> list[str]:
    return [json.loads(line)["kind"] for line in export.splitlines()[1:]]


def _unnumbered(line: str) -> dict:
    record = json.loads(line)
    del record["seq"]
    return record


def _traced_figure4(tmp_path, backend: str) -> str:
    out = tmp_path / f"figure4-{backend}.jsonl"
    tracer = obs_trace.FlowTracer()
    with obs.installed(TRACER=tracer):
        samples = run_figure4(hours=(3, 12), trials=2, pool=WorkerPool(backend))
        tracer.export_jsonl(str(out))
    assert len(samples) == 4
    return out.read_text()


class TestShardMergeByteIdentity:
    def test_table3_process_pool_matches_serial(self, tmp_path):
        serial = _traced_table3(tmp_path, "serial")
        parallel = _traced_table3(tmp_path, "process")
        assert parallel == serial

    def test_table3_thread_pool_matches_serial(self, tmp_path):
        serial = _traced_table3(tmp_path, "serial")
        parallel = _traced_table3(tmp_path, "thread")
        assert parallel == serial

    def test_figure4_process_pool_matches_serial(self, tmp_path):
        serial = _traced_figure4(tmp_path, "serial")
        parallel = _traced_figure4(tmp_path, "process")
        assert parallel == serial

    def test_merged_trace_is_contiguously_renumbered(self, tmp_path):
        text = _traced_table3(tmp_path, "process")
        lines = text.splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "trace.header"
        assert header["dropped"] == 0
        seqs = [json.loads(line)["seq"] for line in lines[1:]]
        assert seqs == list(range(len(seqs)))


class TestCaptureAcrossBackends:
    @pytest.mark.parametrize("retry", [None, RetryPolicy()], ids=["plain", "retry"])
    @pytest.mark.parametrize("counts", [(3,), (3, 2)], ids=["one-task", "two-tasks"])
    def test_worker_event_kinds_equal_serial(self, counts, retry):
        # A single task with a retry policy still runs in a worker; its
        # events must come home like those of a multi-task map.
        serial = _kinds(_traced_map("serial", counts, retry))
        assert serial.count("unit.work") == sum(counts)
        for backend in ("thread", "process"):
            assert _kinds(_traced_map(backend, counts, retry)) == serial, backend

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_task_ring_overflow_drops_match_serial(self, backend):
        # Each task emits 8 events (span enter/exit around 6) into a ring of
        # 5: the task-local rings drop, then the parent ring drops again.
        serial = _traced_map("serial", (6, 6), capacity=5).splitlines()
        parallel = _traced_map(backend, (6, 6), capacity=5).splitlines()
        assert json.loads(serial[0])["dropped"] == 11
        assert parallel[0] == serial[0]
        # The same last five events survive; only their seq numbers differ,
        # because a task's ring never numbered the events it dropped.
        assert [_unnumbered(line) for line in parallel[1:]] == [
            _unnumbered(line) for line in serial[1:]
        ]

    def test_thread_routing_survives_contention(self):
        # More worker threads than cores and a short switch interval: an
        # event routed to the wrong thread's task tracer (or leaking into
        # the parent) would reorder the merged trace.
        counts = tuple(range(40, 80, 2))
        serial = _traced_map("serial", counts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _traced_map("thread", counts, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestShardScaffolding:
    def test_route_reaches_task_tracer_even_when_empty(self):
        # Regression: an empty FlowTracer is falsy (__len__ == 0), so the
        # tracer must pick the routed task tracer with an explicit None
        # check or a freshly opened task tracer's first event leaks into the
        # parent tracer.
        parent = obs_trace.FlowTracer()
        task = obs_trace.FlowTracer()
        parent.route(task)
        parent.emit("unit.event", probe=1)
        assert len(task) == 1
        assert len(parent) == 0
        # Routing is per thread: another thread still records into the parent.
        other = threading.Thread(target=parent.emit, args=("unit.other",))
        other.start()
        other.join(timeout=5)
        assert not other.is_alive()
        assert len(parent) == 1
        parent.route(None)
        parent.emit("unit.event", probe=2)
        assert len(parent) == 2
        assert len(task) == 1

    def test_merge_dump_renumbers_and_accumulates_drops(self):
        source = obs_trace.FlowTracer()
        source.emit("unit.a", 1.0, detail="x")
        source.emit("unit.b", 2.0)
        source.dropped_events = 3
        target = obs_trace.FlowTracer()
        target.emit("unit.pre")
        target.merge_dump(source.dump())
        assert target.dropped_events == 3
        merged = [event.as_dict() for event in target.events()]
        assert [event["seq"] for event in merged] == [0, 1, 2]
        assert merged[1]["kind"] == "unit.a"
        assert merged[1]["detail"] == "x"
        assert merged[1]["time"] == 1.0

    def test_metered_runs_no_longer_force_serial(self, tmp_path):
        # The pool ships each worker's registry dump home and merges it, so
        # a metered process-pool run records the same counters a serial run
        # would.
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with obs.installed(METRICS=registry):
            run_table3(pool=WorkerPool("process"), **TABLE3_KWARGS)
            parallel = registry.snapshot()
        registry = MetricsRegistry()
        with obs.installed(METRICS=registry):
            run_table3(pool=WorkerPool("serial"), **TABLE3_KWARGS)
            serial = registry.snapshot()
        assert parallel["mbx.rule_matches"] > 0
        assert parallel == serial
