"""One measured process for the table3 and churn workloads.

``run.py`` launches this script once per set-up sample (``--setup-only``)
and once for the measured passes.  It prints one JSON object as its last
line of standard output.  ``ready_at`` is the ``time.monotonic()`` reading
(a system-wide clock, comparable with the parent's) at which measured work
could start, so the parent computes set-up time from process launch.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import latency_stats, local_speeds, peak_rss_mb, reference_span, speed_chunk  # noqa: E402

#: Churn sizing: flows are several multiples of ``idle_every`` (the timer
#: wheel batch-expires four times a pass) and about 5x the flow-table
#: capacity (so LRU eviction runs between expiries).
CHURN_CONFIG = {"flows": 40_000, "idle_every": 10_000, "max_flows": 8_192}

#: Seeded counters of one churn pass at :data:`CHURN_CONFIG`.
CHURN_EXPECTED = {"evictions": 7_235, "expired": 32_768, "matches": 5_000, "packets": 159_940}

#: churn runs one speed chunk every this many flows (table3: every replay).
CHURN_FLOWS_PER_CHUNK = 16

#: Paper agreement every Table 3 pass must reach.
TABLE3_CELLS = 312


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("table3_clean", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--speed", action="store_true",
                        help="run speed chunks between operations and report reference-speed times")
    parser.add_argument("--spans", help="trace: install the layer ledger, write spans here")
    args = parser.parse_args(argv)

    ledger = None
    if args.spans:
        from ledger import Ledger

        ledger = Ledger().install()
    workload = Table3() if args.workload == "table3_clean" else Churn()
    workload.build()
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    workload.hook(ledger, args.speed)
    workload.warm_up()
    passes, pass_samples, totals = [], [], None
    ref_passes: list[float] = []
    started = time.perf_counter()
    while True:
        if ledger is not None:
            from ledger import add, window

            ledger.forget_objects()
            before = ledger.snapshot()
            ledger.recording = True
        workload.samples = []
        workload.chunks = []
        begin = time.perf_counter()
        workload.run_pass()
        end = time.perf_counter()
        passes.append(end - begin)
        samples, chunks = workload.samples, workload.chunks
        if args.speed:
            ref_passes.append(reference_span(begin, end, chunks))
            speeds = local_speeds(chunks, workload.ops_per_chunk, len(samples))
            samples = [t * f for t, f in zip(samples, speeds)]
        pass_samples.append(samples)
        if ledger is not None:
            ledger.recording = False
            totals = add(totals, window(before, ledger.snapshot()))
        elapsed = time.perf_counter() - started
        if len(passes) >= args.min_passes and elapsed + statistics.median(passes) > args.seconds:
            break
    result = {
        "ready_at": ready_at,
        "passes": passes,
        "ref_passes": ref_passes,
        "ops": workload.ops,
        "cells": workload.cells,
        "sim_packets": workload.sim_packets,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "checks": workload.checks,
        "outputs": workload.outputs,
        "latency_s": latency_stats(pass_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    if ledger is not None:
        ledger.write_spans(args.spans)
        result["ledger"] = totals
        result["flows_peak"] = workload.flows_peak(ledger)
    print(json.dumps(result))
    return 0


class Table3:
    """``run_table3(characterize=True)`` on the serial backend."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.chunks: list[tuple[float, float]] = []
        self.ops_per_chunk = 1
        self.checks: list[str] = []
        self.outputs: dict = {}
        self.ops = 0
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.sim_packets = None

    def build(self) -> None:
        from repro.endpoint.osmodel import ALL_OS_PROFILES
        from repro.envs import ENVIRONMENT_FACTORIES, make_neutral
        from repro.experiments.table3 import TABLE3_ENVS
        from repro.runtime import WorkerPool

        for name in TABLE3_ENVS:
            ENVIRONMENT_FACTORIES[name](faults=None)
        for profile in ALL_OS_PROFILES:
            make_neutral(profile)
        self.pool = WorkerPool(backend="serial")

    def hook(self, ledger, speed: bool) -> None:
        """Time each replay, the unit of discovery cost; tag spans by cell."""
        import repro.experiments.table3 as table3
        from repro.replay.session import ReplaySession

        clock = time.perf_counter
        replay = ReplaySession.run

        def timed_replay(session, *args, **kwargs):
            start = clock()
            outcome = replay(session, *args, **kwargs)
            self.samples.append(clock() - start)
            if speed:
                self.chunks.append(speed_chunk())
            return outcome

        ReplaySession.run = timed_replay
        if ledger is None:
            return
        measure_cell = table3._measure_cell

        def tagged_cell(prep, technique, trials=1):
            ledger.tag = f"{prep.env.name}/{technique.name}"
            return measure_cell(prep, technique, trials=trials)

        table3._measure_cell = tagged_cell

    def warm_up(self) -> None:
        from repro.experiments.table3 import run_table3

        run_table3(characterize=True, pool=self.pool)

    def run_pass(self) -> None:
        from repro.experiments.table3 import compare_with_paper, run_table3
        from repro.netsim.path import packets_propagated

        replays_before = len(self.samples)
        before = packets_propagated()
        rows = run_table3(characterize=True, pool=self.pool)
        packets = packets_propagated() - before
        matches, total, mismatches = compare_with_paper(rows)
        self.ops = len(self.samples) - replays_before
        self.attempted += total
        self.failed += total - matches
        self.cells = sum(len(row.cells) for row in rows)
        if (matches, total) != (TABLE3_CELLS, TABLE3_CELLS):
            self.checks.append(f"paper agreement {matches}/{total}: {mismatches[:3]}")
        if self.sim_packets is None:
            self.sim_packets = packets
        elif packets != self.sim_packets:
            self.checks.append(f"sim_packets changed between passes: {self.sim_packets} -> {packets}")
        self.outputs = {
            "agreement": [matches, total],
            "sim_packets": packets,
            "cells": {
                f"{row.technique}/{env}": [cell.cc, cell.rs]
                for row in rows
                for env, cell in sorted(row.cells.items())
            },
        }

    def flows_peak(self, ledger) -> int:
        return ledger.flows_peak


class Churn:
    """``run_scale`` above flow capacity: LRU eviction plus timer-wheel expiry."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.chunks: list[tuple[float, float]] = []
        self.ops_per_chunk = CHURN_FLOWS_PER_CHUNK
        self.checks: list[str] = []
        self.outputs: dict = {}
        self.ops = CHURN_CONFIG["flows"]
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.sim_packets = None
        self.peak_tracked = 0

    def build(self) -> None:
        from repro.experiments.scale import ScaleConfig, build_engine

        self.config = ScaleConfig(**CHURN_CONFIG)
        build_engine(self.config)

    def hook(self, ledger, speed: bool) -> None:
        """Time each flow: from its first packet to the next flow's first.

        ``run_scale`` looks up each flow's endpoint when the flow starts
        (and again for revisit and idle packets, which carry other
        indices), so consecutive in-order lookups bound one flow's work.
        A speed chunk runs between two flows, outside both samples.
        """
        import repro.experiments.scale as scale

        original = scale._flow_endpoint
        clock = time.perf_counter
        self.state = state = {"next": 0, "last": None}

        def timed_endpoint(index):
            if index == state["next"]:
                now = clock()
                if state["last"] is not None:
                    self.samples.append(now - state["last"])
                if speed and index % CHURN_FLOWS_PER_CHUNK == 0:
                    self.chunks.append(speed_chunk())
                    now = clock()
                state["last"] = now
                state["next"] = index + 1
                if ledger is not None:
                    ledger.tag = index
            return original(index)

        scale._flow_endpoint = timed_endpoint

    def warm_up(self) -> None:
        from repro.experiments.scale import ScaleConfig, run_scale

        run_scale(ScaleConfig(flows=2_000, idle_every=1_000, max_flows=512))

    def run_pass(self) -> None:
        from repro.experiments.scale import _is_match_flow, run_scale

        self.state.update(next=0, last=None)
        result = run_scale(self.config)
        offered = sum(
            1 for index in range(self.config.flows)
            if _is_match_flow(index, self.config.match_every)
        )
        self.attempted += offered
        self.failed += max(0, offered - result.matches)
        got = {
            "evictions": result.evictions,
            "expired": result.expired,
            "matches": result.matches,
            "packets": result.packets,
        }
        if got != CHURN_EXPECTED:
            self.checks.append(f"churn counters {got} != {CHURN_EXPECTED}")
        self.sim_packets = result.packets
        self.peak_tracked = max(self.peak_tracked, result.peak_tracked_flows)
        self.outputs = {**got, "peak_tracked_flows": result.peak_tracked_flows}

    def flows_peak(self, ledger) -> int:
        return self.peak_tracked


if __name__ == "__main__":
    sys.exit(main())
