"""Scale churn workload: bounded flow-state under far-over-capacity load.

The counters a churn run reports are seeded-deterministic (endpoints from
flow indices, match decisions from CRC32, time from a virtual clock), so
they are asserted exactly; the memory side ("peak RSS stays flat when
flows grow 10x") is process-lifetime-monotonic and is checked in the slow
suite by running each configuration in its own subprocess — the same
comparison the scale-smoke CI job performs.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.scale import (
    MATCH_PAYLOAD,
    NEUTRAL_PAYLOAD,
    SERVER,
    SERVER_PORT,
    ScaleConfig,
    _flow_endpoint,
    _is_match_flow,
    build_engine,
    format_scale,
    main,
    run_scale,
)
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.faults import FaultElement, chaos_profile
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.runtime import WorkerPool

SMALL = ScaleConfig(flows=2_000, max_flows=256, idle_every=700, revisit_window=16)


def counters(result):
    """The deterministic payload: everything but the process-noisy RSS."""
    payload = result.as_dict()
    payload.pop("peak_rss_kb")
    return payload


class TestDeterminism:
    def test_same_config_same_counters(self):
        assert counters(run_scale(SMALL)) == counters(run_scale(SMALL))

    def test_shed_coin_is_seeded(self):
        config = ScaleConfig(flows=2_000, max_flows=256, shed=True, idle_every=0)
        first, second = run_scale(config), run_scale(config)
        assert first.sheds == second.sheds > 0
        assert counters(first) == counters(second)
        reseeded = run_scale(
            ScaleConfig(flows=2_000, max_flows=256, shed=True, shed_seed=99, idle_every=0)
        )
        assert reseeded.sheds != first.sheds

    def test_endpoints_unique_within_run(self):
        endpoints = {_flow_endpoint(i) for i in range(50_000)}
        assert len(endpoints) == 50_000

    def test_match_decision_is_pure(self):
        decisions = [_is_match_flow(i, 8) for i in range(4_096)]
        assert decisions == [_is_match_flow(i, 8) for i in range(4_096)]
        assert 0 < sum(decisions) < 4_096


class TestBoundedState:
    def test_tracked_flows_never_exceed_capacity(self):
        result = run_scale(SMALL)
        assert result.peak_tracked_flows <= SMALL.max_flows
        assert result.tracked_flows_end <= SMALL.max_flows

    def test_pure_churn_evicts_exactly_the_overflow(self):
        config = ScaleConfig(
            flows=2_000, max_flows=256, idle_every=0, revisit_window=0, match_every=0
        )
        result = run_scale(config)
        assert result.evictions == config.flows - config.max_flows
        assert result.tracked_flows_end == config.max_flows
        assert result.sheds == 0

    def test_admitted_plus_shed_covers_the_offered_load(self):
        config = ScaleConfig(flows=2_000, max_flows=256, shed=True, idle_every=0)
        result = run_scale(config)
        assert result.flows_admitted + result.sheds == result.flows_offered
        # Fail-open: shed flows still forward every packet uninspected.
        per_flow = 1 + config.packets_per_flow
        assert result.packets >= config.flows * per_flow

    def test_idle_jumps_batch_expire(self):
        result = run_scale(SMALL)
        assert result.expired > 0

    def test_byte_budget_run_stays_bounded(self):
        config = ScaleConfig(
            flows=1_000,
            max_flows=512,
            filler_bytes=600,
            flow_byte_budget=64_000,
            idle_every=0,
        )
        result = run_scale(config)
        assert result.peak_tracked_flows <= config.max_flows
        assert counters(result) == counters(run_scale(config))

    def test_match_log_is_folded_not_grown(self):
        config = ScaleConfig(flows=2_000, max_flows=256, match_every=2, idle_every=0)
        engine_matches = run_scale(config).matches
        expected = sum(_is_match_flow(i, 2) for i in range(config.flows))
        assert engine_matches == expected


class TestCLI:
    def test_module_entry_emits_json(self, capsys):
        assert main(["--flows", "400", "--max-flows", "64", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flows_offered"] == 400
        assert payload["config"]["max_flows"] == 64
        assert payload["evictions"] > 0

    def test_liberate_scale_subcommand(self, capsys):
        from repro.cli.main import main as cli_main

        assert cli_main(["scale", "--flows", "400", "--max-flows", "64", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flows_offered"] == 400

    def test_format_scale_mentions_every_counter(self):
        text = format_scale(run_scale(ScaleConfig(flows=300, max_flows=64)))
        for label in ("flows offered", "evictions", "sheds", "peak tracked"):
            assert label in text


def _strip_rss(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("peak_rss_kb", None)
    return payload


@pytest.mark.chaos
class TestChurnAcrossBackends:
    """The churn counters are a pure function of config on every backend."""

    CONFIGS = [
        ScaleConfig(flows=800, max_flows=128, idle_every=300, revisit_window=8),
        ScaleConfig(flows=800, max_flows=128, shed=True, idle_every=0),
        ScaleConfig(flows=600, max_flows=64, match_every=2, flow_byte_budget=32_000),
    ]

    def _run(self, backend: str) -> list[str]:
        results = WorkerPool(backend).map(run_scale, self.CONFIGS)
        return [
            json.dumps(_strip_rss(r.as_dict()), sort_keys=True) for r in results
        ]

    def test_thread_pool_matches_serial(self):
        assert self._run("thread") == self._run("serial")

    def test_process_pool_matches_serial(self):
        assert self._run("process") == self._run("serial")


def faulty_churn(seed: int, flows: int = 1_200, max_flows: int = 128) -> dict:
    """Chaos-profile faults + capacity churn; module-level so worker
    processes can pickle it for the cross-backend identity check."""
    config = ScaleConfig(flows=flows, max_flows=max_flows, idle_every=500)
    engine, _policy = build_engine(config)
    fault = FaultElement(chaos_profile(seed))
    clock = VirtualClock()
    sink = []
    ctx = TransitContext(clock=clock, inject_back=sink.append, inject_forward=sink.append)
    matches = 0
    for index in range(config.flows):
        src, sport = _flow_endpoint(index)
        payload = (
            MATCH_PAYLOAD if _is_match_flow(index, config.match_every) else NEUTRAL_PAYLOAD
        )
        for seq, flags, body in (
            (1_000, TCPFlags.SYN, b""),
            (1_001, TCPFlags.ACK | TCPFlags.PSH, payload),
            (1_001 + len(payload), TCPFlags.ACK | TCPFlags.PSH, payload),
        ):
            clock.advance(config.packet_interval)
            segment = TCPSegment(
                sport=sport, dport=SERVER_PORT, seq=seq, ack=1, flags=flags, payload=body
            )
            packet = IPPacket(src=src, dst=SERVER, transport=segment)
            for survivor in fault.process(packet, Direction.CLIENT_TO_SERVER, ctx):
                engine.process(survivor, Direction.CLIENT_TO_SERVER, ctx)
            sink.clear()
        if len(engine.match_log) >= 1_024:
            matches += len(engine.match_log)
            engine.match_log.clear()
        if (index + 1) % config.idle_every == 0:
            clock.advance(config.idle_seconds)
        assert len(engine._flows) <= config.max_flows
    matches += len(engine.match_log)
    return {
        "matches": matches,
        "evictions": engine.evictions,
        "tracked": len(engine._flows),
        "faults": fault.stats.processed,
        "dropped": fault.stats.lost + fault.stats.burst_lost + fault.stats.flap_dropped,
        "corrupted": fault.stats.corrupted,
    }


@pytest.mark.chaos
class TestChurnUnderFaults:
    """Seeded faults + capacity churn: degraded, deterministic, bounded."""

    def test_faulty_churn_is_deterministic(self):
        first = faulty_churn(seed=7)
        assert first == faulty_churn(seed=7)
        assert first["dropped"] > 0  # the profile actually bit

    def test_fault_seed_changes_the_run_not_the_bounds(self):
        a, b = faulty_churn(seed=1), faulty_churn(seed=2)
        assert a != b
        assert a["tracked"] <= 128 and b["tracked"] <= 128

    def test_faulty_churn_identical_across_backends(self):
        seeds = [7, 23]
        runs = {
            backend: [
                json.dumps(r, sort_keys=True)
                for r in WorkerPool(backend).map(faulty_churn, seeds)
            ]
            for backend in ("serial", "thread", "process")
        }
        assert runs["thread"] == runs["serial"]
        assert runs["process"] == runs["serial"]


class TestMemoryFlatness:
    """Peak RSS saturates: 2x the flows must not move it beyond noise.

    Each configuration runs in its own interpreter because ``ru_maxrss``
    is process-lifetime-monotonic.  The baseline sits at 100k flows — the
    structures (slab, LRU chain, caches) are fully warm there; below that the
    allocator is still filling its arenas and ratios mean nothing.
    """

    BASELINE_FLOWS = int(os.environ.get("REPRO_SCALE_BASE_FLOWS", "100000"))
    GROWN_FLOWS = int(os.environ.get("REPRO_SCALE_GROWN_FLOWS", "200000"))

    def run_in_subprocess(self, flows: int) -> dict:
        env = dict(os.environ, PYTHONPATH="src")
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments.scale", "--flows", str(flows), "--json"],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        return json.loads(out.stdout)

    def test_peak_rss_flat_at_2x_flows(self):
        base = self.run_in_subprocess(self.BASELINE_FLOWS)
        grown = self.run_in_subprocess(self.GROWN_FLOWS)
        assert base["peak_rss_kb"] and grown["peak_rss_kb"]
        ratio = grown["peak_rss_kb"] / base["peak_rss_kb"]
        assert ratio < 1.25, (
            f"peak RSS grew {ratio:.2f}x when flows grew "
            f"{self.GROWN_FLOWS / self.BASELINE_FLOWS:.0f}x "
            f"({base['peak_rss_kb']} -> {grown['peak_rss_kb']} KiB): "
            "some structure is no longer bounded"
        )
        # The bounded-state counters scale with the offered load instead.
        assert grown["evictions"] > base["evictions"]
