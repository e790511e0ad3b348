"""Scale benchmark — bounded flow-state churn throughput and peak RSS.

Churns ``REPRO_SCALE_FLOWS`` flows (default 100k) through a capacity-bounded
engine and records packets/second **and peak RSS** in ``BENCH_scale.json``.
The watchdog tracks both: a throughput drop flags a slow path in the
flow table and expiry-lane machinery, and a peak-RSS jump flags a structure that
stopped being bounded.  The churn counters (evictions, sheds) are
seeded-deterministic, so they are also watchdog-checked as exact keys.
"""

import os

from repro.experiments.scale import ScaleConfig, format_scale, run_scale

from benchmarks.conftest import BenchProbe, save_bench_json, save_result

FLOWS = int(os.environ.get("REPRO_SCALE_FLOWS", "100000"))


def test_scale_churn_datapoint(results_dir):
    config = ScaleConfig(flows=FLOWS)
    with BenchProbe() as probe:
        result = run_scale(config)
    # The churn drives the engine directly (no netsim path), so the global
    # propagation counter never moves; the engine's packet count is the
    # honest throughput denominator.
    probe.packets = result.packets
    save_result(results_dir, "scale_churn", format_scale(result))
    save_bench_json(
        results_dir,
        "scale",
        probe,
        flows=result.flows_offered,
        evictions=result.evictions,
        sheds=result.sheds,
        expired=result.expired,
        matches=result.matches,
        peak_tracked_flows=result.peak_tracked_flows,
    )
    assert result.peak_tracked_flows <= config.max_flows
    assert result.evictions > 0, "churn must exceed capacity to exercise eviction"
    assert result.tracked_flows_end <= config.max_flows
