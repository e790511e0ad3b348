"""Characterization efficiency (§6.1–§6.6): rounds, data, and time per network.

The paper reports, for every environment, how many replay rounds lib·erate
needed to identify the classifier's matching fields, how much data the tests
consumed, and how long they took.  Wall-clock time in the real system is
dominated by the per-replay wait for a classification signal, so the
estimate here is rounds x the per-round test time the paper states for each
network (5 s in the testbed, ~15 s on T-Mobile's usage counter, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.characterization import Characterizer
from repro.envs import ENVIRONMENT_FACTORIES
from repro.experiments import paper_expectations
from repro.experiments.workloads import tcp_workload, udp_workload
from repro.runtime import WorkerPool

#: Seconds per replay round, from the paper's per-environment methodology.
SECONDS_PER_ROUND = {
    "testbed-http": 5.0,
    "testbed-skype": 5.0,
    "tmobile": 15.0,
    "att": 30.0,
    "gfc": 10.0,
    "iran": 8.0,
}


@dataclass
class EfficiencyResult:
    """One environment's characterization efficiency measurement."""

    case: str
    rounds: int
    bytes_used: int
    estimated_minutes: float
    matching_fields: list[str] = field(default_factory=list)
    server_side_fields: list[str] = field(default_factory=list)
    inspects_all_packets: bool = False
    packet_limit: int | None = None
    notes: list[str] = field(default_factory=list)


def _characterize(case: str, env_name: str, trace) -> EfficiencyResult:
    env = ENVIRONMENT_FACTORIES[env_name]()
    characterizer = Characterizer(env, trace)
    report = characterizer.run(include_server_side=(env_name == "att"))
    minutes = report.rounds * SECONDS_PER_ROUND.get(case, 10.0) / 60.0
    return EfficiencyResult(
        case=case,
        rounds=report.rounds,
        bytes_used=report.bytes_used,
        estimated_minutes=minutes,
        matching_fields=[str(f) for f in report.matching_fields],
        server_side_fields=[str(f) for f in report.server_side_fields],
        inspects_all_packets=report.inspects_all_packets,
        packet_limit=report.packet_limit,
        notes=list(report.notes),
    )


def run_testbed_http() -> EfficiencyResult:
    """§6.1: HTTP over the testbed — at most 70 rounds, <2 KB per round."""
    return _characterize("testbed-http", "testbed", tcp_workload("testbed"))


def run_testbed_skype() -> EfficiencyResult:
    """§6.1: Skype/STUN UDP over the testbed — 115 replays in the paper."""
    return _characterize("testbed-skype", "testbed", udp_workload("testbed"))


def run_tmobile() -> EfficiencyResult:
    """§6.2: Binge On — 80–95 rounds, 18 MB, ~23 minutes in the paper."""
    return _characterize("tmobile", "tmobile", tcp_workload("tmobile"))


def run_att() -> EfficiencyResult:
    """§6.3: Stream Saver — 71 replays, including server-side fields."""
    return _characterize("att", "att", tcp_workload("att"))


def run_gfc() -> EfficiencyResult:
    """§6.5: the GFC — 86 replays, <400 KB, with server-port rotation."""
    return _characterize("gfc", "gfc", tcp_workload("gfc"))


def run_iran() -> EfficiencyResult:
    """§6.6: Iran — 75 replays, ~300 KB, and per-packet inspection detected."""
    return _characterize("iran", "iran", tcp_workload("iran"))


ALL_CASES = {
    "testbed-http": run_testbed_http,
    "testbed-skype": run_testbed_skype,
    "tmobile": run_tmobile,
    "att": run_att,
    "gfc": run_gfc,
    "iran": run_iran,
}


def _run_case(case: str) -> EfficiencyResult:
    """One named efficiency case (a worker-pool task)."""
    return ALL_CASES[case]()


def run_all(pool: WorkerPool | None = None) -> list[EfficiencyResult]:
    """Every efficiency case in §6 order.

    Each case characterizes its own freshly built environment, so the cases
    run concurrently on a parallel *pool* with results in §6 order.
    """
    if pool is None:
        pool = WorkerPool()
    events = obs.EVENTS
    if events is not None:
        events.emit("exp.start", experiment="efficiency", cases=list(ALL_CASES))
    results = pool.map(_run_case, list(ALL_CASES))
    if events is not None:
        events.emit("exp.finish", experiment="efficiency", cases=len(results))
    return results


def format_efficiency(results: list[EfficiencyResult]) -> str:
    """Render measured-vs-paper efficiency numbers."""
    lines = [
        f"{'case':15s} {'rounds':>7s} {'paper':>12s} {'KB used':>9s} {'~min':>6s}  fields",
        "-" * 110,
    ]
    for result in results:
        paper = paper_expectations.EFFICIENCY.get(result.case, {})
        paper_rounds = (
            paper.get("rounds")
            or paper.get("rounds_max")
            or "-".join(str(x) for x in paper.get("rounds_range", ()) or ())
            or "?"
        )
        fields = ", ".join(result.matching_fields + result.server_side_fields)
        lines.append(
            f"{result.case:15s} {result.rounds:7d} {str(paper_rounds):>12s} "
            f"{result.bytes_used / 1000:9.1f} {result.estimated_minutes:6.1f}  {fields}"
        )
    return "\n".join(lines)
