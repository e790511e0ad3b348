"""Figure 4 — GFC delay-based evasion success varies with time of day (§6.5).

For each hour of the day and several trials per hour, find the minimum delay
(10–240 s, the paper's probe range) whose pause-before-match flush evades
the GFC.  Busy hours flush quickly (short delays work); quiet hours retain
state beyond the probe ceiling (no delay works — the paper's red dots).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.evasion.base import EvasionContext
from repro.core.evasion.flushing import PauseBeforeMatch
from repro.envs.gfc import make_gfc
from repro.netsim.faults import FaultProfile
from repro.obs import profiling as obs_profiling
from repro.replay.session import ReplaySession
from repro.runtime import WorkerPool, derive_seed
from repro.traffic.http import http_get_trace

#: The paper probed delays from 10 to 240 seconds.
DELAY_LADDER = (10, 20, 40, 60, 90, 120, 180, 240)
TRIALS_PER_HOUR = 6


@dataclass
class FlushSample:
    """One (hour, trial) measurement."""

    hour: int
    trial: int
    min_successful_delay: int | None  # None = even 240 s failed (red dot)


def _probe(hour: int, trial: int, delay: int, faults: FaultProfile | None = None) -> bool:
    """One probe: does a *delay*-second pause evade the GFC at this time?"""
    env = make_gfc(faults=faults)
    env.clock.at_hour(hour)
    env.clock.advance(trial * 523.0 % 3000.0)
    trace = http_get_trace("economist.com")
    context = EvasionContext(
        protocol="tcp", middlebox_hops=env.hops_to_middlebox, flush_wait_seconds=float(delay)
    )
    port = 8000 + (hour * 100 + trial * 10 + delay) % 20_000
    outcome = ReplaySession(env, trace, server_port=port).run(
        technique=PauseBeforeMatch(), context=context
    )
    return outcome.evaded


def _sample_task(
    task: tuple[int, int, tuple[int, ...], FaultProfile | None],
) -> FlushSample:
    """One (hour, trial) delay-ladder sweep (a worker-pool task)."""
    hour, trial, delays, faults = task
    found: int | None = None
    for delay in delays:
        if _probe(hour, trial, delay, faults):
            found = delay
            break
    if obs.EVENTS is not None:
        obs.EVENTS.emit("figure4.sample", hour=hour, trial=trial, min_delay=found)
    return FlushSample(hour=hour, trial=trial, min_successful_delay=found)


def run_figure4(
    hours: tuple[int, ...] = tuple(range(24)),
    trials: int = TRIALS_PER_HOUR,
    delays: tuple[int, ...] = DELAY_LADDER,
    pool: WorkerPool | None = None,
    faults: FaultProfile | None = None,
    seed: int | None = None,
) -> list[FlushSample]:
    """Sweep (hour, trial) and record the minimum working delay for each.

    Every probe builds a fresh GFC simulator pinned to its (hour, trial), so
    the samples are independent and run concurrently on a parallel *pool*,
    returned in (hour, trial) order.

    With *faults*, each sample's environment carries the fault profile,
    reseeded per (hour, trial) from *seed* (default: the profile's own seed)
    so the trials within an hour see independent fault streams while the
    whole sweep stays reproducible from one number.
    """
    if pool is None:
        pool = WorkerPool()
    # Metered runs parallelize like traced ones: process workers snapshot
    # their registries at task end and the pool merges the dumps back into
    # the parent in (task index, key) order (see runtime/pool.py).
    tasks = [
        (hour, trial, tuple(delays), _task_faults(faults, seed, hour, trial))
        for hour in hours
        for trial in range(trials)
    ]
    events = obs.EVENTS
    if events is not None:
        events.emit(
            "exp.start", experiment="figure4", hours=list(hours), trials=trials,
            samples=len(tasks), fault_seed=faults.seed if faults is not None else None,
        )
    with obs_profiling.stage("figure4.sweep"):
        samples = pool.map(_sample_task, tasks)
    if events is not None:
        events.emit("exp.finish", experiment="figure4", samples=len(samples))
    return samples


def _task_faults(
    faults: FaultProfile | None, seed: int | None, hour: int, trial: int
) -> FaultProfile | None:
    if faults is None:
        return None
    base = faults.seed if seed is None else seed
    return faults.with_seed(derive_seed(base, "figure4", hour, trial))


def busy_and_quiet_summary(samples: list[FlushSample]) -> dict[str, float]:
    """Aggregate statistics matching the paper's reading of Figure 4."""
    busy = [s for s in samples if 9 <= s.hour < 23]
    quiet = [s for s in samples if not 9 <= s.hour < 23]
    busy_ok = [s.min_successful_delay for s in busy if s.min_successful_delay is not None]
    return {
        "busy_success_rate": len(busy_ok) / len(busy) if busy else 0.0,
        "quiet_success_rate": (
            sum(1 for s in quiet if s.min_successful_delay is not None) / len(quiet)
            if quiet
            else 0.0
        ),
        "busy_min_delay": min(busy_ok) if busy_ok else float("nan"),
        "busy_max_delay": max(busy_ok) if busy_ok else float("nan"),
    }


def format_figure4(samples: list[FlushSample]) -> str:
    """Render the figure as an hour × trial text raster (paper-style dots).

    Digits give the minimal successful delay bucket; '#' marks trials where
    even the longest delay failed (the paper's red dots).
    """
    lines = ["hour | trials (min successful delay, '#'=never)"]
    by_hour: dict[int, list[FlushSample]] = {}
    for sample in samples:
        by_hour.setdefault(sample.hour, []).append(sample)
    for hour in sorted(by_hour):
        cells = []
        for sample in sorted(by_hour[hour], key=lambda s: s.trial):
            if sample.min_successful_delay is None:
                cells.append("   #")
            else:
                cells.append(f"{sample.min_successful_delay:4d}")
        lines.append(f"  {hour:02d} | {' '.join(cells)}")
    return "\n".join(lines)
