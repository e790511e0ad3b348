"""Distributed characterization (§4.2).

"An alternative approach to reduce runtimes is to distribute disjoint
subsets of the tests among multiple users in the same network, and aggregate
the results."  The replay rounds of a characterization run are independent
given the bisection's control flow, so spreading them round-robin over N
cooperating users divides each user's measurement load (and wall-clock
time, since users run concurrently) by ~N.

The paper also notes the drawback: the aggregated results sit in a public
place where the adversary can read them — which is the same trade-off as
:mod:`repro.core.cache`, where the results land afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import logging

from repro import obs
from repro.core.characterization import Characterizer
from repro.core.report import CharacterizationReport
from repro.envs.base import Environment
from repro.runtime import RetryPolicy, TaskFailure, WorkerPool
from repro.traffic.trace import Trace

logger = logging.getLogger(__name__)


@dataclass
class UserLoad:
    """Measurement load carried by one cooperating user."""

    user: int
    rounds: int = 0
    bytes_used: int = 0


class DistributedCharacterizer(Characterizer):
    """A characterizer whose replay rounds are spread over N users.

    Rounds are assigned round-robin — what the disjoint-subsets scheme
    degenerates to when tests execute in bisection order.  Every replay
    already uses a fresh client port, so the middlebox sees each user's
    probes as unrelated flows.

    Args:
        users: number of cooperating users (≥1).
    """

    def __init__(self, env: Environment, trace: Trace, users: int = 4, **kwargs: object) -> None:
        if users < 1:
            raise ValueError("need at least one user")
        super().__init__(env, trace, **kwargs)  # type: ignore[arg-type]
        self.users = [UserLoad(user=i) for i in range(users)]
        self._next_user = 0

    def _replay(self, blind=None, prepend=None, server_blind=None) -> bool:  # type: ignore[override]
        user = self.users[self._next_user]
        self._next_user = (self._next_user + 1) % len(self.users)
        before_rounds, before_bytes = self.rounds, self.bytes_used
        result = super()._replay(blind=blind, prepend=prepend, server_blind=server_blind)
        user.rounds += self.rounds - before_rounds
        user.bytes_used += self.bytes_used - before_bytes
        return result

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def run_distributed(self) -> tuple[CharacterizationReport, list[UserLoad]]:
        """Characterize and return the report plus the per-user loads."""
        report = self.run()
        return report, list(self.users)


def _solo_task(task: tuple[object, Trace]) -> int:
    """Single-user characterization: the round count (a worker-pool task)."""
    env_factory, trace = task
    solo = Characterizer(env_factory(), trace)
    solo.run()
    return solo.rounds


def _distributed_task(task: tuple[object, Trace, int]) -> tuple[int, list[int], list[str]]:
    """N-user characterization: totals, per-user loads, matched fields."""
    env_factory, trace, users = task
    distributed = DistributedCharacterizer(env_factory(), trace, users=users)
    report, loads = distributed.run_distributed()
    fields = [f.content for f in report.matching_fields]
    return distributed.rounds, [load.rounds for load in loads], fields


def _reference_fields_task(task: tuple[object, Trace]) -> list[str]:
    """Reference single-user matching fields (a worker-pool task)."""
    env_factory, trace = task
    return [f.content for f in Characterizer(env_factory(), trace).find_matching_fields()]


def speedup_from_distribution(
    env_factory,
    trace: Trace,
    users: int = 4,
    pool: WorkerPool | None = None,
    retry: RetryPolicy | None = None,
) -> dict[str, float]:
    """Compare single-user vs. N-user characterization load.

    Returns total rounds, the busiest user's rounds, and the effective
    speedup (wall-clock divides by it when users run concurrently).  The
    three characterization runs (solo, distributed, reference fields) each
    build their own environment from *env_factory*, so a parallel *pool*
    runs them concurrently with identical results.  With a *retry* policy,
    tasks that die on the pool (crashed worker, timeout) are retried there
    and, as a last resort, re-run serially in-process — every task is pure,
    so a re-run computes the same result.
    """
    if pool is None:
        pool = WorkerPool()
    thunks = [
        partial(_solo_task, (env_factory, trace)),
        partial(_distributed_task, (env_factory, trace, users)),
        partial(_reference_fields_task, (env_factory, trace)),
    ]
    events = obs.EVENTS
    if events is not None:
        events.emit("exp.start", experiment="distribution", users=users, tasks=len(thunks))
    results = pool.run_all(thunks, retry=retry)
    for index, result in enumerate(results):
        if isinstance(result, TaskFailure):
            logger.warning(
                "distribution task %d failed on the pool (%s after %d attempt(s)); "
                "re-running serially in-process",
                index,
                result.error_type,
                result.attempts,
            )
            if events is not None:
                events.emit("pool.serial_fallback", task=index, error_type=result.error_type)
            results[index] = thunks[index]()
    if events is not None:
        events.emit("exp.finish", experiment="distribution", tasks=len(results))
    solo_rounds, (total_rounds, user_rounds, dist_fields), reference_fields = results
    busiest = max(user_rounds)
    return {
        "solo_rounds": float(solo_rounds),
        "distributed_total_rounds": float(total_rounds),
        "busiest_user_rounds": float(busiest),
        "speedup": solo_rounds / busiest if busiest else float("inf"),
        "fields_agree": float(dist_fields == reference_fields),
    }
