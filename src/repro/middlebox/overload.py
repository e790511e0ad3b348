"""Overload policy: deterministic load-shedding for a saturated middlebox.

A middlebox at its flow-table capacity has three bad options: grow without
bound (OOM), drop the packet (break the network), or silently churn state
so fast that verdicts become noise.  The paper's Figure 4 observation —
"classification results being flushed due to scarce resources" — says real
deployments pick the third.  This module makes the degradation *explicit,
ordered, and reproducible*:

1. **Victim preference** — capacity evictions prefer flows whose
   inspection already finished (a verdict is cheap to lose: the flow is
   either throttled via policy marks that survive eviction, or was never
   going to match) over flows still being classified.
2. **Admission shedding** — above a fullness watermark, a deterministic
   per-flow coin decides whether a *new* flow is tracked at all.  Untracked
   flows forward uninspected (fail-open), exactly like mid-flow traffic for
   which no SYN was seen.

Every decision derives from ``(seed, flow key)`` via CRC32 — no wall
clock, no ``random`` module state — so serial, thread and process runs
shed the *same* flows and traces stay byte-identical.  Shedding is
observable through ``mbx.shed.*`` metrics, ``mbx.flow_shed`` trace events
and ``mbx.overload`` telemetry-bus transitions, and is **off by default**:
an engine without an :class:`OverloadPolicy` behaves exactly as before.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

#: Admission-shed decisions scale the CRC32 coin into [0, 1).
_COIN_SPAN = float(1 << 32)


@dataclass(frozen=True)
class OverloadPolicy:
    """Tuning knobs for graceful degradation under flow-table pressure.

    Attributes:
        seed: folded into every per-flow shed coin (decisions are a pure
            function of ``(seed, flow key, fullness band)``).
        shed_start: table fullness (0..1] at which admission shedding
            begins; below it every new flow is tracked.
        shed_max: shed probability once the table is completely full; the
            probability ramps linearly from 0 at ``shed_start``.
        prefer_finished_victims: bias capacity evictions toward flows whose
            inspection already finished (lowest-value state first).
        victim_scan_limit: how far from the LRU end the victim search may
            walk (bounds eviction cost; the side tables' fixed bound is
            :data:`repro.middlebox.flowtable.VICTIM_SCAN_LIMIT`).
    """

    seed: int = 0x5EED
    shed_start: float = 0.95
    shed_max: float = 0.5
    prefer_finished_victims: bool = True
    victim_scan_limit: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.shed_start <= 1.0:
            raise ValueError("shed_start must be in (0, 1]")
        if not 0.0 <= self.shed_max <= 1.0:
            raise ValueError("shed_max must be in [0, 1]")


class LoadShedder:
    """Evaluates one :class:`OverloadPolicy` against live table fullness.

    Stateless apart from counters: the shed decision for a flow depends
    only on the policy seed, the flow key and the instantaneous fullness,
    which keeps worker processes in agreement without any shared state.
    """

    __slots__ = ("policy", "admitted", "shed", "overloaded")

    def __init__(self, policy: OverloadPolicy) -> None:
        self.policy = policy
        self.admitted = 0
        self.shed = 0
        self.overloaded = False  # above shed_start, for bus transitions

    def coin(self, key: object) -> float:
        """A deterministic per-flow value in [0, 1)."""
        digest = zlib.crc32(f"{self.policy.seed}|{key!r}".encode("utf-8", "replace"))
        return digest / _COIN_SPAN

    def shed_probability(self, fullness: float) -> float:
        """The admission-shed probability at *fullness* (0..1 of capacity)."""
        start = self.policy.shed_start
        if fullness < start:
            return 0.0
        if start >= 1.0:
            return self.policy.shed_max if fullness >= 1.0 else 0.0
        ramp = min(1.0, (fullness - start) / (1.0 - start))
        return self.policy.shed_max * ramp

    def admit(self, key: object, fullness: float) -> bool:
        """Decide whether a new flow at *fullness* is tracked (True) or shed."""
        probability = self.shed_probability(fullness)
        if probability > 0.0 and self.coin(key) < probability:
            self.shed += 1
            return False
        self.admitted += 1
        return True

    def crossed(self, fullness: float) -> str | None:
        """Track the overload watermark; "enter"/"exit" on a transition."""
        above = fullness >= self.policy.shed_start
        if above and not self.overloaded:
            self.overloaded = True
            return "enter"
        if not above and self.overloaded:
            self.overloaded = False
            return "exit"
        return None

    def stats(self) -> dict[str, int]:
        return {"admitted": self.admitted, "shed": self.shed}
