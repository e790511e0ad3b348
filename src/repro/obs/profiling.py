"""Opt-in per-stage wall/CPU profiling hooks.

Experiment drivers and environment factories wrap their phases in
:func:`stage`; when profiling is disabled (the default) the context manager
yields immediately, and when enabled each stage accumulates wall-clock and
CPU seconds plus a call count.  Benchmarks embed the snapshot in their
``BENCH_*.json`` so a regression can be attributed to a stage instead of
just a total.

Profiling measures real time, so — unlike traces — its numbers are *not*
deterministic and never belong in golden artifacts.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Iterator

from repro import obs

#: Reserved key carrying the peak-RSS sample through :meth:`Profiler.dump`,
#: distinct from any stage name (stage names never use dunder framing).
_PEAK_RSS_KEY = "__peak_rss_kb__"


def peak_rss_kb() -> int | None:
    """This process's lifetime peak resident set size in KiB, or None.

    Zero-dependency: ``resource.getrusage`` where available (Linux reports
    ``ru_maxrss`` in KiB, macOS in bytes), falling back to ``VmHWM`` from
    ``/proc/self/status``.  The value is process-lifetime-monotonic — it
    never decreases — so flat-memory assertions must compare *separate
    processes*, not phases of one.
    """
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if peak > 0:
            return int(peak // 1024) if sys.platform == "darwin" else int(peak)
    except (ImportError, OSError, ValueError):
        pass
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


class StageTiming:
    """Accumulated timings for one named stage."""

    __slots__ = ("wall", "cpu", "calls")

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.calls = 0

    def as_dict(self) -> dict:
        return {
            "wall_seconds": round(self.wall, 6),
            "cpu_seconds": round(self.cpu, 6),
            "calls": self.calls,
        }


class Profiler:
    """Accumulates :class:`StageTiming` records per stage name."""

    def __init__(self) -> None:
        self.stages: dict[str, StageTiming] = {}
        #: Highest peak-RSS sample seen by this profiler (own process and,
        #: after :meth:`merge_dump`, every worker's); 0 until sampled.
        self.peak_rss_kb = 0

    def refresh_peak_rss(self) -> int:
        """Re-sample this process's peak RSS and fold it in (max)."""
        sample = peak_rss_kb()
        if sample is not None and sample > self.peak_rss_kb:
            self.peak_rss_kb = sample
        return self.peak_rss_kb

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one execution of stage *name* (re-entrant across calls)."""
        timing = self.stages.get(name)
        if timing is None:
            timing = self.stages[name] = StageTiming()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            timing.wall += time.perf_counter() - wall0
            timing.cpu += time.process_time() - cpu0
            timing.calls += 1

    def snapshot(self) -> dict:
        """All stage timings as a sorted JSON-ready dict.

        Includes a ``peak_rss_kb`` entry (plain int, not a stage dict) with
        the highest resident-set sample across this process and any merged
        workers; renderers treat non-dict values as summary facts.
        """
        out: dict = {name: t.as_dict() for name, t in sorted(self.stages.items())}
        out["peak_rss_kb"] = self.refresh_peak_rss()
        return out

    # ------------------------------------------------------------------
    # cross-process merging (the worker-pool snapshot path)
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """Raw per-stage timings, picklable, for shipping out of a worker.

        Carries the worker's peak-RSS sample under a reserved key so the
        parent can take the max across the fleet.
        """
        out: dict = {
            name: {"wall": t.wall, "cpu": t.cpu, "calls": t.calls}
            for name, t in self.stages.items()
        }
        out[_PEAK_RSS_KEY] = self.refresh_peak_rss()
        return out

    def merge_dump(self, dump: dict) -> None:
        """Fold one worker's :meth:`dump` into this profiler.

        Wall/CPU seconds and call counts add per stage, so a parallel run's
        parent profile reports the *total* work each stage performed across
        all workers (the parent's own ``stage()`` spans still measure the
        map's wall-clock envelope).  Peak RSS merges by max: the reported
        figure is the hungriest single process, not a meaningless sum.
        """
        for name, payload in sorted(dump.items()):
            if name == _PEAK_RSS_KEY:
                if payload > self.peak_rss_kb:
                    self.peak_rss_kb = payload
                continue
            timing = self.stages.get(name)
            if timing is None:
                timing = self.stages[name] = StageTiming()
            timing.wall += payload["wall"]
            timing.cpu += payload["cpu"]
            timing.calls += payload["calls"]

    def render(self) -> str:
        """A human-readable per-stage table."""
        lines = [f"{'stage':40s} {'wall s':>10s} {'cpu s':>10s} {'calls':>6s}"]
        for name, timing in sorted(self.stages.items()):
            lines.append(
                f"{name:40s} {timing.wall:10.4f} {timing.cpu:10.4f} {timing.calls:6d}"
            )
        lines.append(f"peak RSS: {self.refresh_peak_rss()} KiB")
        return "\n".join(lines)

    def reset(self) -> None:
        self.stages.clear()
        self.peak_rss_kb = 0


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time *name* on the active profiler; a fast no-op when disabled."""
    profiler = obs.PROFILER
    if profiler is None:
        yield
        return
    with profiler.stage(name):
        yield
