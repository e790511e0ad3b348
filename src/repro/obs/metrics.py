"""The metrics registry: always-cheap counters, gauges and histograms.

Where the flow tracer answers "what happened to this packet", the metrics
registry answers "how much of everything happened": packets forwarded and
dropped per element, bytes fed through the rule scanner, wire-cache hit
rates, worker-pool retries and circuit-breaker trips.  The ROADMAP's
production north-star needs these numbers always available to keep the PR 1
fast paths honest.

Like tracing, metrics are **disabled by default**: the
:data:`repro.obs.METRICS` slot is ``None`` and instrumented sites guard with a single
``is not None`` check (on :data:`repro.obs.EVENTS` for a counter that goes with an
event, on ``METRICS`` for a count alone).  Enabled, every operation is one dict update — cheap
enough to leave on for a whole experiment run.

The registry is deliberately flat (dotted metric names, scalar values) so a
snapshot is a plain sorted dict: embeddable in reports, printable from the
CLI (``--metrics``), and trivially diffable between runs.
"""

from __future__ import annotations

import bisect
import math
import threading

#: Default histogram bucket upper bounds (values land in the first bucket
#: whose bound is >= the observation; the last bucket is +inf).
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)

#: Wall-clock metric namespace.  Anything under ``ops.`` is operational
#: telemetry (latency percentiles, uptime, live serving counters) and is
#: **excluded from deterministic snapshots** — cross-backend byte-identity
#: of :meth:`MetricsRegistry.snapshot` covers simulated behaviour only, and
#: wall-clock numbers would break it.  The ops endpoint and ``/statusz``
#: read the segregated series through ``include_ops=True``.
OPS_PREFIX = "ops."


def log_bucket_bounds(
    low: float, high: float, per_decade: int = 5
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds from *low* to at least *high*.

    The HDR-style layout shared by :meth:`Histogram.log_spaced` and
    :class:`repro.obs.ops.LatencyRecorder`: *per_decade* geometrically
    spaced bounds per factor of ten, so relative quantile error is bounded
    (~``10**(1/per_decade)``) across the whole range with a few dozen
    buckets.  Bounds are rounded to three significant digits so exported
    layouts are stable across platforms.
    """
    if low <= 0 or high <= low:
        raise ValueError(f"need 0 < low < high, got low={low} high={high}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    growth = 10.0 ** (1.0 / per_decade)
    bounds: list[float] = []
    value = low
    while True:
        rounded = float(f"{value:.3g}")
        if not bounds or rounded > bounds[-1]:
            bounds.append(rounded)
        if rounded >= high:
            break
        value *= growth
    return tuple(bounds)


#: Canonical latency bucket layout (seconds): 1µs .. 60s, 5 per decade.
#: Shared by the ops-layer latency recorders and any time-scaled Histogram
#: so dumps merge without shape mismatches.
LATENCY_BUCKETS = log_bucket_bounds(1e-6, 60.0, per_decade=5)


class Histogram:
    """A fixed-bucket histogram (counts per upper bound, plus sum/count)."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot = +inf
        self.total = 0.0
        self.count = 0

    @classmethod
    def log_spaced(
        cls, low: float = 1e-6, high: float = 60.0, per_decade: int = 5
    ) -> "Histogram":
        """A histogram on :func:`log_bucket_bounds` — the explicit-boundary
        constructor for time-scaled observations (seconds), sharing its
        layout with :class:`repro.obs.ops.LatencyRecorder` so worker dumps
        merge element-wise."""
        return cls(log_bucket_bounds(low, high, per_decade))

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0–100), resolved to a bucket upper bound.

        Fixed-bucket histograms can only answer "which bucket holds the
        p-th ranked observation", so the returned value is that bucket's
        upper bound — an upper estimate, exact when observations sit on
        bucket boundaries.  An empty histogram reports 0.0; observations
        beyond the last bound report ``inf`` (the overflow bucket).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p * self.count / 100))
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            if running >= rank:
                return float(bound)
        return float("inf")

    def as_dict(self) -> dict:
        """JSON-ready summary: count, sum, and per-bucket cumulative counts."""
        cumulative, running = {}, 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            cumulative[str(bound)] = running
        cumulative["inf"] = running + self.counts[-1]
        return {"count": self.count, "sum": round(self.total, 6), "buckets": cumulative}

    def merge_counts(self, counts: list[int], total: float, count: int) -> None:
        """Fold another histogram's raw per-bucket counts into this one.

        The worker-snapshot merge path: both histograms must share bounds
        (they do — instrumented sites pass the same bucket layout on every
        process), so merging is element-wise addition and the merged
        summary equals what a single-process run would have recorded.
        """
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram shape mismatch: {len(counts)} buckets vs {len(self.counts)}"
            )
        for index, n in enumerate(counts):
            self.counts[index] += n
        self.total += total
        self.count += count


class MetricsRegistry:
    """A flat namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Thread-pool workers record into this same registry, and counter
        #: and histogram updates are read-modify-write: a thread switch
        #: between the read and the write would drop every update the other
        #: thread made meanwhile.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording (called only behind an ``is not None`` guard)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Increment counter *name* by *amount*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Record *value* into histogram *name* (created on first use)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(bounds)
            histogram.observe(value)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """The current value of counter *name* (0 when never incremented)."""
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, float]:
        """All counters by name (a copy; Prometheus exposition reads this)."""
        return dict(self._counters)

    def gauges(self) -> dict[str, float]:
        """All gauges by name (a copy; Prometheus exposition reads this)."""
        return dict(self._gauges)

    def histograms(self) -> dict[str, Histogram]:
        """The live histogram objects by name (Prometheus exposition reads
        raw bucket counts from them; do not mutate)."""
        return dict(self._histograms)

    def snapshot(self, include_ops: bool = False) -> dict:
        """Everything, as one sorted JSON-ready dict.

        Counter/gauge keys map to scalars; histogram keys map to
        ``{count, sum, buckets}`` dicts.  Sorted so two snapshots of the
        same run serialize identically.

        Keys under :data:`OPS_PREFIX` carry wall-clock operational data and
        are excluded by default: the deterministic snapshot (golden
        artifacts, cross-backend identity checks) must never depend on real
        time.  ``include_ops=True`` is the operational read (``/statusz``).
        """
        merged: dict[str, object] = {}
        merged.update(self._counters)
        merged.update(self._gauges)
        merged.update({name: h.as_dict() for name, h in self._histograms.items()})
        if not include_ops:
            merged = {
                name: value
                for name, value in merged.items()
                if not name.startswith(OPS_PREFIX)
            }
        return dict(sorted(merged.items()))

    def render(self) -> str:
        """A human-readable snapshot table (the ``--metrics`` output)."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                lines.append(
                    f"{name:44s} count={value['count']} sum={value['sum']}"
                )
            else:
                display = int(value) if float(value).is_integer() else round(value, 4)
                lines.append(f"{name:44s} {display}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        """Zero every metric."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    # cross-process merging (the worker-pool snapshot path)
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """A lossless, picklable export of the registry's raw state.

        Unlike :meth:`snapshot` (which flattens histograms into cumulative
        buckets for display), a dump keeps raw per-bucket counts so another
        registry can :meth:`merge_dump` it without information loss.  This
        is what process-pool workers ship back with each task result.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "count": h.count,
                }
                for name, h in self._histograms.items()
            },
        }

    def merge_dump(self, dump: dict) -> None:
        """Fold one worker's :meth:`dump` into this registry.

        Counters and histograms add; gauges take the dump's value (last
        write wins, exactly as if the worker had run inline).  The pool
        merges dumps in (task index, key) order — task buffers visited in
        task order, keys sorted within each — so the merged registry is
        deterministic and, for a clean run, identical to a serial run's.
        """
        for name, value in sorted(dump.get("counters", {}).items()):
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in sorted(dump.get("gauges", {}).items()):
            self._gauges[name] = value
        for name, payload in sorted(dump.get("histograms", {}).items()):
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(tuple(payload["bounds"]))
            histogram.merge_counts(
                payload["counts"], payload["total"], payload["count"]
            )
