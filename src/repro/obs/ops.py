"""``repro.obs.ops`` — operational observability for the live serving path.

The rest of ``repro.obs`` is built for deterministic *experiments*: logical
clocks, byte-identical exports, golden traces.  A live ``liberate serve``
process needs the complementary, explicitly *wall-clock* layer that serving
stacks require and experiments forbid:

* :class:`LatencyRecorder` — a log-bucketed (HDR-style) latency histogram
  with O(1) record (fixed bucket count) and geometric within-bucket
  percentile interpolation, on the bucket layout of
  :meth:`repro.obs.metrics.Histogram.log_spaced`.
* :class:`OpsRegistry` — the process-wide home for named latency recorders
  and operational counters, installed like the other obs recorders (the
  :data:`repro.obs.OPS` slot, ``is not None`` guards, off by default).
* :class:`OpsServer` — a zero-dependency asyncio HTTP endpoint
  (``liberate serve --ops-port``) exposing ``/metrics`` (Prometheus text
  exposition over the metrics registry + latency recorders), ``/healthz``
  (ok/degraded/unhealthy from ladder state, shed rate and SLOs) and
  ``/statusz`` (full JSON snapshot).
* :class:`SLOPolicy` / :func:`evaluate_health` — declarative latency and
  degradation targets checked live (feeding ``/healthz`` and the flight
  recorder's SLO-breach trigger).

Everything here is wall-clock by design and therefore **segregated**: ops
series live in their own registry (and would carry the ``ops.`` namespace in
any shared store — see :data:`repro.obs.metrics.OPS_PREFIX`), so none of the
deterministic snapshot/golden-trace guarantees ever see a wall-clock number.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import LATENCY_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - asyncio loads only when a server starts
    import asyncio

__all__ = [
    "LatencyRecorder",
    "OpsRegistry",
    "OpsServer",
    "SLOPolicy",
    "evaluate_health",
    "render_prometheus",
    "http_get",
]

#: Percentiles every latency summary reports (as ``p50_ms`` .. ``p999_ms``).
SUMMARY_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


class LatencyRecorder:
    """A log-bucketed latency histogram: O(1) record, percentiles.

    Values are **seconds** (summaries convert to milliseconds).  The bucket
    layout defaults to :data:`repro.obs.metrics.LATENCY_BUCKETS` (1µs..60s,
    five per decade), so relative quantile error is bounded by the bucket
    growth factor; :meth:`percentile` interpolates geometrically inside the
    resolved bucket and clamps to the exact observed min/max, which keeps
    p50 honest even when all observations share one bucket.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        if len(bounds) < 2:
            raise ValueError("LatencyRecorder needs at least two bucket bounds")
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot = +inf
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Record one latency sample (O(1): fixed bucket count)."""
        self.counts[bisect.bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0-100) in seconds, log-interpolated.

        Empty recorders report 0.0.  The rank's bucket is resolved exactly
        as :meth:`repro.obs.metrics.Histogram.percentile` does; within the
        bucket the estimate interpolates geometrically by rank fraction and
        is clamped to the observed ``[min, max]`` envelope, so a recorder
        whose samples all landed in one bucket still reports values inside
        the real data range.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p * self.count / 100))
        running = 0
        for index, n in enumerate(self.counts):
            if n == 0:
                continue
            before = running
            running += n
            if running < rank:
                continue
            if index >= len(self.bounds):  # overflow bucket
                return self.max
            high = self.bounds[index]
            low = self.bounds[index - 1] if index else high * (
                self.bounds[0] / self.bounds[1]
            )
            fraction = (rank - before) / n
            estimate = low * (high / low) ** fraction
            return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (running == count)

    def summary(self) -> dict:
        """JSON-ready percentile summary in milliseconds."""
        out: dict[str, object] = {"count": self.count}
        if self.count == 0:
            return out
        out["mean_ms"] = round(self.total / self.count * 1000, 3)
        out["min_ms"] = round(self.min * 1000, 3)
        out["max_ms"] = round(self.max * 1000, 3)
        for p in SUMMARY_PERCENTILES:
            key = f"p{p:g}".replace(".", "") + "_ms"
            out[key] = round(self.percentile(p) * 1000, 3)
        return out


class OpsRegistry:
    """Named latency recorders plus operational counters for one process.

    Instrumented sites (proxy, pool, engine) guard with ``obs.OPS is not None``
    exactly like the tracer/metrics/profiler sites, so the disabled cost is
    one attribute load per site and the serving hot path pays nothing in
    experiment runs.
    """

    def __init__(self) -> None:
        self._latency: dict[str, LatencyRecorder] = {}
        self._counters: dict[str, float] = {}
        self._started_monotonic = time.monotonic()
        self._started_unix = time.time()

    # ------------------------------------------------------------------
    # recording (called only behind an ``is not None`` guard)
    # ------------------------------------------------------------------
    def record(self, name: str, seconds: float) -> None:
        """Record one latency sample into recorder *name* (created on use)."""
        recorder = self._latency.get(name)
        if recorder is None:
            recorder = self._latency[name] = LatencyRecorder()
        recorder.record(seconds)

    def inc(self, name: str, amount: float = 1) -> None:
        """Increment operational counter *name*."""
        self._counters[name] = self._counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def recorder(self, name: str) -> LatencyRecorder | None:
        """The named recorder, or None when nothing was recorded under it."""
        return self._latency.get(name)

    def recorders(self) -> dict[str, LatencyRecorder]:
        """All recorders by name (a copy; exposition iterates this)."""
        return dict(self._latency)

    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    def latency_summaries(self, prefix: str | None = None) -> dict[str, dict]:
        """Percentile summaries per recorder, optionally prefix-filtered."""
        return {
            name: recorder.summary()
            for name, recorder in sorted(self._latency.items())
            if prefix is None or name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """The whole operational picture as one JSON-ready dict."""
        return {
            "started_unix": round(self._started_unix, 3),
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "latency": self.latency_summaries(),
            "counters": dict(sorted(self._counters.items())),
        }


# ----------------------------------------------------------------------
# SLOs and health
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOPolicy:
    """Declarative serving targets behind ``/healthz`` and the watchdog.

    Attributes:
        verdict_p99_ms: p99 end-to-end verdict latency target in
            milliseconds (None disables the latency SLO).
        min_samples: latency samples required before the p99 SLO is judged
            (early percentiles are noise).
        max_shed_rate: shed fraction above which health is *degraded*; the
            default 0.0 means any shedding degrades (shedding is the
            system's own "I am over capacity" signal).
        unhealthy_shed_rate: shed fraction above which health is
            *unhealthy* — most admissions are being refused.
        max_error_rate: ``broken`` verdict fraction above which health is
            degraded (delivery is failing, not just classification).
        max_fullness: active/max_active fraction above which health is
            degraded even before shedding starts.
    """

    verdict_p99_ms: float | None = None
    min_samples: int = 16
    max_shed_rate: float = 0.0
    unhealthy_shed_rate: float = 0.5
    max_error_rate: float = 0.05
    max_fullness: float = 0.95

    def __post_init__(self) -> None:
        if self.verdict_p99_ms is not None and self.verdict_p99_ms <= 0:
            raise ValueError("verdict_p99_ms must be positive")
        if not 0.0 <= self.max_shed_rate <= 1.0:
            raise ValueError("max_shed_rate must be in [0, 1]")
        if not 0.0 < self.unhealthy_shed_rate <= 1.0:
            raise ValueError("unhealthy_shed_rate must be in (0, 1]")


def evaluate_health(
    snapshot: dict, slo: SLOPolicy, ops: OpsRegistry | None = None
) -> dict:
    """Judge a proxy snapshot against *slo*: ok / degraded / unhealthy.

    *snapshot* is :meth:`repro.core.proxy_server.ProxyServer.snapshot`
    output (or any dict with the same keys).  Every reason contributing to
    a non-ok status is listed, so ``/healthz`` is diagnosable, not a bare
    traffic light.
    """
    reasons: list[str] = []
    severity = 0  # 0 ok, 1 degraded, 2 unhealthy

    def degraded(reason: str) -> None:
        nonlocal severity
        reasons.append(reason)
        severity = max(severity, 1)

    def unhealthy(reason: str) -> None:
        nonlocal severity
        reasons.append(reason)
        severity = 2

    flows = snapshot.get("flows") or 0
    shed = snapshot.get("shed") or 0
    shed_rate = shed / flows if flows else 0.0
    broken = snapshot.get("broken") or 0
    error_rate = broken / flows if flows else 0.0
    ladder = snapshot.get("ladder") or {}
    active = snapshot.get("active") or 0
    max_active = snapshot.get("max_active") or 0
    fullness = active / max_active if max_active else 0.0

    if ladder.get("exhausted"):
        unhealthy("fallback ladder exhausted: serving undisguised best-effort")
    if shed_rate > slo.unhealthy_shed_rate:
        unhealthy(
            f"shed rate {shed_rate:.3f} above unhealthy threshold "
            f"{slo.unhealthy_shed_rate:.3f}"
        )
    elif shed_rate > slo.max_shed_rate:
        degraded(f"shedding active: {shed} of {flows} flows ({shed_rate:.3f})")
    if (ladder.get("rung") or 0) > 0 and not ladder.get("exhausted"):
        degraded(
            f"ladder stepped down to rung {ladder.get('rung')} "
            f"({ladder.get('active_technique')})"
        )
    if error_rate > slo.max_error_rate:
        degraded(f"broken-verdict rate {error_rate:.3f} above {slo.max_error_rate:.3f}")
    if fullness > slo.max_fullness:
        degraded(f"connection table {fullness:.2f} full (capacity {max_active})")

    p99_ms = None
    if ops is not None:
        recorder = ops.recorder("proxy.verdict")
        if recorder is not None and recorder.count >= slo.min_samples:
            p99_ms = round(recorder.percentile(99) * 1000, 3)
            if slo.verdict_p99_ms is not None and p99_ms > slo.verdict_p99_ms:
                degraded(
                    f"verdict p99 {p99_ms:.1f}ms breaches the "
                    f"{slo.verdict_p99_ms:.1f}ms SLO"
                )

    return {
        "status": ("ok", "degraded", "unhealthy")[severity],
        "reasons": reasons,
        "shed_rate": round(shed_rate, 4),
        "error_rate": round(error_rate, 4),
        "fullness": round(fullness, 4),
        "ladder_rung": ladder.get("rung", 0),
        "verdict_p99_ms": p99_ms,
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "liberate_" + _PROM_SANITIZE.sub("_", name)


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def _prom_histogram(
    name: str, bounds: tuple[float, ...], counts: list[int], total: float, count: int
) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    running = 0
    for bound, n in zip(bounds, counts):
        running += n
        lines.append(f'{name}_bucket{{le="{_prom_value(float(bound))}"}} {running}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {_prom_value(round(total, 9))}")
    lines.append(f"{name}_count {count}")
    return lines


def render_prometheus(
    registry: "obs_metrics.MetricsRegistry | None" = None,
    ops: OpsRegistry | None = None,
) -> str:
    """Both registries as Prometheus text exposition (version 0.0.4).

    Metric names are the dotted internal names with ``.`` folded to ``_``
    under a ``liberate_`` prefix; latency recorders render as histograms in
    seconds (``liberate_ops_<name>_seconds``) so standard latency tooling
    (``histogram_quantile``) works unmodified.
    """
    lines: list[str] = []
    if registry is not None:
        for name, value in sorted(registry.counters().items()):
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_prom_value(value)}")
        for name, value in sorted(registry.gauges().items()):
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_value(value)}")
        for name, histogram in sorted(registry.histograms().items()):
            lines.extend(
                _prom_histogram(
                    _prom_name(name),
                    histogram.bounds,
                    histogram.counts,
                    histogram.total,
                    histogram.count,
                )
            )
    if ops is not None:
        uptime = _prom_name("ops.uptime_seconds")
        lines.append(f"# TYPE {uptime} gauge")
        lines.append(f"{uptime} {_prom_value(round(ops.uptime_seconds(), 3))}")
        for name, value in sorted(ops.counters().items()):
            pname = _prom_name(f"ops.{name}")
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_prom_value(value)}")
        for name, recorder in sorted(ops.recorders().items()):
            lines.extend(
                _prom_histogram(
                    _prom_name(f"ops.{name}") + "_seconds",
                    recorder.bounds,
                    recorder.counts,
                    recorder.total,
                    recorder.count,
                )
            )
    if obs.COVERAGE is not None:
        snap = obs.COVERAGE.snapshot()
        scopes = snap.get("scopes", {})
        gauges = {
            "ops.coverage.rules_total": sum(s["rules"] for s in scopes.values()),
            "ops.coverage.rules_exercised": sum(
                s["exercised"] for s in scopes.values()
            ),
            "ops.coverage.rules_dead": sum(len(s["dead"]) for s in scopes.values()),
            "ops.coverage.rule_hits_total": snap.get("total_rule_hits", 0),
            "ops.coverage.automaton_states_visited": sum(
                a["states_visited"] for a in snap.get("automata", {}).values()
            ),
            "ops.coverage.automaton_edges_walked": sum(
                a["edges_walked"] for a in snap.get("automata", {}).values()
            ),
        }
        for name, value in gauges.items():
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_value(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the ops endpoint
# ----------------------------------------------------------------------
class OpsServer:
    """A tiny zero-dependency asyncio HTTP server for operational surfaces.

    Routes:
        ``/metrics``  Prometheus text exposition (metrics registry + ops).
        ``/healthz``  health JSON; HTTP 200 for ok/degraded, 503 unhealthy.
        ``/statusz``  full JSON snapshot: stats, health, ops, uptime, RSS.

    The server shares the proxy's event loop — it must never block it, so
    every response is computed from in-memory state (no I/O, no locks).  An
    SLO p99 breach observed while answering ``/healthz`` trips the flight
    recorder (once per breach episode; the episode closes when the p99
    drops back under target).
    """

    def __init__(
        self,
        proxy,
        host: str = "127.0.0.1",
        port: int = 0,
        slo: SLOPolicy | None = None,
    ) -> None:
        self.proxy = proxy
        self.host = host
        self.port = port
        self.slo = slo if slo is not None else SLOPolicy()
        self._server: asyncio.AbstractServer | None = None

    @property
    def bound_port(self) -> int:
        if self._server is None:
            raise RuntimeError("ops server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "OpsServer":
        import asyncio

        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # surfaces
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Evaluate health now (also the SLO-breach flight trigger)."""
        report = evaluate_health(self.proxy.snapshot(), self.slo, obs.OPS)
        flight = obs.FLIGHT
        if flight is not None and self.slo.verdict_p99_ms is not None:
            p99 = report.get("verdict_p99_ms")
            if p99 is not None and p99 > self.slo.verdict_p99_ms:
                flight.trip(
                    "slo_p99",
                    episode="slo_p99",
                    p99_ms=p99,
                    target_ms=self.slo.verdict_p99_ms,
                )
            else:
                flight.recover("slo_p99")
        return report

    def statusz(self) -> dict:
        from repro.obs import profiling as obs_profiling

        report: dict[str, object] = {
            "stats": self.proxy.snapshot(),
            "health": self.health(),
            "peak_rss_kb": obs_profiling.peak_rss_kb(),
        }
        if obs.OPS is not None:
            report["ops"] = obs.OPS.snapshot()
        metrics = obs.METRICS
        if metrics is not None:
            report["metrics"] = metrics.snapshot(include_ops=True)
        flight = obs.FLIGHT
        if flight is not None:
            report["flight"] = flight.stats()
        return report

    # ------------------------------------------------------------------
    # the HTTP loop
    # ------------------------------------------------------------------
    def _respond(self, path: str) -> tuple[int, str, str]:
        """(status code, content type, body) for one GET path."""
        if path == "/metrics":
            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(obs.METRICS, obs.OPS),
            )
        if path == "/healthz":
            health = self.health()
            code = 503 if health["status"] == "unhealthy" else 200
            return code, "application/json", json.dumps(health, sort_keys=True) + "\n"
        if path in ("/statusz", "/"):
            body = json.dumps(self.statusz(), indent=2, sort_keys=True) + "\n"
            return 200, "application/json", body
        return 404, "text/plain; charset=utf-8", f"no such route: {path}\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            while True:  # drain headers; routes take no request body
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request.split()
            if len(parts) < 2 or parts[0] not in (b"GET", b"HEAD"):
                code, ctype, body = 405, "text/plain; charset=utf-8", "GET only\n"
            else:
                path = parts[1].decode("latin-1").split("?", 1)[0]
                code, ctype, body = self._respond(path)
                if parts[0] == b"HEAD":
                    body = ""
            payload = body.encode("utf-8")
            status = {200: "OK", 404: "Not Found", 405: "Method Not Allowed", 503: "Service Unavailable"}
            writer.write(
                (
                    f"HTTP/1.1 {code} {status.get(code, 'OK')}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + payload
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def http_get(host: str, port: int, path: str) -> tuple[int, str]:
    """One bare GET round-trip: (status code, body).  Used by the selfcheck
    and the CI smoke job so neither needs an HTTP client dependency."""
    import asyncio

    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    code = int(status_line[1]) if len(status_line) >= 2 else 0
    return code, body.decode("utf-8", "replace")
