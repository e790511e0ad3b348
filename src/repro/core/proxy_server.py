"""Live transparent-proxy front-end: real sockets into the evasion engine.

The paper's §8 deployment mode runs lib·erate as a proxy serving actual
application traffic.  :class:`ProxyServer` is that front-end: an asyncio
server that accepts loopback TCP connections, treats each connection's
bytes as one application flow, pushes the flow through a
:class:`~repro.core.deployment.FallbackLadder` (the graceful-degradation
deployment shape from the simulated pipeline) and answers with a one-line
JSON verdict.  The engine underneath is the same deterministic simulator
the experiments run on — same environments, same techniques, same
classifier — so a payload served over a live socket gets *exactly* the
verdict the simulated path gives it (``tests/test_proxy_server.py`` pins
this equivalence).

Wire protocol (line-oriented, trivially scriptable)::

    client:  <payload bytes> EOF            # shutdown(SHUT_WR)
    server:  {"flow": 7, "technique": "...", "evaded": true, ...}\n

Flow-state is bounded by construction: the server keeps verdict *counters*
and a fixed-depth recent-outcome window, never per-flow state, and above a
fullness watermark the PR 7 :class:`~repro.middlebox.overload.LoadShedder`
sheds new flows deterministically (they are answered ``{"shed": true}``
and forwarded fail-open, exactly like an untracked mid-flow at a saturated
middlebox).  Telemetry rides along: when the bus/metrics/tracer are
enabled the proxy emits ``proxy.flow`` / ``proxy.overload`` /
``proxy.step_down`` events like any other pipeline stage.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.core.deployment import FallbackLadder
from repro.middlebox.overload import LoadShedder, OverloadPolicy
from repro.packets.flow import Direction
from repro.traffic.trace import Trace, TracePacket

__all__ = [
    "ProxyServer",
    "ProxyStats",
    "payload_trace",
    "drive_clients",
    "request_verdict",
]

#: Server response body attached to every live flow's dialogue.  The replay
#: needs a server→client leg to judge ``server_response_ok``; live clients
#: only send the client half, so the proxy completes the dialogue with this
#: canonical acknowledgement (same for every flow — verdicts must be a pure
#: function of the client payload).
_SERVER_ACK = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok"


def payload_trace(payload: bytes, name: str, server_port: int) -> Trace:
    """The canonical one-request dialogue for a live client payload.

    Both the proxy and the differential tests build flows through this
    function, which is what makes "the live verdict matches the simulated
    path" a well-defined claim: same payload → same :class:`Trace` → same
    deterministic replay.
    """
    return Trace(
        name=name,
        protocol="tcp",
        server_port=server_port,
        packets=[
            TracePacket(direction=Direction.CLIENT_TO_SERVER, payload=payload, time=0.0),
            TracePacket(direction=Direction.SERVER_TO_CLIENT, payload=_SERVER_ACK, time=0.01),
        ],
    )


@dataclass
class ProxyStats:
    """Bounded aggregate state — everything the server remembers.

    Attributes:
        flows: connections accepted (including shed ones).
        evaded / differentiated / broken: verdict tallies.
        shed: flows refused tracking by the overload policy.
        step_downs: fallback-ladder transitions observed so far.
        overload_transitions: shed-watermark crossings (enter + exit edges).
        peak_active: high-water mark of concurrent connections.
        recent: sliding window of the last few verdict strings.
    """

    flows: int = 0
    evaded: int = 0
    differentiated: int = 0
    broken: int = 0
    shed: int = 0
    step_downs: int = 0
    overload_transitions: int = 0
    peak_active: int = 0
    recent: deque = field(default_factory=lambda: deque(maxlen=64))

    def verdict_counts(self) -> dict[str, int]:
        return dict(Counter(self.recent))

    def as_dict(self) -> dict[str, int]:
        return {
            "flows": self.flows,
            "evaded": self.evaded,
            "differentiated": self.differentiated,
            "broken": self.broken,
            "shed": self.shed,
            "step_downs": self.step_downs,
            "overload_transitions": self.overload_transitions,
            "peak_active": self.peak_active,
        }


class ProxyServer:
    """Asyncio front-end bridging loopback sockets onto a fallback ladder.

    Args:
        ladder: the deployed technique ladder (from
            :meth:`repro.core.pipeline.Liberate.deploy_ladder`); each
            connection's payload becomes one health-checked flow on it.
        host / port: bind address; port 0 picks a free port (see
            :attr:`bound_port` after :meth:`start`).
        max_active: concurrent-connection capacity used as the overload
            denominator — fullness is ``active / max_active``.
        overload: admission-shedding policy; None disables shedding (every
            flow is tracked, as in the simulated experiments).
        max_payload: per-connection read cap in bytes; longer payloads are
            truncated rather than buffered without bound.
        server_port: destination port stamped on each live flow's dialogue
            (what the classifier sees as the application port).
        mbx_flow_bound: flow-table capacity imposed on every DPI engine on
            the ladder's path at :meth:`start`.  Simulated Table 3 cells
            run a handful of flows, so environments default to unbounded
            tables; a live proxy pushes an open-ended flow population
            through the same engines, so serving without a bound leaks
            ~KBs of classifier state per flow.  Completed flows never
            influence later verdicts (``run_flow`` is synchronous and every
            live flow gets a fresh source port), so the default — matching
            :attr:`max_active` — is already generous.  ``None`` keeps the
            environment untouched.
    """

    def __init__(
        self,
        ladder: FallbackLadder,
        host: str = "127.0.0.1",
        port: int = 0,
        max_active: int = 512,
        overload: OverloadPolicy | None = None,
        max_payload: int = 1 << 20,
        server_port: int = 80,
        mbx_flow_bound: int | None = 512,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be at least 1")
        if mbx_flow_bound is not None and mbx_flow_bound < 1:
            raise ValueError("mbx_flow_bound must be at least 1")
        self.ladder = ladder
        self.host = host
        self.port = port
        self.max_active = max_active
        self.max_payload = max_payload
        self.server_port = server_port
        self.shedder = LoadShedder(overload) if overload is not None else None
        self.mbx_flow_bound = mbx_flow_bound
        self.stats = ProxyStats()
        self._active = 0
        self._next_flow = 0
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actual listening port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ProxyServer":
        """Bind and start accepting connections (does not block)."""
        if self.mbx_flow_bound is not None:
            for element in self.ladder.env.path.elements:
                bound = getattr(element, "bound_flow_state", None)
                if bound is not None:
                    bound(self.mbx_flow_bound, match_log_bound=self.mbx_flow_bound)
        self._server = await asyncio.start_server(
            self._handle,
            self.host,
            self.port,
            # The default backlog (100) silently stalls connect bursts below
            # the server's own concurrency capacity; size it to max_active.
            backlog=max(self.max_active, 128),
        )
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "proxy.serve", host=self.host, port=self.bound_port,
                technique=self.ladder.active_technique.name, env=self.ladder.env.name,
            )
        return self

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``liberate serve`` foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        accepted = time.perf_counter()
        flow_id = self._next_flow
        self._next_flow += 1
        self._active += 1
        self.stats.flows += 1
        if self._active > self.stats.peak_active:
            self.stats.peak_active = self._active
        try:
            verdict = await self._verdict_for(flow_id, reader)
            writer.write(json.dumps(verdict, sort_keys=True).encode("ascii") + b"\n")
            await writer.drain()
            ops = obs.OPS
            if ops is not None:
                # End-to-end: accept → verdict line flushed.
                ops.record("proxy.verdict", time.perf_counter() - accepted)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-flow; nothing to answer
        finally:
            self._active -= 1
            self._note_watermark()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_payload(self, reader: asyncio.StreamReader) -> bytes:
        """Read the flow's full payload: until client EOF, capped at max_payload.

        ``StreamReader.read(n)`` returns on the *first* available chunk, not
        at EOF — judging that prefix would mis-verdict any payload split
        across TCP segments, and closing with unread bytes in the receive
        queue turns the close into an RST at the client.  So: loop to EOF,
        and when the cap is hit keep draining (discarding) so the verdict
        is computed on the truncated payload but the socket still closes
        cleanly.
        """
        chunks: list[bytes] = []
        remaining = self.max_payload
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                break
            if remaining > 0:
                chunks.append(chunk[:remaining])
                remaining -= len(chunk)
        return b"".join(chunks)

    async def _verdict_for(self, flow_id: int, reader: asyncio.StreamReader) -> dict:
        ops = obs.OPS
        flight = obs.FLIGHT
        events = obs.EVENTS
        fullness = self._active / self.max_active
        if self.shedder is not None and not self.shedder.admit(("proxy", flow_id), fullness):
            # Fail-open: drain the payload so the client's write completes,
            # but spend no engine work and keep no state for the flow.
            await self._read_payload(reader)
            self.stats.shed += 1
            self.stats.recent.append("shed")
            if events is not None:
                events.emit("proxy.flow", flow=flow_id, verdict="shed")
            if ops is not None:
                ops.inc("proxy.shed")
            if flight is not None:
                flight.note("proxy.flow", flow=flow_id, verdict="shed")
                flight.trip(
                    "overload_shed",
                    episode="overload",
                    flow=flow_id,
                    fullness=round(fullness, 4),
                    shed_total=self.stats.shed,
                )
            return {"flow": flow_id, "shed": True}
        started = time.perf_counter()
        payload = await self._read_payload(reader)
        read_done = time.perf_counter()
        trace = payload_trace(payload, f"live-{flow_id}", self.server_port)
        before_rung = self.ladder.rung
        outcome = self.ladder.run_flow(trace)
        if ops is not None:
            # Stage splits: socket read (accept → client EOF) and the
            # synchronous ladder judgement.
            ops.record("proxy.read", read_done - started)
            ops.record("proxy.judge", time.perf_counter() - read_done)
        verdict_kind = (
            "evaded"
            if outcome.evaded
            else ("differentiated" if outcome.differentiated else "broken")
        )
        setattr(self.stats, verdict_kind, getattr(self.stats, verdict_kind) + 1)
        self.stats.recent.append(verdict_kind)
        if events is not None:
            events.emit(
                "proxy.flow", flow=flow_id, verdict=verdict_kind, technique=outcome.technique or ""
            )
        if flight is not None:
            flight.note(
                "proxy.flow",
                flow=flow_id,
                verdict=verdict_kind,
                technique=outcome.technique or "",
                rung=self.ladder.rung,
            )
        if self.ladder.rung != before_rung:
            self.stats.step_downs += 1
            step = self.ladder.step_downs[-1]
            if ops is not None:
                ops.inc("proxy.step_downs")
            if events is not None:
                events.emit(
                    "proxy.step_down", flow=flow_id, from_technique=step.from_technique,
                    to_technique=step.to_technique or "", exhausted=self.ladder.exhausted,
                )
            if flight is not None:
                # Each rung transition is its own anomaly episode: stepping
                # 0→1 dumps once, a later 1→2 dumps again.
                flight.trip(
                    "step_down",
                    episode=f"step_down:{self.ladder.rung}",
                    flow=flow_id,
                    from_technique=step.from_technique,
                    to_technique=step.to_technique or "",
                    exhausted=self.ladder.exhausted,
                )
        return {
            "flow": flow_id,
            "technique": outcome.technique,
            "evaded": outcome.evaded,
            "differentiated": outcome.differentiated,
            "delivered_ok": outcome.delivered_ok,
            "rung": self.ladder.rung,
        }

    def _note_watermark(self) -> None:
        if self.shedder is None:
            return
        transition = self.shedder.crossed(self._active / self.max_active)
        if transition is not None:
            self.stats.overload_transitions += 1
            if obs.EVENTS is not None:
                obs.EVENTS.emit("proxy.overload", edge=transition, active=self._active)
            if transition == "exit" and obs.FLIGHT is not None:
                # The overload episode is over: re-arm the shed trigger so
                # the *next* storm produces its own dump.
                obs.FLIGHT.recover("overload")

    def snapshot(self) -> dict[str, object]:
        """Aggregate server + ladder state for reports and the CLI.

        Includes the full overload/ladder tally (shed, step-downs,
        watermark transitions, shedder stats) plus — when the ops layer or
        flight recorder are enabled — live latency percentiles and flight
        state, so ``serve-*.json`` artifacts show degradation, not just
        verdict counts.
        """
        report: dict[str, object] = dict(self.stats.as_dict())
        report["active"] = self._active
        report["max_active"] = self.max_active
        report["verdict_window"] = self.stats.verdict_counts()
        report["ladder"] = self.ladder.health_snapshot()
        if self.shedder is not None:
            report["shedder"] = self.shedder.stats()
        ops = obs.OPS
        if ops is not None:
            report["latency"] = ops.latency_summaries(prefix="proxy.")
        flight = obs.FLIGHT
        if flight is not None:
            report["flight"] = flight.stats()
        return report


# ----------------------------------------------------------------------
# client-side helpers (tests, --selfcheck, external scripts)
# ----------------------------------------------------------------------
async def request_verdict(host: str, port: int, payload: bytes) -> dict:
    """One protocol round-trip: send *payload*, EOF, read the verdict line."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        if writer.can_write_eof():
            writer.write_eof()
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    if not line:
        raise ConnectionError("proxy closed the connection without a verdict")
    return json.loads(line)


async def drive_clients(
    host: str,
    port: int,
    payloads: list[bytes],
    concurrency: int = 64,
    on_verdict: "Callable[[int, dict], None] | None" = None,
) -> list[dict]:
    """Run every payload through the proxy with bounded concurrency.

    Returns the verdicts in payload order.  This is the loop behind
    ``liberate serve --selfcheck`` and the CI proxy-smoke job.

    The driver's footprint is bounded by *concurrency*, not by the payload
    count: at most *concurrency* connection coroutines exist at any moment
    (a worker pool over a shared iterator, not one task per payload).  With
    *on_verdict* set, each ``(index, verdict)`` is handed to the callback
    as it completes and **not** accumulated — the return value is an empty
    list — so a million-flow smoke run keeps O(concurrency) driver state.
    """
    if on_verdict is None:
        results: list[dict | None] = [None] * len(payloads)
    else:
        results = []
    jobs = iter(enumerate(payloads))

    async def worker() -> None:
        # Plain shared iterator: next() happens synchronously between
        # awaits, so each job is claimed by exactly one worker.
        for index, payload in jobs:
            verdict = await request_verdict(host, port, payload)
            if on_verdict is None:
                results[index] = verdict
            else:
                on_verdict(index, verdict)

    workers = max(1, min(concurrency, len(payloads)))
    await asyncio.gather(*(worker() for _ in range(workers)))
    return results  # type: ignore[return-value]
