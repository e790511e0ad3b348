"""The serve_mix workload: payload mix, in-process reference, load generator.

Payload mix.  A seeded set of distinct HTTP requests: matching Host (the
deployed environment's classified host), non-matching Host, and
bit-inverted matching requests in a 4:3:3 split, sized log-uniformly from
about 100 B to 64 KB.  A live flow is about 10 simulated packets whatever its size,
because the proxy judges the client payload as one segment: the mix varies
what the classifier sees and decides, not the scan length.

Reference.  Every verdict the server returns must equal
``ladder.run_flow(payload_trace(...))`` computed in the benchmark's own
process on a ladder deployed exactly as ``liberate serve`` deploys it.
Every flow in the mix evades on the first rung, so the ladder never steps
down and a verdict is a pure function of the payload, whatever the order in
which concurrent flows reach the server.

Load.  Open loop: request *i* is due at ``start + i / rate``; at most
``conns`` connections are in flight, a request waiting for a slot keeps
its due time, and its latency runs from the due time to the verdict line,
so a stall is charged to every request it delays.  Lateness (send time
minus due time) is reported.  A flow that errors or gets a wrong verdict
counts as failed, i.e. as missing any latency limit.  Closed loop:
``conns`` clients each send their next request when the previous verdict
arrives.
"""

from __future__ import annotations

import asyncio
import json
import math
import random

SERVE_ENV = "testbed"
MATCH_HOST = "video.example.com"
OTHER_HOSTS = ("cdn.example.net", "news.example.org", "mail.example.com")
#: Response body size of the deployed base trace (the CLI's ``--size`` default).
BASE_RESPONSE_BYTES = 2_000
DISTINCT_PAYLOADS = 48
MIN_BYTES, MAX_BYTES = 100, 64 * 1024
#: Verdict fields compared with the reference (``flow`` is a server counter).
VERDICT_KEYS = ("technique", "evaded", "differentiated", "delivered_ok", "rung")


def _request(host: str, size: int, rng: random.Random) -> bytes:
    head = f"GET /v/{rng.randrange(1 << 20):x} HTTP/1.1\r\nHost: {host}\r\nX-Pad: ".encode()
    tail = b"\r\n\r\n"
    return head + b"p" * max(0, size - len(head) - len(tail)) + tail


def make_mix(seed: int, flows: int) -> tuple[list[bytes], list[str], list[int]]:
    """(distinct payloads, their kinds, payload index of each flow).

    Sizes are the log-uniform quantiles and kinds come in fixed shares, and
    every run of ``DISTINCT_PAYLOADS`` consecutive flows sends each payload
    once: the seed decides hosts, paths, which size gets which kind and the
    order, while the bytes and kinds a run of whole rounds carries do not
    depend on it.
    """
    from repro.traffic.trace import invert_bits

    rng = random.Random(seed)
    sizes = [round(MIN_BYTES * (MAX_BYTES / MIN_BYTES) ** ((i + 0.5) / DISTINCT_PAYLOADS))
             for i in range(DISTINCT_PAYLOADS)]
    shares = {"match": 0.4, "other": 0.3}
    kinds = [kind for kind, share in shares.items() for _ in range(round(share * DISTINCT_PAYLOADS))]
    kinds += ["inverted"] * (DISTINCT_PAYLOADS - len(kinds))
    rng.shuffle(kinds)
    payloads = []
    for size, kind in zip(sizes, kinds):
        if kind == "other":
            payload = _request(rng.choice(OTHER_HOSTS), size, rng)
        else:
            payload = _request(MATCH_HOST, size, rng)
            if kind == "inverted":
                payload = invert_bits(payload)
        payloads.append(payload)
    order: list[int] = []
    while len(order) < flows:
        round_ = list(range(DISTINCT_PAYLOADS))
        rng.shuffle(round_)
        order += round_
    return payloads, kinds, order[:flows]


def reference(payloads: list[bytes]) -> tuple[list[dict], list[int]]:
    """Per payload: the expected verdict and its simulated packet count."""
    from repro.core.pipeline import Liberate
    from repro.core.proxy_server import payload_trace
    from repro.envs import ENVIRONMENT_FACTORIES
    from repro.netsim.path import packets_propagated
    from repro.traffic.http import http_get_trace

    env = ENVIRONMENT_FACTORIES[SERVE_ENV](faults=None)
    base = http_get_trace(MATCH_HOST, response_body=b"x" * BASE_RESPONSE_BYTES)
    ladder = Liberate(env, seed=None).deploy_ladder(base, window=5, failure_threshold=3)
    verdicts, packets = [], []
    for index, payload in enumerate(payloads):
        before = packets_propagated()
        outcome = ladder.run_flow(payload_trace(payload, f"ref-{index}", base.server_port))
        packets.append(packets_propagated() - before)
        verdicts.append(
            {
                "technique": outcome.technique,
                "evaded": outcome.evaded,
                "differentiated": outcome.differentiated,
                "delivered_ok": outcome.delivered_ok,
                "rung": ladder.rung,
            }
        )
    if ladder.step_downs:
        raise RuntimeError("the reference ladder stepped down; verdicts would depend on order")
    return verdicts, packets


async def request(port: int, payload: bytes) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
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
        raise ConnectionError("no verdict line")
    return json.loads(line)


class Generator:
    """Drives one server; tallies flows offered, failed and in flight."""

    def __init__(self, port: int, payloads: list[bytes], expected: list[dict], conns: int) -> None:
        self.port = port
        self.payloads = payloads
        self.expected = expected
        self.conns = conns
        self.offered = 0
        self.failed = 0
        self.errors: list[str] = []
        self.inflight = 0
        self.inflight_max = 0

    async def _one(self, index: int) -> bool:
        self.offered += 1
        self.inflight += 1
        self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            verdict = await request(self.port, self.payloads[index])
        except (OSError, ValueError) as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            return False
        finally:
            self.inflight -= 1
        got = {key: verdict.get(key) for key in VERDICT_KEYS}
        if got != self.expected[index]:
            self._fail(f"payload {index}: verdict {got} != reference {self.expected[index]}")
            return False
        return True

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    async def open_loop(self, order: list[int], rate: float) -> tuple[list[float], list[float]]:
        """Per flow in due order: latency from due time (inf if failed), lateness."""
        loop = asyncio.get_running_loop()
        slots = asyncio.Semaphore(self.conns)
        latencies = [math.inf] * len(order)
        lateness: list[float] = []
        pending: set[asyncio.Task] = set()
        crashed: list[BaseException] = []

        def finished(task: asyncio.Task) -> None:
            pending.discard(task)
            if not task.cancelled() and task.exception() is not None:
                crashed.append(task.exception())

        async def flow(i: int, index: int, due: float) -> None:
            try:
                if await self._one(index):
                    latencies[i] = loop.time() - due
            finally:
                slots.release()

        start = loop.time() + 0.01
        for i, index in enumerate(order):
            due = start + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await slots.acquire()
            lateness.append(max(0.0, loop.time() - due))
            task = asyncio.create_task(flow(i, index, due))
            pending.add(task)
            task.add_done_callback(finished)
        await asyncio.gather(*pending)
        if crashed:
            raise crashed[0]
        return latencies, lateness

    async def closed_loop(self, order: list[int]) -> tuple[float, list[float]]:
        """Wall seconds for ``conns`` clients to complete every flow in *order*,
        and each flow's latency (inf if it failed)."""
        loop = asyncio.get_running_loop()
        jobs = iter(order)
        latencies: list[float] = []

        async def client() -> None:
            for index in jobs:
                sent = loop.time()
                ok = await self._one(index)
                latencies.append(loop.time() - sent if ok else math.inf)

        start = loop.time()
        await asyncio.gather(*(client() for _ in range(self.conns)))
        return loop.time() - start, latencies


async def scrape_metrics(port: int) -> dict[str, dict]:
    """The server's ``proxy.*`` latency histograms: stage -> {bounds, cumulative, sum, count}."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        await writer.drain()
        body = (await reader.read()).decode("utf-8", "replace")
    finally:
        writer.close()
    prefix = "liberate_ops_proxy_"
    histograms: dict[str, dict] = {}
    for line in body.splitlines():
        if not line.startswith(prefix):
            continue
        name, _, value = line[len(prefix):].rpartition(" ")
        if "_seconds_bucket{le=" in name:
            metric, _, bound = name.partition("_seconds_bucket{le=")
            entry = histograms.setdefault(metric, {"bounds": [], "cumulative": []})
            bound = bound.strip('"}')
            entry["bounds"].append(float("inf") if bound == "+Inf" else float(bound))
            entry["cumulative"].append(int(float(value)))
        elif name.endswith("_seconds_sum"):
            histograms.setdefault(name[: -len("_seconds_sum")], {"bounds": [], "cumulative": []})["sum"] = float(value)
        elif name.endswith("_seconds_count"):
            histograms.setdefault(name[: -len("_seconds_count")], {"bounds": [], "cumulative": []})["count"] = int(float(value))
    return histograms


def histogram_window(before: dict, after: dict, metric: str) -> dict:
    """Bucket counts, sum and count recorded between two scrapes."""
    new = after[metric]
    old = before.get(metric, {"cumulative": [0] * len(new["cumulative"]), "sum": 0.0, "count": 0})
    cumulative = [a - b for a, b in zip(new["cumulative"], old["cumulative"])]
    return {
        "bounds": new["bounds"],
        "cumulative": cumulative,
        "sum": new.get("sum", 0.0) - old.get("sum", 0.0),
        "count": new.get("count", 0) - old.get("count", 0),
    }


def histogram_quantile(hist: dict, q: float) -> float:
    """Quantile *q* (0-1) from cumulative log buckets, interpolated geometrically."""
    total = hist["cumulative"][-1] if hist["cumulative"] else 0
    if total == 0:
        return 0.0
    target = q * total
    lower_bound, lower_count = 0.0, 0
    for bound, count in zip(hist["bounds"], hist["cumulative"]):
        if count >= target:
            if bound == float("inf"):
                return lower_bound
            if lower_bound <= 0 or count == lower_count:
                return bound
            frac = (target - lower_count) / (count - lower_count)
            return lower_bound * (bound / lower_bound) ** frac
        lower_bound, lower_count = bound, count
    return lower_bound
