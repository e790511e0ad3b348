"""Live serving benchmark: flows/second and verdict-latency percentiles.

Drives a burst of concurrent loopback flows through the asyncio proxy with
the ops layer enabled — exactly the ``liberate serve`` configuration — and
records wall-clock throughput plus the p50/p99 end-to-end verdict latency
into ``BENCH_serve.json``.  The watchdog tracks ``verdict_p99_ms`` with a
wide band (:data:`repro.obs.history.LATENCY_THRESHOLD`): tail latency on a
shared runner is noisy, but an order-of-magnitude serving regression is
not.
"""

from __future__ import annotations

import asyncio

from conftest import BenchProbe, save_bench_json

from repro import obs
from repro.core.pipeline import Liberate
from repro.core.proxy_server import ProxyServer, drive_clients
from repro.envs import ENVIRONMENT_FACTORIES
from repro.obs import ops as obs_ops
from repro.obs.flight import FlightRecorder
from repro.traffic.http import http_get_trace

FLOWS = 400
CONCURRENCY = 64


def test_bench_serve(results_dir):
    env = ENVIRONMENT_FACTORIES["testbed"]()
    base = http_get_trace("video.example.com", response_body=b"x" * 800)
    ladder = Liberate(env).deploy_ladder(base, window=5, failure_threshold=3)
    server = ProxyServer(ladder, server_port=base.server_port)
    payloads = [base.client_payloads()[0]] * FLOWS

    registry = obs_ops.OpsRegistry()
    flight = FlightRecorder(out_dir=str(results_dir))  # idle: serving config
    with obs.installed(OPS=registry, FLIGHT=flight):

        async def drive() -> None:
            await server.start()
            try:
                await drive_clients(
                    "127.0.0.1",
                    server.bound_port,
                    payloads,
                    concurrency=CONCURRENCY,
                    on_verdict=lambda _i, _v: None,
                )
            finally:
                await server.stop()

        with BenchProbe() as probe:
            asyncio.run(drive())

    verdict = registry.recorder("proxy.verdict")
    assert verdict is not None and verdict.count == FLOWS
    assert server.stats.evaded == FLOWS
    save_bench_json(
        results_dir,
        "serve",
        probe,
        flows=FLOWS,
        flows_per_second=round(FLOWS / probe.seconds, 1),
        verdict_p50_ms=round(verdict.percentile(50) * 1000, 3),
        verdict_p99_ms=round(verdict.percentile(99) * 1000, 3),
    )
