"""Live serving + the ops endpoint under concurrent load.

The acceptance claims from the operational-observability work: while the
proxy is actively serving, ``/metrics`` answers valid Prometheus text
exposition, ``/healthz`` flips ok→degraded the moment shedding starts, a
forced shed episode produces exactly one flight-recorder dump readable by
the trace analyzer, and the selfcheck CLI surfaces p50/p99 verdict
latency.
"""

import asyncio
import json
import re

import pytest

from repro import obs
from repro.cli.main import main as cli_main
from repro.core.pipeline import Liberate
from repro.core.proxy_server import ProxyServer, drive_clients, request_verdict
from repro.envs import ENVIRONMENT_FACTORIES
from repro.middlebox.overload import OverloadPolicy
from repro.obs import ops as obs_ops
from repro.obs.analyze import TraceIndex
from repro.obs.flight import FlightRecorder
from repro.obs.ops import OpsServer, http_get
from repro.traffic.http import http_get_trace

pytestmark = pytest.mark.obs


def make_ladder(window: int = 5, failure_threshold: int = 3):
    env = ENVIRONMENT_FACTORIES["testbed"]()
    base = http_get_trace("video.example.com", response_body=b"x" * 800)
    ladder = Liberate(env).deploy_ladder(
        base, window=window, failure_threshold=failure_threshold
    )
    return ladder, base


async def _serve_with_ops(server, ops_server, coroutine):
    await server.start()
    await ops_server.start()
    try:
        return await coroutine()
    finally:
        await ops_server.stop()
        await server.stop()


_SAMPLE_LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE+.\-]+$")


class TestOpsEndpointUnderLoad:
    def test_metrics_healthz_statusz_respond_mid_serve(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        ops_server = OpsServer(server)
        payloads = [base.client_payloads()[0]] * 48

        with obs.installed(OPS=obs_ops.OpsRegistry()):

            async def drive():
                driver = asyncio.ensure_future(
                    drive_clients(
                        "127.0.0.1", server.bound_port, payloads, concurrency=16
                    )
                )
                # Scrape all three surfaces while the driver is in flight.
                health_code, health_body = await http_get(
                    "127.0.0.1", ops_server.bound_port, "/healthz"
                )
                metrics_code, metrics_body = await http_get(
                    "127.0.0.1", ops_server.bound_port, "/metrics"
                )
                status_code, status_body = await http_get(
                    "127.0.0.1", ops_server.bound_port, "/statusz"
                )
                verdicts = await driver
                return (
                    (health_code, health_body),
                    (metrics_code, metrics_body),
                    (status_code, status_body),
                    verdicts,
                )

            health, metrics, statusz, verdicts = asyncio.run(
                _serve_with_ops(server, ops_server, drive)
            )

        assert len(verdicts) == len(payloads)
        assert health[0] == 200
        assert json.loads(health[1])["status"] == "ok"
        assert metrics[0] == 200
        for line in metrics[1].splitlines():
            if line and not line.startswith("#"):
                assert _SAMPLE_LINE.match(line), line
        status = json.loads(statusz[1])
        assert status["stats"]["flows"] >= 1
        assert status["health"]["status"] == "ok"
        assert "ops" in status

    def test_metrics_exposes_verdict_latency_after_load(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        ops_server = OpsServer(server)
        payloads = [base.client_payloads()[0]] * 20

        registry = obs_ops.OpsRegistry()
        with obs.installed(OPS=registry):

            async def drive():
                await drive_clients("127.0.0.1", server.bound_port, payloads)
                return await http_get("127.0.0.1", ops_server.bound_port, "/metrics")

            _code, body = asyncio.run(_serve_with_ops(server, ops_server, drive))
            assert registry.recorder("proxy.verdict").count == len(payloads)

        assert f"liberate_ops_proxy_verdict_seconds_count {len(payloads)}" in body
        assert 'liberate_ops_proxy_verdict_seconds_bucket{le="+Inf"}' in body

    def test_unknown_route_404_and_non_get_405(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        ops_server = OpsServer(server)

        async def drive():
            code, _body = await http_get("127.0.0.1", ops_server.bound_port, "/nope")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ops_server.bound_port
            )
            writer.write(b"POST /metrics HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return code, raw

        not_found, post_raw = asyncio.run(_serve_with_ops(server, ops_server, drive))
        assert not_found == 404
        assert b"405" in post_raw.split(b"\r\n", 1)[0]


class TestHealthFlipsDegraded:
    def test_healthz_flips_ok_to_degraded_when_shedding_starts(self):
        ladder, base = make_ladder()
        server = ProxyServer(
            ladder,
            server_port=base.server_port,
            max_active=4,
            overload=OverloadPolicy(shed_start=0.25, shed_max=1.0),
        )
        ops_server = OpsServer(server)
        payloads = [base.client_payloads()[0]] * 48

        with obs.installed(OPS=obs_ops.OpsRegistry()):

            async def drive():
                before_code, before_body = await http_get(
                    "127.0.0.1", ops_server.bound_port, "/healthz"
                )
                await drive_clients(
                    "127.0.0.1", server.bound_port, payloads, concurrency=48
                )
                after_code, after_body = await http_get(
                    "127.0.0.1", ops_server.bound_port, "/healthz"
                )
                return before_code, before_body, after_code, after_body

            before_code, before_body, after_code, after_body = asyncio.run(
                _serve_with_ops(server, ops_server, drive)
            )

        assert before_code == 200
        assert json.loads(before_body)["status"] == "ok"
        assert server.stats.shed > 0, "the overload run must actually shed"
        after = json.loads(after_body)
        assert after["status"] in ("degraded", "unhealthy")
        assert after["shed_rate"] > 0
        assert any("shed" in reason for reason in after["reasons"])
        # degraded still answers 200 (a scraper must be able to read it);
        # only unhealthy turns the status code.
        if after["status"] == "degraded":
            assert after_code == 200
        else:
            assert after_code == 503

    def test_exhausted_ladder_is_unhealthy_503(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        ops_server = OpsServer(server)
        # Exhaust the ladder directly.
        ladder.rung = len(ladder.techniques)
        ladder.exhausted = True

        async def drive():
            return await http_get("127.0.0.1", ops_server.bound_port, "/healthz")

        code, body = asyncio.run(_serve_with_ops(server, ops_server, drive))
        assert ladder.exhausted
        assert code == 503
        assert json.loads(body)["status"] == "unhealthy"


class TestFlightEpisodesLive:
    def test_forced_shed_episode_dumps_exactly_once(self, tmp_path):
        ladder, base = make_ladder()
        server = ProxyServer(
            ladder,
            server_port=base.server_port,
            max_active=2,
            overload=OverloadPolicy(shed_start=0.1, shed_max=1.0),
        )
        payloads = [base.client_payloads()[0]] * 32

        recorder = FlightRecorder(tmp_path, sample_every=4)
        with obs.installed(FLIGHT=recorder):

            async def drive(srv):
                await srv.start()
                try:
                    await drive_clients(
                        "127.0.0.1", srv.bound_port, payloads, concurrency=32
                    )
                finally:
                    await srv.stop()

            asyncio.run(drive(server))
            stats = recorder.stats()

        assert server.stats.shed > 2, "storm must shed repeatedly"
        assert stats["dumps"] == 1, stats
        assert stats["suppressed_trips"] == server.stats.shed - 1
        dump = tmp_path / stats["dump_paths"][0].split("/")[-1]
        index = TraceIndex.load(str(dump))
        trips = index.query(kind="flight.trip")
        assert len(trips) == 1
        assert trips[0]["reason"] == "overload_shed"
        assert recorder.sample_every == 4

    def test_step_down_trips_its_own_episode(self, tmp_path):
        from tests.test_proxy_server import _KilledTechnique

        ladder, base = make_ladder(window=4, failure_threshold=2)
        server = ProxyServer(ladder, server_port=base.server_port)
        matching = base.client_payloads()[0]

        recorder = FlightRecorder(tmp_path, sample_every=1)
        with obs.installed(FLIGHT=recorder):

            async def drive(srv):
                await srv.start()
                try:
                    for _ in range(3):
                        await request_verdict("127.0.0.1", srv.bound_port, matching)
                    ladder.techniques[0] = _KilledTechnique(ladder.techniques[0])
                    for _ in range(6):
                        await request_verdict("127.0.0.1", srv.bound_port, matching)
                finally:
                    await srv.stop()

            asyncio.run(drive(server))
            stats = recorder.stats()

        assert server.stats.step_downs == 1
        assert stats["dumps"] == 1
        index = TraceIndex.load(stats["dump_paths"][0])
        trip = index.query(kind="flight.trip")[0]
        assert trip["reason"] == "step_down"
        assert trip["from_technique"] == ladder.step_downs[0].from_technique
        # The sampled flow records leading up to the anomaly survived.
        assert index.kinds().get("proxy.flow", 0) >= 3


class TestServeSelfcheckCLI:
    def test_selfcheck_reports_latency_and_ops_health(self, tmp_path, capsys):
        code = cli_main(
            [
                "serve",
                "--env",
                "testbed",
                "--selfcheck",
                "24",
                "--concurrency",
                "8",
                "--ops-port",
                "0",
                "--flight-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        verdict = report["latency"]["proxy.verdict"]
        assert verdict["count"] == 24
        assert 0 < verdict["p50_ms"] <= verdict["p99_ms"]
        assert report["ops"]["healthz"]["status"] == "ok"
        assert report["ops"]["healthz_status"] == 200
        assert report["ops"]["metrics_status"] == 200
        assert report["ops"]["metrics_series"] > 0
        assert report["verdicts_returned"] == 24
        # The full overload/ladder tally is in the selfcheck JSON now.
        for key in ("shed", "step_downs", "overload_transitions", "verdict_window"):
            assert key in report, key
        assert report["flight"]["offered"] == 24

    def test_selfcheck_no_flight_flag(self, capsys):
        code = cli_main(
            [
                "serve",
                "--env",
                "testbed",
                "--selfcheck",
                "4",
                "--concurrency",
                "2",
                "--no-flight",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "flight" not in report
        assert report["latency"]["proxy.verdict"]["count"] == 4
