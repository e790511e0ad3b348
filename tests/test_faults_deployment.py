"""Graceful degradation: the deployment fallback ladder."""

from __future__ import annotations

import pytest

from repro.core.deployment import FallbackLadder
from repro.core.evasion.base import EvasionContext, EvasionTechnique
from repro.core.pipeline import Liberate
from repro.envs import make_testbed
from repro.traffic.http import http_get_trace

pytestmark = pytest.mark.chaos


class BrokenTechnique(EvasionTechnique):
    """Sends the flow untouched — the classifier always catches it."""

    name = "broken-noop"
    category = "inert-insertion"
    protocol = "tcp"

    def apply(self, runner):
        runner.send_default()


class InertTTL(EvasionTechnique):
    """A known-working technique on the testbed (TTL-limited inert packet)."""

    name = "working-ttl"
    category = "inert-insertion"
    protocol = "tcp"

    def apply(self, runner):
        from repro.endpoint.rawclient import SegmentPlan

        ctx = runner.context
        runner.send_inert(
            SegmentPlan(payload=runner.inert_payload(32), ttl=ctx.ttl_to_reach_classifier())
        )
        runner.send_default()


@pytest.fixture
def trace():
    return http_get_trace("video.example.com", response_body=b"v" * 600)


def _context(env):
    return EvasionContext(protocol="tcp", middlebox_hops=env.hops_to_middlebox)


class TestFallbackLadder:
    def test_rejects_empty_ladder(self):
        env = make_testbed()
        with pytest.raises(ValueError, match="at least one"):
            FallbackLadder(env, [], _context(env))

    def test_rejects_threshold_outside_window(self):
        env = make_testbed()
        with pytest.raises(ValueError, match="within the window"):
            FallbackLadder(env, [InertTTL()], _context(env), window=3, failure_threshold=4)

    def test_healthy_technique_never_steps_down(self, trace):
        env = make_testbed()
        ladder = FallbackLadder(env, [InertTTL(), BrokenTechnique()], _context(env))
        for _ in range(8):
            outcome = ladder.run_flow(trace)
            assert outcome.evaded
        assert ladder.rung == 0
        assert ladder.step_downs == []
        assert not ladder.exhausted

    def test_broken_technique_steps_down_to_working_one(self, trace):
        env = make_testbed()
        ladder = FallbackLadder(
            env,
            [BrokenTechnique(), InertTTL()],
            _context(env),
            window=5,
            failure_threshold=3,
        )
        for _ in range(10):
            ladder.run_flow(trace)
        assert ladder.rung == 1
        assert ladder.active_technique.name == "working-ttl"
        (step,) = ladder.step_downs
        assert step.from_technique == "broken-noop"
        assert step.to_technique == "working-ttl"
        assert step.failures_in_window >= 3
        # After the step-down the working rung keeps every flow healthy.
        assert ladder.run_flow(trace).evaded
        assert not ladder.exhausted

    def test_exhaustion_is_flagged_but_flows_continue(self, trace):
        env = make_testbed()
        ladder = FallbackLadder(
            env,
            [BrokenTechnique()],
            _context(env),
            window=3,
            failure_threshold=2,
        )
        for _ in range(6):
            ladder.run_flow(trace)
        assert ladder.exhausted
        assert ladder.step_downs[-1].to_technique is None
        assert ladder.flows_handled == 6  # kept running best-effort
        assert ladder.active_technique.name == "broken-noop"

    def test_health_snapshot_reports_state(self, trace):
        env = make_testbed()
        ladder = FallbackLadder(env, [InertTTL()], _context(env))
        ladder.run_flow(trace)
        snapshot = ladder.health_snapshot()
        assert snapshot["active_technique"] == "working-ttl"
        assert snapshot["flows_handled"] == 1
        assert snapshot["recent_failures"] == 0
        assert snapshot["exhausted"] is False


class TestDeployLadder:
    def test_pipeline_builds_ranked_ladder(self, trace):
        env = make_testbed()
        lib = Liberate(env)
        ladder = lib.deploy_ladder(trace)
        report = lib.last_report
        working = {r.technique for r in report.evasion.working()}
        assert [t.name for t in ladder.techniques] and set(
            t.name for t in ladder.techniques
        ) == working
        # Ranked cheapest-first: the first rung is the single-deploy choice.
        assert ladder.techniques[0].name == report.evasion.best().technique
        outcome = ladder.run_flow(trace)
        assert outcome.evaded
        assert ladder.step_downs == []

    def test_deploy_ladder_raises_without_working_technique(self, trace):
        from repro.envs import make_att

        env = make_att()
        lib = Liberate(env)
        with pytest.raises(RuntimeError, match="no working evasion technique"):
            lib.deploy_ladder(
                http_get_trace("video.nbcsports.com", response_body=b"v" * 600)
            )
