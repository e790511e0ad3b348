"""Tests for the replay session/runner machinery itself."""

import pytest

from repro.core.evasion.base import EvasionContext
from repro.core.evasion.inert import WrongTCPChecksum
from repro.endpoint.rawclient import SegmentPlan
from repro.replay.session import ReplaySession
from repro.traffic.http import http_get_trace
from repro.traffic.stun import stun_trace


class TestOutcomeFields:
    def test_clean_replay_outcome(self, testbed, neutral_trace):
        outcome = ReplaySession(testbed, neutral_trace).run()
        assert outcome.delivered_ok
        assert outcome.server_response_ok
        assert not outcome.blocked
        assert outcome.rst_count == 0
        assert outcome.bytes_used == neutral_trace.total_bytes()
        assert outcome.payload_reached_server
        assert outcome.inert_reached_server is None  # nothing inert sent

    def test_evaded_property(self, testbed, neutral_trace):
        outcome = ReplaySession(testbed, neutral_trace).run()
        assert outcome.evaded  # trivially: no differentiation, intact delivery

    def test_udp_outcome(self, testbed, skype_trace):
        outcome = ReplaySession(testbed, skype_trace).run()
        assert outcome.delivered_ok
        assert outcome.server_response_ok

    def test_ports_unique_across_sessions(self, testbed, neutral_trace):
        s1 = ReplaySession(testbed, neutral_trace)
        s2 = ReplaySession(testbed, neutral_trace)
        s1.run()
        s2.run()
        assert s1.sport != s2.sport

    def test_server_port_override(self, testbed, neutral_trace):
        session = ReplaySession(testbed, neutral_trace, server_port=9999)
        session.run()
        assert session.server_port == 9999

    def test_technique_name_recorded(self, testbed, classified_trace):
        class _Named:
            name = "my-technique"

            def apply(self, runner):
                runner.send_default()

        outcome = ReplaySession(testbed, classified_trace).run(technique=_Named())
        assert outcome.technique == "my-technique"


class TestRunnerPrimitives:
    def make_runner(self, testbed, trace):
        session = ReplaySession(testbed, trace)

        captured = {}

        class _Capture:
            name = "capture"

            def apply(self, runner):
                captured["runner"] = runner
                runner.send_default()

        session.run(technique=_Capture())
        return captured["runner"]

    def test_overhead_accounting_for_inert(self, testbed, classified_trace):
        class _OneInert:
            name = "one-inert"

            def apply(self, runner):
                runner.send_inert(SegmentPlan(payload=runner.inert_payload(32)))
                runner.send_default()

        outcome = ReplaySession(testbed, classified_trace).run(technique=_OneInert())
        assert outcome.overhead_packets == 1
        assert outcome.overhead_bytes > 32

    def test_pause_accounting(self, testbed, neutral_trace):
        class _Pause:
            name = "pause"

            def apply(self, runner):
                runner.pause(33.0)
                runner.send_default()

        outcome = ReplaySession(testbed, neutral_trace).run(technique=_Pause())
        assert outcome.overhead_seconds == 33.0
        assert outcome.elapsed >= 33.0

    def test_inert_marker_uniqueness(self, testbed, neutral_trace):
        runner = self.make_runner(testbed, neutral_trace)
        first = runner.inert_payload(64, "x")
        second = runner.inert_payload(64, "x")
        assert first != second
        assert len(first) == len(second) == 64

    def test_rerun_of_inert_technique_sends_identical_bytes(self, testbed, classified_trace):
        """Markers are numbered per replay, not per process."""
        sent = []

        class _Recorded(WrongTCPChecksum):
            def apply(self, runner):
                super().apply(runner)
                sent.append(runner.inert_markers)

        context = EvasionContext(protocol="tcp", inert_packet_count=2)
        outcomes = [
            ReplaySession(testbed, classified_trace).run(technique=_Recorded(), context=context)
            for _ in range(2)
        ]
        assert len(sent[0]) == 2 and sent[0][0] != sent[0][1]
        assert sent[0] == sent[1]
        assert outcomes[0].inert_reached_server == outcomes[1].inert_reached_server

    def test_send_pieces_preserves_stream(self, testbed, neutral_trace):
        class _Pieces:
            name = "pieces"

            def apply(self, runner):
                message = runner.client_messages[0]
                runner.send_pieces([(0, message[:10]), (10, message[10:])])

        outcome = ReplaySession(testbed, neutral_trace).run(technique=_Pieces())
        assert outcome.delivered_ok

    def test_tcp_helpers_reject_udp(self, testbed, skype_trace):
        class _Wrong:
            name = "wrong"

            def apply(self, runner):
                runner.send_message(b"x")

        with pytest.raises(TypeError):
            ReplaySession(testbed, skype_trace).run(technique=_Wrong())

    def test_tolerate_prefix_mode(self, testbed, classified_trace):
        """Bilateral deployment: dummy prefix byte plus server support (§6.5)."""

        class _DummyPrefix:
            name = "dummy-prefix"

            def apply(self, runner):
                runner.send_message(b"X")
                runner.send_default()

        outcome = ReplaySession(testbed, classified_trace, tolerate_prefix=True).run(
            technique=_DummyPrefix()
        )
        assert not outcome.differentiated  # the anchor broke
        assert outcome.delivered_ok  # the server skipped the prefix
