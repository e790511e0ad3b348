"""Tests for QUIC traffic (§6.2 footnote 10, §6.5)."""

from repro.replay.session import ReplaySession
from repro.traffic.quic import is_quic_initial, quic_initial, quic_video_trace


class TestQUICGeneration:
    def test_initial_is_recognizable(self):
        assert is_quic_initial(quic_initial())

    def test_non_quic_rejected(self):
        assert not is_quic_initial(b"GET / HTTP/1.1")
        assert not is_quic_initial(b"")

    def test_initial_padded(self):
        assert len(quic_initial()) >= 1100

    def test_payload_is_opaque(self):
        """No plaintext keywords — the point of QUIC vs. DPI."""
        packet = quic_initial()
        for keyword in (b"googlevideo", b"youtube", b"GET", b"Host"):
            assert keyword not in packet

    def test_deterministic(self):
        assert quic_initial(seed=5) == quic_initial(seed=5)
        assert quic_initial(seed=5) != quic_initial(seed=6)

    def test_trace_shape(self):
        trace = quic_video_trace(total_bytes=20_000)
        assert trace.protocol == "udp"
        assert trace.server_port == 443
        assert sum(len(p) for p in trace.server_payloads()) >= 20_000


class TestQUICEscapesClassifiers:
    def test_tmobile_does_not_classify_quic(self, tmobile):
        """§6.2: YouTube over QUIC is neither classified nor zero-rated."""
        outcome = ReplaySession(tmobile, quic_video_trace(total_bytes=250_000)).run()
        assert not outcome.differentiated
        assert outcome.delivered_ok
        assert tmobile.dpi().match_log == []

    def test_gfc_does_not_classify_quic(self, gfc):
        """§6.5: "users can view otherwise censored content ... simply by
        using the QUIC protocol"."""
        outcome = ReplaySession(gfc, quic_video_trace(total_bytes=30_000)).run()
        assert not outcome.differentiated
        assert outcome.rst_count == 0
        assert outcome.delivered_ok

    def test_testbed_stun_rule_ignores_quic(self, testbed):
        outcome = ReplaySession(testbed, quic_video_trace(total_bytes=30_000)).run()
        assert not outcome.differentiated
