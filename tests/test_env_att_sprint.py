"""AT&T and Sprint environment behaviour (§6.3, §6.4)."""

import pytest

from repro.envs import make_att
from repro.replay.session import ReplaySession
from repro.traffic.video import video_stream_trace


def att_video(port=80, name=None):
    return video_stream_trace(
        host="video.nbcsports.com",
        total_bytes=300_000,
        server_port=port,
        name=name or f"nbc-{port}",
    )


class TestStreamSaver:
    @pytest.fixture(scope="class")
    def baseline(self):
        """One baseline replay of the 300 KB video, shared by the tests reading it."""
        att = make_att()
        return att, ReplaySession(att, att_video()).run()

    def test_http_video_throttled_to_1_5mbps(self, baseline):
        _att, outcome = baseline
        assert outcome.differentiated
        assert outcome.throughput_bps == pytest.approx(1_500_000, rel=0.15)

    def test_delivery_intact_through_proxy(self, baseline):
        _att, outcome = baseline
        assert outcome.delivered_ok and outcome.server_response_ok

    def test_proxy_buffers_only_scan_windows(self, baseline):
        """The proxy keeps per connection only the bytes a keyword could still
        span, not the 300 KB response it streamed."""
        att, _outcome = baseline
        proxy = att.middlebox
        connections = list(proxy._connections.values())
        keywords = proxy.client_keywords + proxy.server_keywords
        window = max(4, max(map(len, keywords)) - 1)
        held = sum(len(conn.client_buffer) + len(conn.server_buffer) for conn in connections)
        assert connections and held <= len(connections) * window

    def test_port_change_evades(self, att):
        """Stream Saver only proxies port 80 — the paper's trivial escape."""
        outcome = ReplaySession(att, att_video(port=8443)).run()
        assert not outcome.differentiated
        assert outcome.throughput_bps > 5_000_000

    def test_non_video_content_not_throttled(self, att):
        from repro.traffic.http import http_get_trace

        trace = http_get_trace(
            "video.nbcsports.com", response_body=b"<html>" + b"t" * 200_000
        )
        outcome = ReplaySession(att, trace).run()
        assert not outcome.differentiated

    def test_hops_ground_truth(self, att):
        assert att.hops_to_middlebox == 2


class TestSprint:
    def test_video_full_speed(self, sprint):
        outcome = ReplaySession(sprint, att_video()).run()
        assert not outcome.differentiated
        assert outcome.throughput_bps > 5_000_000

    def test_inverted_same_treatment(self, sprint):
        original = ReplaySession(sprint, att_video()).run()
        inverted = ReplaySession(sprint, att_video(name="inv").inverted()).run()
        assert original.differentiated == inverted.differentiated is False

    def test_no_middlebox(self, sprint):
        assert sprint.middlebox is None
        assert sprint.dpi() is None
