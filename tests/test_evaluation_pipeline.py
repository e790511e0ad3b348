"""Tests for phase 3 (evaluation), phase 4 (deployment) and the pipeline."""

import pytest

from repro.core.cache import RuleCache
from repro.core.evaluation import EvasionEvaluator
from repro.core.evasion.base import EvasionContext
from repro.core.pipeline import Liberate
from repro.core.report import MatchingField
from repro.envs.gfc import make_gfc
from repro.envs.testbed import make_testbed
from repro.traffic.http import http_get_trace

from tests.test_evasion_techniques import context_for


class TestEvaluatorPlan:
    def test_inert_first_for_match_and_forget(self, testbed, classified_trace):
        ctx = context_for(testbed, classified_trace, b"video.example.com")
        plan = EvasionEvaluator(testbed, classified_trace, ctx).plan()
        # previously-effective techniques lead, then inert insertion
        assert plan[0].name == "ip-low-ttl"
        categories = [t.category for t in plan]
        assert categories.index("inert-insertion") < categories.index("flushing")

    def test_inspect_all_prunes_inert_and_flushing(self, iran, iran_trace):
        ctx = context_for(iran, iran_trace, b"facebook.com", inspects_all_packets=True)
        plan = EvasionEvaluator(iran, iran_trace, ctx).plan()
        assert plan
        assert all(t.category in ("splitting", "reordering") for t in plan)

    def test_protocol_filtering(self, testbed, skype_trace):
        ctx = EvasionContext(protocol="udp", middlebox_hops=0)
        plan = EvasionEvaluator(testbed, skype_trace, ctx).plan()
        assert all(t.protocol in ("udp", "any") for t in plan)


class TestEvaluatorRun:
    def test_testbed_finds_many_working(self, testbed, classified_trace):
        ctx = context_for(testbed, classified_trace, b"video.example.com")
        report = EvasionEvaluator(testbed, classified_trace, ctx).run()
        assert len(report.working()) >= 10
        assert report.best() is not None

    def test_stop_at_first(self, testbed, classified_trace):
        ctx = context_for(testbed, classified_trace, b"video.example.com")
        report = EvasionEvaluator(
            testbed, classified_trace, ctx, stop_at_first=True
        ).run()
        assert len(report.results) == 1
        assert report.results[0].evaded

    def test_best_prefers_cheap(self, testbed, classified_trace):
        ctx = context_for(testbed, classified_trace, b"video.example.com")
        report = EvasionEvaluator(testbed, classified_trace, ctx).run()
        best = report.best()
        assert best.overhead_seconds == 0  # flushing never beats packet tricks

    def test_gfc_port_rotation_during_evaluation(self, censored_trace):
        gfc = make_gfc()
        ctx = context_for(gfc, censored_trace, b"GET", b"economist.com")
        report = EvasionEvaluator(gfc, censored_trace, ctx).run()
        # Without rotation the residual blocking would poison later tests;
        # with it, the known-good techniques still come out working.
        working = {r.technique for r in report.working()}
        assert "ip-low-ttl" in working
        assert "flush-rst-before-match" in working
        assert "tcp-segment-split" not in working


class TestPipeline:
    def test_full_run_testbed(self, classified_trace):
        lib = Liberate(make_testbed())
        report = lib.run(classified_trace)
        assert report.detection.content_based
        assert report.characterization is not None
        assert report.evasion is not None
        assert report.deployed_technique is not None
        assert "lib*erate report" in report.summary()

    def test_no_differentiation_short_circuits(self, sprint, video_trace):
        report = Liberate(sprint).run(video_trace)
        assert not report.detection.differentiated
        assert report.characterization is None
        assert report.evasion is None

    def test_localization_feeds_context(self, classified_trace):
        lib = Liberate(make_testbed(), stop_at_first=True)
        report = lib.run(classified_trace)
        assert any("hop" in note for note in report.characterization.notes)

    def test_deploy_returns_proxy(self, classified_trace):
        lib = Liberate(make_testbed(), stop_at_first=True)
        proxy = lib.deploy(classified_trace)
        outcome = proxy.run_flow(classified_trace)
        assert outcome.evaded
        assert proxy.flows_handled == 1
        assert not proxy.rule_change_detected

    def test_deploy_without_working_technique_raises(self, att):
        from repro.traffic.video import video_stream_trace

        trace = video_stream_trace(host="video.nbcsports.com", total_bytes=200_000)
        lib = Liberate(att, stop_at_first=True)
        with pytest.raises(RuntimeError):
            lib.deploy(trace)


class TestRuntimeAdaptation:
    def test_rule_change_triggers_readaptation(self, classified_trace):
        """§4.2: when a deployed technique stops working, lib·erate
        re-characterizes and swaps the technique."""
        env = make_testbed()
        lib = Liberate(env, stop_at_first=True)
        proxy = lib.deploy(classified_trace)
        first_technique = proxy.technique.name

        # The operator "fixes" the classifier: switch to Iran-style
        # stateless per-packet matching, which no inert packet can fool.
        dpi = env.dpi()
        dpi.reconfigure(track_flows=False, match_and_forget=False, require_protocol_anchor=False)

        outcome = proxy.run_flow(classified_trace)
        # the old technique failed once, triggering re-adaptation...
        assert outcome.differentiated or proxy.technique.name != first_technique
        # ...and the next flow evades again with the new technique
        followup = proxy.run_flow(classified_trace)
        assert followup.evaded


class TestRuleCache:
    def test_cache_roundtrip(self, testbed, classified_trace):
        from repro.core.characterization import Characterizer

        report = Characterizer(testbed, classified_trace).run()
        cache = RuleCache()
        cache.put("testbed", classified_trace.name, report)
        restored = RuleCache.from_json(cache.to_json())
        entry = restored.get("testbed", classified_trace.name)
        assert entry is not None
        assert [f.content for f in entry.matching_fields] == [
            f.content for f in report.matching_fields
        ]
        assert entry.packet_limit == report.packet_limit

    def test_cache_skips_characterization(self, classified_trace):
        cache = RuleCache()
        first = Liberate(make_testbed(), cache=cache, stop_at_first=True)
        first.run(classified_trace)
        assert cache.misses == 1 and len(cache) == 1

        second = Liberate(make_testbed(), cache=cache, stop_at_first=True)
        report = second.run(classified_trace)
        assert cache.hits == 1
        assert report.characterization is not None

    def test_invalidate(self):
        from repro.core.report import CharacterizationReport

        cache = RuleCache()
        cache.put("net", "app", CharacterizationReport())
        cache.invalidate("net", "app")
        assert cache.get("net", "app") is None

    def test_save_load(self, tmp_path):
        from repro.core.report import CharacterizationReport, MatchingField

        cache = RuleCache()
        cache.put(
            "net",
            "app",
            CharacterizationReport(
                matching_fields=[MatchingField(0, 1, 4, b"abc")], packet_limit=3
            ),
        )
        target = tmp_path / "cache.json"
        cache.save(target)
        restored = RuleCache.load(target)
        assert restored.get("net", "app").matching_fields[0].content == b"abc"


class TestMasquerade:
    def test_masquerade_as_zero_rated(self, tmobile):
        """§7: a neutral flow gains Binge On treatment via an inert packet."""
        from repro.core.masquerade import MasqueradeAsClass, masquerade_outcome_is_favored
        from repro.replay.session import ReplaySession
        from repro.traffic.http import http_request
        from repro.traffic.video import video_stream_trace

        neutral = video_stream_trace(host="not-zero-rated.org", total_bytes=250_000, name="n")
        baseline = ReplaySession(tmobile, neutral).run()
        assert not baseline.zero_rated

        favored_payload = http_request("d1.cloudfront.net", "/video.mp4")
        technique = MasqueradeAsClass(favored_payload)
        ctx = EvasionContext(middlebox_hops=tmobile.hops_to_middlebox, protocol="tcp")
        outcome = ReplaySession(tmobile, neutral).run(technique=technique, context=ctx)
        assert masquerade_outcome_is_favored(outcome)

    def test_masquerade_requires_payload(self):
        from repro.core.masquerade import MasqueradeAsClass

        with pytest.raises(ValueError):
            MasqueradeAsClass(b"")
