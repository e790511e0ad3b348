"""Property tests (hypothesis) for the observability layer's invariants.

The flight recorder is only trustworthy if its events are *conservation
laws* of the simulator, not best-effort breadcrumbs:

* every injected packet produces exactly one ``hop.traverse`` event per
  hop it traversed (and one ``endpoint.deliver`` when nothing ate it);
* ``fault.drop`` events are exactly the injector's loss ledger
  (``lost + burst_lost + flap_dropped``);
* ``mbx.rule_match`` events agree with the middlebox's own match log and
  verdict bookkeeping;
* metrics counters (hop forwards and absorbs included) equal the
  independent trace-event tallies.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.evasion import ALL_TECHNIQUES
from repro.envs import make_testbed
from repro.experiments.table3 import run_table3
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.faults import (
    FaultElement,
    bursty_profile,
    chaos_profile,
    lossy_profile,
)
from repro.netsim.hop import RouterHop
from repro.netsim.path import Path
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.replay.session import ReplaySession
from repro.traffic.http import http_get_trace

pytestmark = pytest.mark.obs

CLIENT = "10.1.0.2"
SERVER = "203.0.113.50"

obs_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _packet(ident: int, payload: bytes = b"x", ttl: int = 64) -> IPPacket:
    segment = TCPSegment(
        sport=40_001,
        dport=80,
        seq=1 + ident,
        ack=1,
        flags=TCPFlags.ACK | TCPFlags.PSH,
        payload=payload,
    )
    return IPPacket(src=CLIENT, dst=SERVER, transport=segment, identification=ident, ttl=ttl)


class TestPacketConservation:
    @pytest.mark.property
    @obs_settings
    @given(
        n_hops=st.integers(min_value=1, max_value=5),
        idents=st.lists(
            st.integers(min_value=1, max_value=60_000),
            min_size=1,
            max_size=20,
            unique=True,
        ),
        ttl=st.one_of(st.integers(min_value=0, max_value=7), st.just(64)),
    )
    def test_each_packet_traverses_each_hop_exactly_once(self, n_hops, idents, ttl):
        clock = VirtualClock()
        hops = [RouterHop(f"r{i}") for i in range(n_hops)]
        path = Path(clock, list(hops))
        metrics, tracer = obs_metrics.MetricsRegistry(), obs_trace.FlowTracer()
        with obs.installed(METRICS=metrics, TRACER=tracer):
            for ident in idents:
                path.send_from_client(_packet(ident, ttl=ttl))
        traverses = tracer.events("hop.traverse")
        # A router absorbs a packet arriving with TTL <= 1, so a packet sent
        # with TTL <= n_hops stops at hop max(ttl, 1) and is answered with
        # ICMP Time Exceeded; anything higher crosses every hop.
        delivered = ttl > n_hops
        reached = n_hops if delivered else max(ttl, 1)
        for ident in idents:
            mine = [
                e for e in traverses
                if e.fields["src"] == CLIENT and e.fields["ident"] == ident
            ]
            # one traverse per hop reached, in hop order, TTL one lower each
            assert [e.fields["element"] for e in mine] == [h.name for h in hops[:reached]]
            assert [e.fields["ttl"] for e in mine] == [ttl - h for h in range(reached)]
            outs = [e.fields["out"] for e in mine]
            assert outs == [1] * (reached - 1) + [1 if delivered else 0]
        assert sum(e.fields["src"] == CLIENT for e in traverses) == len(idents) * reached
        to_server = [
            e.fields["ident"] for e in tracer.events("endpoint.deliver")
            if e.fields["endpoint"] == "server"
        ]
        assert sorted(to_server) == (sorted(idents) if delivered else [])
        assert len(tracer.events("hop.drop")) == (0 if delivered else len(idents))
        # the hop counters equal the traverse tallies, ICMP replies included
        assert metrics.counter("netsim.hop.forwarded") == sum(
            e.fields["out"] >= 1 for e in traverses
        )
        assert metrics.counter("netsim.hop.absorbed") == sum(
            e.fields["out"] == 0 for e in traverses
        )


class TestFaultLedger:
    @pytest.mark.property
    @obs_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        profile_factory=st.sampled_from([lossy_profile, bursty_profile, chaos_profile]),
        count=st.integers(min_value=20, max_value=200),
    )
    def test_drop_events_match_fault_ledger(self, seed, profile_factory, count):
        element = FaultElement(profile_factory(seed))
        clock = VirtualClock()
        ctx = TransitContext(
            clock=clock, inject_back=lambda p: None, inject_forward=lambda p: None
        )
        metrics, tracer = obs_metrics.MetricsRegistry(), obs_trace.FlowTracer()
        with obs.installed(METRICS=metrics, TRACER=tracer):
            for i in range(count):
                element.process(_packet(1 + i), Direction.CLIENT_TO_SERVER, ctx)
                clock.advance(0.05)
        stats = element.stats
        dropped = stats.lost + stats.burst_lost + stats.flap_dropped
        tally = tracer.tally()
        assert tally.get("fault.drop", 0) == dropped
        assert metrics.counter("faults.drop") == dropped
        assert tally.get("fault.duplicate", 0) == stats.duplicated
        corrupted = stats.corrupted + stats.header_corrupted
        assert tally.get("fault.corrupt", 0) == corrupted
        assert tally.get("fault.restart", 0) == stats.restarts
        assert metrics.counter("netsim.packets.corrupted") == corrupted


class TestRuleMatchAgreement:
    @pytest.mark.property
    @obs_settings
    @given(
        host=st.sampled_from(
            ["video.example.com", "music.example.com", "plain.example.org"]
        ),
        body=st.integers(min_value=1, max_value=900),
    )
    def test_rule_match_events_agree_with_middlebox(self, host, body):
        env = make_testbed()
        trace = http_get_trace(host, response_body=b"v" * body)
        tracer = obs_trace.FlowTracer()
        with obs.installed(TRACER=tracer):
            ReplaySession(env, trace).run()
        engine = env.middlebox
        matches = tracer.events("mbx.rule_match")
        assert len(matches) == len(engine.match_log)
        assert [e.fields["rule"] for e in matches] == [
            rule_name for _time, rule_name, _key in engine.match_log
        ]
        # every match event was followed by a verdict event for the same rule
        verdicts = tracer.events("mbx.verdict")
        matched_verdicts = [
            e.fields["verdict"] for e in verdicts if e.fields["reason"] == "rule-match"
        ]
        assert matched_verdicts == [e.fields["rule"] for e in matches]


class TestMetricsAgreeWithTrace:
    @pytest.mark.property
    @obs_settings
    @given(
        technique=st.sampled_from(
            ["tcp-invalid-data-offset", "tcp-segment-split", "flush-rst-after-match"]
        )
    )
    def test_counters_equal_trace_tallies(self, technique):
        chosen = next(t for t in ALL_TECHNIQUES if t.name == technique)
        metrics, tracer = obs_metrics.MetricsRegistry(), obs_trace.FlowTracer()
        with obs.installed(METRICS=metrics, TRACER=tracer):
            run_table3(
                env_names=("testbed",),
                techniques=(chosen,),
                include_os_matrix=False,
                characterize=False,
            )
        tally = tracer.tally()
        for counter, kind in [
            ("mbx.rule_matches", "mbx.rule_match"),
            ("table3.cells", "table3.cell"),
            ("replay.runs", "replay.start"),
            ("env.created", "env.created"),
            ("mbx.endpoint_blocks", "mbx.endpoint_block"),
            ("netsim.frags.reassembled", "frag.reassembled"),
        ]:
            assert metrics.counter(counter) == tally.get(kind, 0), counter
        assert metrics.counter("netsim.packets.dropped") == tally.get(
            "hop.drop", 0
        ) + tally.get("fault.drop", 0)
