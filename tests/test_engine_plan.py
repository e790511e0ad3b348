"""Engine-profile differential: every DPI profile's per-packet behaviour,
pinned against a recorded fixture.

The engine compiles its knobs (validation strictness, reassembly mode,
flow keying, port scope, timeouts, ...) into a per-packet plan.  This
suite drives one seeded, deliberately hostile packet stream through each
paper profile and a set of single-knob variants, and compares what the
engine did with what ``tests/golden/engine_plan.json`` says it did:

* per packet: how many packets it forwarded, the wire bytes of every
  packet it injected, and the ``classification_of`` readout for the
  packet's flow;
* per run: ``match_log``, ``evictions``, ``sheds`` and the flow-table
  keys in order;
* per observed run (tracer, metrics and ops live, coverage switched on
  halfway): the trace-event tally and digest, the engine's metric
  counters, the coverage rule hits and the number of timed scans.

The stream mixes SYN/data/RST, UDP, IP fragments, a wrong protocol
field, bad IHL / data offset / checksums / lengths / options, missing
ACK and invalid flag combinations, out-of-order and duplicate segments,
stray mid-flow packets, ICMP, reused client ports and idle gaps that
expire flows.

Beside the fixture, every profile is checked to hold and scan no bytes of
a server direction that no rule reads.

The fixture changes only with an intended behaviour change; re-record it
then with ``PYTHONPATH=src python tests/test_engine_plan.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable

import pytest

from repro import obs
from repro.core.evasion import ALL_TECHNIQUES
from repro.envs import make_gfc, make_iran, make_testbed, make_tmobile
from repro.experiments.scale import ScaleConfig, build_engine
from repro.experiments.table3 import _measure_cell
from repro.experiments.workloads import prepare
from repro.middlebox import engine as engine_module
from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.overload import OverloadPolicy
from repro.middlebox.policy import RulePolicy
from repro.middlebox.rules import MatchRule, skype_stun_rule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.obs import coverage as obs_coverage
from repro.obs import metrics as obs_metrics
from repro.obs import ops as obs_ops
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.fragment import fragment_packet
from repro.packets.icmp import ICMPMessage
from repro.packets.ip import IPPacket
from repro.packets.options import deprecated_ip_option, invalid_ip_option
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram
from repro.traffic.stun import stun_binding_request

FIXTURE = Path(__file__).parent / "golden" / "engine_plan.json"

STREAM_SEED = 20_171_101
STREAM_FLOWS = 120

SERVERS = (("203.0.113.50", 80), ("203.0.113.51", 443), ("203.0.113.52", 8080))

#: Client request payloads: one per rule family of every profile, plus
#: neutral and unanchored traffic.
REQUESTS = (
    b"GET /watch HTTP/1.1\r\nHost: video.example.com\r\n\r\n",
    b"GET /a HTTP/1.1\r\nHost: www.economist.com\r\nAccept: */*\r\n\r\n",
    b"GET / HTTP/1.1\r\nHost: facebook.com\r\n\r\n",
    b"GET /v HTTP/1.1\r\nHost: r3.googlevideo.com\r\n\r\n",
    b"GET /other HTTP/1.1\r\nHost: cdn.example.net\r\n\r\n",
    b"GET /b HTTP/1.1\r\nHost: blocked.example\r\n\r\n",
    b"GET /f HTTP/1.1\r\nHost: forbidden.example\r\n\r\n",
    b"POST /up HTTP/1.1\r\nHost: spotify.example.com\r\n\r\n",
    b"GET /p HTTP/1.1\r\nHost: alt.example\r\n\r\n",
    b"XGET /watch HTTP/1.1\r\nHost: video.example.com\r\n\r\n",
    b"\x16\x03\x01\x00\x40 client hello for d1.cloudfront.net",
    b"MAGIC second-packet marker",
)
RESPONSES = (
    b"HTTP/1.1 200 OK\r\nX-Server-Tag: edge\r\n\r\n",
    b"HTTP/1.1 204 No Content\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nServer: video.example.com\r\n\r\n",
)
UDP_PAYLOADS = (
    stun_binding_request(),
    stun_binding_request(include_service_quality=False),
    b"voip.example call setup",
    b"plain datagram",
)

#: Damage applied to an inert copy (or, more rarely, to the real packet).
TCP_DAMAGE = (
    "wrong-proto-udp",
    "wrong-proto-99",
    "bad-ihl",
    "short-ihl",
    "bad-doff",
    "ip-checksum",
    "tcp-checksum",
    "len-long",
    "len-short",
    "bad-options",
    "deprecated-options",
    "no-ack",
    "bad-flags",
    "version",
    "far-seq",
)
UDP_DAMAGE = ("udp-checksum", "udp-length", "ip-checksum", "wrong-proto-6", "len-long")

C2S, S2C = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT


def _damaged(
    kind: str, src: str, dst: str, transport: TCPSegment | UDPDatagram
) -> IPPacket:
    """One packet carrying *transport* with the named header damage."""
    ip: dict = {}
    if isinstance(transport, TCPSegment):
        fields = dict(
            sport=transport.sport,
            dport=transport.dport,
            seq=transport.seq,
            ack=transport.ack,
            flags=transport.flags,
            payload=transport.payload,
        )
        if kind == "bad-doff":
            fields["data_offset"] = 8
        elif kind == "tcp-checksum":
            fields["checksum"] = 0xBEEF
        elif kind == "no-ack":
            fields["flags"] = TCPFlags.PSH
        elif kind == "bad-flags":
            fields["flags"] = TCPFlags.SYN | TCPFlags.FIN | TCPFlags.PSH
        elif kind == "far-seq":
            fields["seq"] = (transport.seq + (1 << 24)) & 0xFFFFFFFF
        transport = TCPSegment(**fields)
    elif kind == "udp-checksum":
        transport = UDPDatagram(transport.sport, transport.dport, transport.payload, checksum=0x1)
    elif kind == "udp-length":
        transport = UDPDatagram(
            transport.sport, transport.dport, transport.payload, length=len(transport.payload) + 40
        )
    if kind == "wrong-proto-udp":
        ip["protocol"] = 17
    elif kind == "wrong-proto-6":
        ip["protocol"] = 6
    elif kind == "wrong-proto-99":
        ip["protocol"] = 99
    elif kind == "bad-ihl":
        ip["ihl"] = 7
    elif kind == "short-ihl":
        ip["ihl"] = 4
    elif kind == "ip-checksum":
        ip["checksum"] = 0x1234
    elif kind == "len-long":
        ip["total_length"] = 1400
    elif kind == "len-short":
        ip["total_length"] = 24
    elif kind == "bad-options":
        ip["options"] = invalid_ip_option()
    elif kind == "deprecated-options":
        ip["options"] = deprecated_ip_option()
    elif kind == "version":
        ip["version"] = 6
    return IPPacket(src=src, dst=dst, transport=transport, **ip)


class _Flow:
    """One scripted connection: (packet, direction) steps in wire order."""

    def __init__(self, rng: random.Random, index: int, client: tuple[str, int]) -> None:
        self.client = client
        self.server = rng.choice(SERVERS[:1] * 2 + SERVERS)
        self.steps: list[tuple[IPPacket, Direction]] = []
        if rng.random() < 0.18:
            self._udp(rng)
        else:
            self._tcp(rng, index)

    def _c2s(self, transport) -> IPPacket:
        return IPPacket(src=self.client[0], dst=self.server[0], transport=transport)

    def _s2c(self, transport) -> IPPacket:
        return IPPacket(src=self.server[0], dst=self.client[0], transport=transport)

    def _udp(self, rng: random.Random) -> None:
        (client, sport), (server, dport) = self.client, self.server
        for _ in range(rng.randint(1, 4)):
            datagram = UDPDatagram(sport, dport, rng.choice(UDP_PAYLOADS))
            if rng.random() < 0.3:
                self.steps.append((_damaged(rng.choice(UDP_DAMAGE), client, server, datagram), C2S))
            self.steps.append((self._c2s(datagram), C2S))
            if rng.random() < 0.4:
                self.steps.append((self._s2c(UDPDatagram(dport, sport, b"pong")), S2C))

    def _tcp(self, rng: random.Random, index: int) -> None:
        (client, sport), (server, dport) = self.client, self.server
        isn = 1_000 + 7_919 * index
        steps = self.steps
        if rng.random() < 0.9:  # else: a stray mid-flow stream, never SYNed
            steps.append((self._c2s(TCPSegment(sport, dport, isn, 0, TCPFlags.SYN)), C2S))
            steps.append(
                (self._s2c(TCPSegment(dport, sport, 50_000, isn + 1, TCPFlags.SYN | TCPFlags.ACK)), S2C)
            )
        seq = isn + 1
        data: list[tuple[IPPacket, Direction]] = []
        for _request in range(rng.choice((1, 1, 1, 2, 3))):
            payload = rng.choice(REQUESTS[:4] + REQUESTS)
            cuts = sorted(rng.sample(range(1, len(payload)), rng.choice((0, 0, 0, 1, 2))))
            for start, end in zip([0, *cuts], [*cuts, len(payload)]):
                segment = TCPSegment(
                    sport, dport, seq + start, 50_001, TCPFlags.ACK | TCPFlags.PSH,
                    payload=payload[start:end],
                )
                if rng.random() < 0.15:  # an inert copy ahead of the real segment
                    inert = TCPSegment(
                        sport, dport, seq + start, 50_001, TCPFlags.ACK | TCPFlags.PSH,
                        payload=b"Z" * (end - start),
                    )
                    data.append((_damaged(rng.choice(TCP_DAMAGE), client, server, inert), C2S))
                if rng.random() < 0.08:
                    packet = _damaged(rng.choice(TCP_DAMAGE), client, server, segment)
                else:
                    packet = self._c2s(segment)
                if rng.random() < 0.1 and len(segment.payload) > 24:
                    fragments = fragment_packet(packet, 16, identification=0x100 + index)
                    if rng.random() < 0.5:
                        fragments.reverse()
                    data.extend((fragment, C2S) for fragment in fragments)
                else:
                    data.append((packet, C2S))
                if rng.random() < 0.1:
                    data.append((self._c2s(segment), C2S))  # duplicate
            seq += len(payload)
            if rng.random() < 0.6:
                response = rng.choice(RESPONSES)
                data.append(
                    (self._s2c(TCPSegment(dport, sport, 50_001, seq, TCPFlags.ACK, payload=response)), S2C)
                )
        for position in range(len(data) - 1):  # out-of-order pairs
            if rng.random() < 0.12:
                data[position], data[position + 1] = data[position + 1], data[position]
        steps.extend(data)
        ending = rng.random()
        if ending < 0.25:
            steps.append((self._c2s(TCPSegment(sport, dport, seq, 0, TCPFlags.RST)), C2S))
            if rng.random() < 0.5:  # data after the reset
                segment = TCPSegment(sport, dport, seq, 50_001, TCPFlags.ACK, payload=REQUESTS[0])
                steps.append((self._c2s(segment), C2S))
        elif ending < 0.35:
            steps.append((self._s2c(TCPSegment(dport, sport, 50_001, seq, TCPFlags.RST)), S2C))
        elif ending < 0.6:
            steps.append((self._c2s(TCPSegment(sport, dport, seq, 50_001, TCPFlags.FIN | TCPFlags.ACK)), C2S))


def packet_stream(seed: int = STREAM_SEED, flows: int = STREAM_FLOWS):
    """The seeded stream: ``(advance_seconds, packet, direction, client, server)``.

    Flows interleave; a few reuse an earlier client endpoint, and idle gaps
    of 35-130 virtual seconds let flush timeouts and endpoint blocks lapse.
    """
    rng = random.Random(seed)
    clients: list[tuple[str, int]] = []
    active: list[tuple[_Flow, int]] = []
    started = 0
    stream = []
    while started < flows or active:
        if started < flows and (not active or rng.random() < 0.3):
            if clients and rng.random() < 0.12:
                client = rng.choice(clients)  # reused endpoint
            else:
                client = (f"10.0.{started // 200}.{started % 200 + 2}", 30_000 + 3 * started)
                clients.append(client)
            flow = _Flow(rng, started, client)
            started += 1
            if flow.steps:
                active.append((flow, 0))
            continue
        slot = rng.randrange(len(active))
        flow, step = active[slot]
        packet, direction = flow.steps[step]
        gap = rng.choice((0.001, 0.004, 0.02, 0.3))
        roll = rng.random()
        if roll < 0.006:
            gap = rng.choice((35.0, 65.0, 130.0))
        elif roll < 0.02:
            icmp = IPPacket(src=flow.client[0], dst=flow.server[0], transport=ICMPMessage())
            stream.append((0.001, icmp, C2S, flow.client, flow.server))
        stream.append((gap, packet, direction, flow.client, flow.server))
        if step + 1 < len(flow.steps):
            active[slot] = (flow, step + 1)
        else:
            active.pop(slot)
    return stream


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
def _rules() -> list[MatchRule]:
    return [
        MatchRule(name="video", keywords=[b"video.example.com"], policy=RulePolicy.throttle(1_500_000)),
        MatchRule(name="blocker", keywords=[b"blocked.example"], policy=RulePolicy.block_with_rsts()),
        MatchRule(
            name="both",
            keywords=[b"GET", b"forbidden.example"],
            require_all=True,
            policy=RulePolicy.block_with_page(),
        ),
        MatchRule(name="zero", keywords=[b"spotify"], policy=RulePolicy.zero_rate(1_000_000)),
        MatchRule(name="alt", keywords=[b"alt.example"], ports=frozenset({8080})),
        MatchRule(name="magic", keywords=[b"MAGIC"], position=1),
        MatchRule(name="server-tag", keywords=[b"X-Server-Tag"], direction="server"),
        MatchRule(name="voip", keywords=[b"voip.example"], protocol="udp"),
        skype_stun_rule(RulePolicy.throttle(500_000)),
    ]


def _variant(**overrides) -> Callable[[], DPIMiddlebox]:
    def build() -> DPIMiddlebox:
        knobs = dict(
            name="plan-dpi",
            rules=_rules(),
            policy_state=PolicyState(),
            validation=MiddleboxValidation.lax(),
            reassembly=ReassemblyMode.PER_PACKET,
            inspect_packet_limit=4,
            match_and_forget=True,
            require_protocol_anchor=True,
            pre_match_timeout=30.0,
            post_match_timeout=60.0,
        )
        knobs.update(overrides)
        return DPIMiddlebox(**knobs)

    return build


def _churn() -> DPIMiddlebox:
    return build_engine(ScaleConfig(max_flows=24))[0]


ENGINES: dict[str, Callable[[], DPIMiddlebox]] = {
    "testbed": lambda: make_testbed().dpi(),
    "tmobile": lambda: make_tmobile().dpi(),
    "gfc": lambda: make_gfc().dpi(),
    "iran": lambda: make_iran().dpi(),
    "churn": _churn,
    "lax": _variant(),
    "agnostic": _variant(protocol_agnostic_flow_keying=True),
    "ports": _variant(ports=frozenset({80, 8080})),
    "no-udp": _variant(classify_udp=False),
    "byte-budget": _variant(reassembly=ReassemblyMode.IN_ORDER, flow_byte_budget=2_000),
    "overload": _variant(
        max_flows=12,
        overload=OverloadPolicy(seed=7, shed_start=0.5, shed_max=0.8, victim_scan_limit=4),
    ),
    "rst-flush-pre": _variant(rst_flush_pre_match=True),
    "rst-flush-post": _variant(rst_flush_post_match=True, match_and_forget=False),
    "rst-reduction": _variant(pre_match_timeout=120.0, post_match_timeout=120.0, rst_timeout_reduction=10.0),
    "in-order-frag": _variant(
        reassembly=ReassemblyMode.IN_ORDER,
        reassemble_ip_fragments=True,
        validation=MiddleboxValidation.partial_tmobile(),
        inspect_byte_limit=96,
    ),
    "full-frag": _variant(
        reassembly=ReassemblyMode.FULL,
        reassemble_ip_fragments=True,
        validation=MiddleboxValidation.extensive(),
        inspect_packet_limit=None,
        endpoint_block_threshold=2,
        endpoint_block_duration=50.0,
    ),
    "stateless-ports": _variant(
        track_flows=False, match_and_forget=False, require_protocol_anchor=False, ports=frozenset({80})
    ),
    "no-forget": _variant(match_and_forget=False, require_protocol_anchor=False, udp_inspect_packet_limit=2),
    "callable-timeouts": _variant(
        pre_match_timeout=lambda now: 20.0 + (now % 50.0),
        post_match_timeout=lambda now: 40.0,
    ),
}


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def _drive(
    engine: DPIMiddlebox,
    coverage_from: int | None = None,
    watch: Callable[[DPIMiddlebox], None] | None = None,
) -> list:
    """Feed the stream through *engine*; one record per packet (*watch*, if
    given, looks at the engine after each packet)."""
    clock = VirtualClock()
    sink: list[IPPacket] = []
    ctx = TransitContext(clock=clock, inject_back=sink.append, inject_forward=sink.append)
    records = []
    for position, (gap, packet, direction, client, server) in enumerate(packet_stream()):
        if position == coverage_from:
            obs.COVERAGE = obs_coverage.CoverageRecorder()
        clock.advance(gap)
        forwarded = engine.process(packet, direction, ctx)
        injected = [p.to_bytes().hex() for p in sink]
        sink.clear()
        verdict = engine.classification_of(client[0], client[1], server[0], server[1])
        records.append([len(forwarded), injected, verdict])
        if watch is not None:
            watch(engine)
    return records


def _final(engine: DPIMiddlebox) -> dict:
    return {
        "match_log": [[round(t, 6), name, str(key)] for t, name, key in engine.match_log],
        "evictions": engine.evictions,
        "sheds": engine.sheds,
        "flows": [str(key) for key in engine._flows.keys()],
    }


def _observed(engine: DPIMiddlebox) -> tuple[list, dict]:
    """Run with every recorder live; the digestible side effects."""
    tracer = obs_trace.FlowTracer(capacity=1_000_000)
    metrics = obs_metrics.MetricsRegistry()
    ops = obs_ops.OpsRegistry()
    with obs.installed(TRACER=tracer, METRICS=metrics, OPS=ops, COVERAGE=None):
        records = _drive(engine, coverage_from=len(packet_stream()) // 2)
        coverage = obs.COVERAGE
    lines = "\n".join(event.to_json() for event in tracer.events())
    scans = ops.recorder("mbx.scan")
    observed = {
        "trace_tally": tracer.tally(),
        "trace_sha256": hashlib.sha256(lines.encode()).hexdigest(),
        "counters": {
            name: value
            for name, value in sorted(metrics.counters().items())
            if name.startswith("mbx.") and not name.startswith("mbx.automaton.")
        },
        "rule_hits": dict(sorted(coverage.rule_hits.items())) if coverage else {},
        "timed_scans": scans.count if scans is not None else 0,
    }
    return records, observed


def record(name: str) -> dict:
    """The full behaviour record of engine profile *name*."""
    engine = ENGINES[name]()
    packets = _drive(engine)
    result = {"packets": packets, **_final(engine)}
    observed_packets, observed = _observed(ENGINES[name]())
    result["observed_packets_equal"] = observed_packets == packets
    result["observed"] = observed
    return result


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_profile(fixture):
    assert sorted(fixture["engines"]) == sorted(ENGINES)
    assert fixture["stream_packets"] == len(packet_stream())


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_profile_matches_fixture(name, fixture):
    expected = fixture["engines"][name]
    got = record(name)
    for position, (want, have) in enumerate(zip(expected["packets"], got["packets"])):
        assert have == want, f"{name}: packet {position} differs"
    for field in ("packets", "match_log", "evictions", "sheds", "flows"):
        assert got[field] == expected[field], f"{name}: {field} differs"
    assert got["observed_packets_equal"], f"{name}: recorders changed behaviour"
    for field in ("trace_tally", "trace_sha256", "counters", "rule_hits", "timed_scans"):
        assert got["observed"][field] == expected["observed"][field], f"{name}: {field} differs"


def test_stream_exercises_the_profiles(fixture):
    """The stream is hostile enough to matter: matches, blocks, evictions,
    sheds, flushes and fragments all happen somewhere."""
    engines = fixture["engines"]
    assert all(engines[name]["match_log"] for name in ENGINES)
    assert any(injected for _n, injected, _v in engines["gfc"]["packets"])
    assert engines["churn"]["evictions"] > 0
    assert engines["overload"]["sheds"] > 0
    assert engines["byte-budget"]["evictions"] > 0
    assert engines["gfc"]["observed"]["counters"].get("mbx.endpoint_blocks", 0) > 0
    for name in ("testbed", "rst-reduction", "callable-timeouts", "lax"):
        counters = engines[name]["observed"]["counters"]
        assert counters.get("mbx.flows_flushed.timeout", 0) > 0, name
    assert engines["tmobile"]["observed"]["trace_tally"].get("mbx.frag_reassembled", 0) > 0


#: Stream-mode profiles whose server view carries the ``server-tag`` rule.
SERVER_RULE_STREAMS = ("byte-budget", "full-frag", "in-order-frag")


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_rule_less_server_direction_holds_nothing(name):
    """A flow whose server view has no rules never buffers server bytes or
    starts a server scan; a server view with rules still buffers them."""
    seen = {"rule-less": 0, "held": 0}

    def watch(engine: DPIMiddlebox) -> None:
        for state in engine._flows.values():
            if not state.server_packets:
                continue
            if engine._compiled.view(state.protocol, state.server_port, "server").rules:
                seen["held"] += bool(state.server_buffer) and state.server_scan is not None
            else:
                assert not state.server_buffer and state.server_scan is None
                seen["rule-less"] += 1

    engine = ENGINES[name]()
    _drive(engine, watch=watch)
    if engine.track_flows and name != "no-udp":  # no-udp tracks no UDP flows
        assert seen["rule-less"] > 0
    if name in SERVER_RULE_STREAMS:
        assert seen["held"] > 0
    if name in ("full-frag", "in-order-frag"):
        assert "server-tag" in [rule for _t, rule, _key in engine.match_log]


def test_tmobile_table3_column_holds_no_server_bytes():
    """T-Mobile's rules read client bytes only, so after a whole Table 3
    column its engine holds none of the bulk responses it forwarded."""
    prep = prepare(make_tmobile(), characterize=True)
    for technique in ALL_TECHNIQUES:
        _measure_cell(prep, technique)
    flows = prep.env.dpi()._flows.values()
    assert sum(state.server_packets for state in flows) > 1_000
    assert sum(len(state.server_buffer) for state in flows) == 0


class TestReconfigure:
    """Knob changes on a live engine recompile the plan, never go stale."""

    CLIENT, SERVER = "10.9.0.2", "203.0.113.50"

    def setup_method(self):
        self.clock = VirtualClock()
        self.sink: list[IPPacket] = []
        self.ctx = TransitContext(
            clock=self.clock, inject_back=self.sink.append, inject_forward=self.sink.append
        )

    def send(self, engine, flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"", seq=1_001):
        self.clock.advance(0.01)
        segment = TCPSegment(40_000, 80, seq, 1, flags, payload=payload)
        engine.process(IPPacket(self.CLIENT, self.SERVER, segment), C2S, self.ctx)

    def verdict(self, engine):
        return engine.classification_of(self.CLIENT, 40_000, self.SERVER, 80)

    def test_stateless_switch_takes_effect_on_next_packet(self):
        engine = _variant()()
        request = REQUESTS[0]
        self.send(engine, payload=request)  # mid-flow, never SYNed: invisible
        assert engine.matches_logged == 0
        engine.reconfigure(track_flows=False, match_and_forget=False, require_protocol_anchor=False)
        assert not engine.track_flows
        self.send(engine, payload=request)
        assert [name for _t, name, _key in engine.match_log] == ["video"]

    def test_new_rules_reach_a_live_flow(self):
        engine = _variant()()
        self.send(engine, flags=TCPFlags.SYN, seq=1_000)
        self.send(engine, payload=b"GET / HTTP/1.1\r\nHost: quiet.example\r\n\r\n")
        assert self.verdict(engine) is None
        fresh = MatchRule(name="quiet", keywords=[b"quiet.example"])
        engine.reconfigure(rules=[fresh])
        self.send(engine, payload=b"Host: quiet.example\r\n", seq=1_040)
        assert self.verdict(engine) == "quiet"

    def test_server_packet_closes_a_window_shrunk_by_reconfigure(self):
        """A server packet no rule reads still closes the inspection window."""
        engine = _variant(rules=[MatchRule(name="quiet", keywords=[b"quiet.example"])])()
        self.send(engine, flags=TCPFlags.SYN, seq=1_000)
        self.send(engine, payload=b"GET / HTTP/1.1\r\nHost: loud.example\r\n\r\n")
        engine.reconfigure(inspect_packet_limit=1)
        assert self.verdict(engine) is None
        response = TCPSegment(80, 40_000, 1, 1_040, TCPFlags.ACK, payload=b"HTTP/1.1 200 OK\r\n")
        engine.process(IPPacket(self.SERVER, self.CLIENT, response), S2C, self.ctx)
        assert self.verdict(engine) == engine_module.UNCLASSIFIED_FINAL

    def test_changed_timeouts_rearm_live_flows(self):
        for timeout in (5.0, lambda now: 5.0):
            engine = _variant(pre_match_timeout=None, post_match_timeout=None)()
            self.send(engine, flags=TCPFlags.SYN, seq=1_000)
            engine.reconfigure(pre_match_timeout=timeout)
            self.clock.advance(6.0)
            self.send(engine, payload=b"late")
            assert list(engine._flows.keys()) == []
        # A lengthened timeout leaves no stale expiry behind.
        engine = _variant(pre_match_timeout=5.0, post_match_timeout=None)()
        self.send(engine, flags=TCPFlags.SYN, seq=1_000)
        engine.reconfigure(pre_match_timeout=120.0)
        self.clock.advance(6.0)
        self.send(engine, payload=b"late")
        assert len(engine._flows) == 1

    def test_unknown_and_table_shaping_knobs_raise(self):
        engine = _variant()()
        with pytest.raises(TypeError, match="bogus"):
            engine.reconfigure(bogus=1)
        with pytest.raises(TypeError, match="overload"):
            engine.reconfigure(overload=OverloadPolicy())
        with pytest.raises(ValueError):
            engine.reconfigure(max_flows=0)
        assert engine.overload is None and engine.max_flows is None

    @pytest.mark.parametrize("knob", engine_module._KNOBS)
    def test_direct_knob_assignment_raises(self, knob):
        engine = _variant()()
        before = getattr(engine, knob)
        with pytest.raises(AttributeError, match="reconfigure"):
            setattr(engine, knob, before)
        assert getattr(engine, knob) is before


def main() -> int:
    if sys.argv[1:] != ["--record"]:
        print("usage: PYTHONPATH=src python tests/test_engine_plan.py --record", file=sys.stderr)
        return 2
    payload = {
        "stream_seed": STREAM_SEED,
        "stream_packets": len(packet_stream()),
        "engines": {name: record(name) for name in sorted(ENGINES)},
    }
    FIXTURE.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"recorded {len(ENGINES)} profiles to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
