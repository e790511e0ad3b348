"""Idle expiry: the engine's lane walk against a naive per-packet scan.

The engine keeps its flows in one lane per timeout class (pre-match,
post-match, RST override), each in last-activity order.  When the flow
table's least-recently-active flow is idle past the smallest timeout in
effect, it walks each lane from its oldest end and stops at the first flow
idle no longer than the lane's timeout.  The reference is the obvious
O(flows) scan: before every packet, each tracked flow, in insertion order,
whose idle time is strictly greater than its own timeout (``_timeout_for``)
flushes.

A reference engine with the same knobs runs that scan in place of the walk
(its walk is switched off).  The same stream
of SYN, data, matching data, RST and idle-gap packets goes through both.
Per packet, the timeout flushes must agree key for key and in order, and so
must the tracked flow keys; per run, evictions and the match log must agree.
After every packet the premises of the walk, its gate and the engine's
eviction order are checked: each flow sits in the lane of its class,
``last_packet_time`` never decreases and the recency stamp rises along a
lane, the gate's cached bound (``_oldest_seen``) is at most the least
``last_packet_time``, and a lane head holds that least value.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.scale import (
    MATCH_PAYLOAD,
    NEUTRAL_PAYLOAD,
    SERVER,
    SERVER_PORT,
    ScaleConfig,
    _flow_endpoint,
    _is_match_flow,
    build_engine,
)
from repro.envs import make_testbed
from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.policy import RulePolicy
from repro.middlebox.rules import MatchRule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

FLOWS = 6
#: Every packet advances the clock this much; gaps and timeouts are
#: multiples of it, so idle times land exactly on timeouts (a gap of
#: ``timeout - TICK`` after a flow's packet makes its idle time equal).
TICK = 0.25
PAYLOADS = {"data": b"GET /plain HTTP/1.1\r\n", "match": b"GET /match-me HTTP/1.1\r\n"}


def time_of_day(now: float) -> float | None:
    """A GFC-style callable timeout: short, long, then none, every 30 s."""
    return (7.5, 2.5, None)[int(now // 10.0) % 3]


RECONFIGURATIONS = (
    {"pre_match_timeout": 2.5},
    {"pre_match_timeout": 20.0},
    {"post_match_timeout": 1.0},
    {"post_match_timeout": None},
    {"rst_timeout_reduction": None},
    {"rst_timeout_reduction": 0.5},
    {"rst_timeout_reduction": 15.0},
    {"pre_match_timeout": time_of_day},
)

PACKET = st.tuples(st.sampled_from(("syn", "data", "match", "rst")), st.integers(0, FLOWS - 1))
IDLE = st.tuples(
    st.just("idle"), st.sampled_from((0.5, 1.0, 2.25, 2.5, 4.75, 5.0, 7.5, 9.75, 10.0))
)
EVENTS = st.lists(st.one_of(PACKET, PACKET, IDLE), max_size=60)
RECONFIGURE = st.tuples(st.just("reconfigure"), st.integers(0, len(RECONFIGURATIONS) - 1))
EVENTS_WITH_RECONFIGURE = st.lists(st.one_of(PACKET, PACKET, IDLE, RECONFIGURE), max_size=60)

property_settings = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _engine(**knobs) -> DPIMiddlebox:
    return DPIMiddlebox(
        name="expiry-dpi",
        rules=[
            MatchRule(name="match", keywords=[b"match-me"], policy=RulePolicy.throttle(1_000_000))
        ],
        policy_state=PolicyState(),
        validation=MiddleboxValidation.lax(),
        reassembly=ReassemblyMode.PER_PACKET,
        inspect_packet_limit=2,  # two plain data packets: final non-match
        **knobs,
    )


def _packet(kind: str, flow: int) -> IPPacket:
    flags = {
        "syn": TCPFlags.SYN,
        "data": TCPFlags.ACK | TCPFlags.PSH,
        "match": TCPFlags.ACK | TCPFlags.PSH,
        "rst": TCPFlags.RST,
    }[kind]
    seq = 1_000 if kind == "syn" else 1_001
    segment = TCPSegment(40_000 + flow, 80, seq, 1, flags, payload=PAYLOADS.get(kind, b""))
    return IPPacket(f"10.7.0.{flow + 1}", "203.0.113.9", segment)


def _record_timeout_flushes(engine: DPIMiddlebox) -> list:
    flushed: list = []
    dropped = engine._flow_dropped

    def record(normalized, state, reason):
        if reason == "timeout":
            flushed.append(normalized)
        dropped(normalized, state, reason)

    engine._flow_dropped = record
    return flushed


class Differential:
    """One engine under test and its scan-expiry reference, in lockstep."""

    def __init__(self, build) -> None:
        self.engine = build()
        self.reference = build()
        self.reference._expire_idle = lambda now: None  # the walk never runs
        self.flushed = _record_timeout_flushes(self.engine)
        self.timeouts = 0  # flows flushed idle, over the run
        self.clock = VirtualClock()
        self.sink: list[IPPacket] = []
        self.ctx = TransitContext(
            clock=self.clock, inject_back=self.sink.append, inject_forward=self.sink.append
        )

    def reference_scan(self) -> list:
        """Flush the reference's stale flows the naive way; return their keys."""
        now = self.clock.now
        reference = self.reference
        stale = []
        for normalized, state in reference._flows.items():
            timeout = reference._timeout_for(state, now)
            if timeout is not None and now - state.last_packet_time > timeout:
                stale.append(normalized)
        for normalized in stale:
            reference._forget_flow(normalized, reason="timeout")
        return stale

    def send(self, packet: IPPacket) -> None:
        expected = self.reference_scan()
        self.reference.process(packet, Direction.CLIENT_TO_SERVER, self.ctx)
        self.flushed.clear()
        self.engine.process(packet, Direction.CLIENT_TO_SERVER, self.ctx)
        self.sink.clear()
        assert self.flushed == expected, f"t={self.clock.now}: timeout flushes differ"
        self.timeouts += len(expected)
        assert list(self.engine._flows.keys()) == list(self.reference._flows.keys())
        self.check_lanes()

    def check_lanes(self) -> None:
        """The premises of the walk and of its gate."""
        engine = self.engine
        lanes = (engine._pre_lane, engine._post_lane, engine._rst_lane)
        assert sum(map(len, lanes)) == len(engine._flows)
        for lane in lanes:
            times = [state.last_packet_time for state in lane.values()]
            assert times == sorted(times), "lane out of last-activity order"
            stamps = [state.stamp for state in lane.values()]
            assert stamps == sorted(stamps), "lane out of stamp order"
            for normalized, state in lane.items():
                assert state.lane is lane and engine._flows.get(normalized) is state
                if state.timeout_override is not None:
                    assert lane is engine._rst_lane
                elif state.verdict is None:
                    assert lane is engine._pre_lane
                else:
                    assert lane is engine._post_lane
        if len(engine._flows):
            oldest = min(state.last_packet_time for state in engine._flows.values())
            assert engine._oldest_seen <= oldest
            heads = [next(iter(lane.values())) for lane in lanes if lane]
            assert min(head.last_packet_time for head in heads) == oldest

    def run(self, events) -> None:
        for kind, arg in events:
            if kind == "idle":
                self.clock.advance(arg)
            elif kind == "reconfigure":
                self.engine.reconfigure(**RECONFIGURATIONS[arg])
                self.reference.reconfigure(**RECONFIGURATIONS[arg])
            else:
                self.clock.advance(TICK)
                self.send(_packet(kind, arg))
        self.finish()

    def finish(self) -> None:
        assert self.engine.evictions == self.reference.evictions
        assert self.engine.match_log == self.reference.match_log


def differential(events, **knobs) -> None:
    Differential(lambda: _engine(**knobs)).run(events)


class TestWalkMatchesScan:
    """Each explicit example pins one way the walk can go wrong."""

    @property_settings
    @given(events=EVENTS)
    # Idle exactly equal to the post-match timeout: not yet stale.
    @example(events=[("syn", 0), ("match", 0), ("idle", 9.75), ("syn", 1)])
    # The least recently active flow is fresh (post-match); a later one is stale.
    @example(events=[("syn", 0), ("match", 0), ("syn", 1), ("idle", 7.5), ("syn", 2)])
    # LRU order (1, 0) differs from insertion order (0, 1).
    @example(events=[("syn", 0), ("syn", 1), ("data", 0), ("idle", 10.0), ("syn", 2)])
    def test_constant_timeouts(self, events):
        differential(events, pre_match_timeout=5.0, post_match_timeout=10.0)

    @property_settings
    @given(events=EVENTS)
    @example(events=[("syn", 0), ("idle", 12.0), ("syn", 1)])  # 2.5 s timeout at t=12.5
    def test_callable_pre_match_without_post(self, events):
        differential(events, pre_match_timeout=time_of_day, post_match_timeout=None)

    @property_settings
    @given(events=EVENTS)
    # The RST override (2.5 s) is the smallest timeout in effect.
    @example(events=[("syn", 0), ("rst", 0), ("idle", 5.0), ("syn", 1)])
    def test_rst_timeout_reduction(self, events):
        differential(
            events, pre_match_timeout=10.0, post_match_timeout=10.0, rst_timeout_reduction=2.5
        )

    @property_settings
    @given(events=EVENTS)
    def test_max_flows_eviction(self, events):
        differential(events, pre_match_timeout=5.0, post_match_timeout=10.0, max_flows=3)

    @property_settings
    @given(events=EVENTS_WITH_RECONFIGURE)
    # An override from before the RST reduction was switched off still counts.
    @example(events=[("syn", 0), ("rst", 0), ("reconfigure", 4), ("idle", 2.5), ("syn", 1)])
    # Mixed overrides: idle exactly equal to its own 2.5 s override, past 0.5 s.
    @example(events=[("syn", 0), ("rst", 0), ("reconfigure", 5), ("idle", 2.25), ("syn", 1)])
    # Mixed overrides: a fresh 2.5 s one ahead of a stale 0.5 s one.
    @example(
        events=[
            ("syn", 0), ("rst", 0), ("reconfigure", 5), ("syn", 1), ("rst", 1),
            ("idle", 1.0), ("syn", 2),
        ]
    )
    def test_reconfigure_mid_stream(self, events):
        differential(
            events, pre_match_timeout=5.0, post_match_timeout=10.0, rst_timeout_reduction=2.5
        )

    def test_walk_and_scan_agree_under_churn(self):
        """The seeded churn harness's engine, batch-expiring at idle jumps."""
        config = ScaleConfig(flows=900, max_flows=128, pre_match_timeout=30.0)
        run = Differential(lambda: build_engine(config)[0])
        for index in range(config.flows):
            src, sport = _flow_endpoint(index)
            matching = _is_match_flow(index, config.match_every)
            payload = MATCH_PAYLOAD if matching else NEUTRAL_PAYLOAD
            for seq, flags, body in (
                (1_000, TCPFlags.SYN, b""),
                (1_001, TCPFlags.ACK | TCPFlags.PSH, payload),
            ):
                run.clock.advance(config.packet_interval)
                segment = TCPSegment(sport, SERVER_PORT, seq, 1, flags, payload=body)
                run.send(IPPacket(src=src, dst=SERVER, transport=segment))
            if (index + 1) % 300 == 0:
                run.clock.advance(45.0)  # past pre-match, short of post-match timeout
        run.finish()
        assert run.timeouts > 0 and run.engine.evictions > 0 and run.engine.matches_logged > 0


class TestGateFloatEdge:
    def test_idle_past_timeout_only_by_rounding_flushes(self):
        """The gate subtracts as the walk does: with floats, a flow last seen
        at 0.1 is idle past a 0.2 s timeout at 0.1 + 0.2, although that time
        is not past a precomputed 0.1 + 0.2 deadline."""
        engine = _engine(pre_match_timeout=0.2)
        flushed = _record_timeout_flushes(engine)
        clock = VirtualClock()
        ctx = TransitContext(
            clock=clock, inject_back=lambda p: None, inject_forward=lambda p: None
        )
        clock.advance(0.1)
        engine.process(_packet("syn", 0), Direction.CLIENT_TO_SERVER, ctx)
        clock.advance(0.2)
        assert clock.now == 0.1 + 0.2 and clock.now - 0.1 > 0.2
        engine.process(_packet("syn", 1), Direction.CLIENT_TO_SERVER, ctx)
        assert [key.sport for key in flushed] == [40_000]
        assert len(engine._flows) == 1


class TestRstFloor:
    def test_testbed_engine_walks_only_for_live_rst_overrides(self):
        """The RST reduction counts toward the expiry floor only while a flow
        carries it: testbed flows idle 10-120 s without an RST never walk."""
        engine = make_testbed().middlebox  # 120 s timeouts, 10 s RST reduction
        walks: list[float] = []
        expire = engine._expire_idle

        def counted(now: float) -> None:
            walks.append(now)
            expire(now)

        engine._expire_idle = counted
        clock = VirtualClock()
        ctx = TransitContext(
            clock=clock, inject_back=lambda p: None, inject_forward=lambda p: None
        )

        def send(kind: str, flow: int, gap: float) -> None:
            clock.advance(gap)
            engine.process(_packet(kind, flow), Direction.CLIENT_TO_SERVER, ctx)

        for flow in range(FLOWS):
            send("syn", flow, 15.0)
        for flow in range(FLOWS):
            send("data", flow, 15.0)  # the oldest flow is 90 s idle here
        assert walks == [] and len(engine._flows) == FLOWS

        send("rst", 0, 1.0)
        send("data", 1, 11.0)  # flow 0 is 11 s past its RST: the walk flushes it
        assert len(walks) == 1 and len(engine._flows) == FLOWS - 1
        send("data", 2, 11.0)  # the RST lane is empty again: no walk
        assert len(walks) == 1 and engine._rst_floor is None
