"""Engine eviction order against a naive one-list LRU model.

The engine keeps no recency list of its own: the least recently active flow
is the oldest of its idle-expiry lane heads.  This suite drives streams of
SYNs, payloads, bare revisits, RSTs, idle gaps and ``max_flows`` changes
through small-``max_flows`` engines in three configurations (plain, ``flow_byte_budget``, and
``OverloadPolicy(prefer_finished_victims=True)``) and compares the flows the
engine evicts, in order and with their reasons, against a model that keeps
one global last-touch list:

* a capacity victim is the first finished flow (``_low_value_flow``) among
  the ``victim_scan_limit`` least recently touched, or else the least
  recently touched flow, and a new flow evicts until the table is below
  its (possibly just lowered) capacity;
* byte-budget shedding evicts strictly in last-touch order until the summed
  flow cost is back under budget, skipping the flow the packet touched.

Which flows exist is the engine's business beyond eviction, so the model
takes timeout and RST flushes and admission sheds from the engine as it
reports them, and appraises a flow's cost with the engine's own formula.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode, _flow_cost, _low_value_flow
from repro.middlebox.overload import OverloadPolicy
from repro.middlebox.policy import RulePolicy
from repro.middlebox.rules import MatchRule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.packets.flow import Direction, FiveTuple
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

FLOWS = 7
MAX_FLOWS = 4
TICK = 0.25
BUDGET = 1_100  # four empty flows (4 x 256) fit; payload growth sheds
PAYLOADS = {
    "data": b"GET /plain HTTP/1.1\r\n",
    "big": b"GET /" + b"x" * 300 + b" HTTP/1.1\r\n",
    "huge": b"GET /" + b"y" * 1_200 + b" HTTP/1.1\r\n",  # one flow alone exceeds BUDGET
    "match": b"GET /match-me HTTP/1.1\r\n",
}
EVICTION_REASONS = ("evicted", "evicted-bytes")

PACKET = st.tuples(
    st.sampled_from(("syn", "syn", "data", "big", "huge", "match", "revisit", "rst")),
    st.integers(0, FLOWS - 1),
)
IDLE = st.tuples(st.just("idle"), st.sampled_from((0.5, 1.5, 3.0, 6.0)))
CAPACITY = st.tuples(st.just("capacity"), st.integers(1, MAX_FLOWS))
EVENTS = st.lists(
    st.one_of(PACKET, PACKET, PACKET, PACKET, PACKET, PACKET, IDLE, IDLE, CAPACITY),
    max_size=70,
)

property_settings = settings(
    deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow]
)


def _engine(**knobs) -> DPIMiddlebox:
    return DPIMiddlebox(
        name="eviction-dpi",
        rules=[
            MatchRule(name="match", keywords=[b"match-me"], policy=RulePolicy.throttle(1_000_000))
        ],
        policy_state=PolicyState(),
        validation=MiddleboxValidation.lax(),
        reassembly=ReassemblyMode.IN_ORDER,
        inspect_packet_limit=3,  # three plain payloads: final non-match
        pre_match_timeout=5.0,
        post_match_timeout=8.0,
        rst_flush_post_match=True,  # a RST after a match flushes the flow
        rst_timeout_reduction=2.0,  # any other RST moves it to the RST lane
        max_flows=MAX_FLOWS,
        **knobs,
    )


CONFIGS = {
    "plain": lambda: _engine(),
    "byte-budget": lambda: _engine(flow_byte_budget=BUDGET),
    "prefer-finished": lambda: _engine(
        overload=OverloadPolicy(prefer_finished_victims=True, victim_scan_limit=2)
    ),
}


class Model:
    """One global last-touch list; evictions predicted from it alone."""

    def __init__(self, engine: DPIMiddlebox) -> None:
        self.recency: list[FiveTuple] = []  # least recently touched first
        self.states: dict = {}
        self.cost: dict = {}
        self.capacity = engine.max_flows
        self.budget = engine.flow_byte_budget
        overload = engine.overload
        self.scan_limit = (
            overload.victim_scan_limit
            if overload is not None and overload.prefer_finished_victims
            else 0
        )

    def remove(self, key: FiveTuple) -> None:
        self.recency.remove(key)
        del self.states[key], self.cost[key]

    def evict(self, key: FiveTuple, reason: str, out: list) -> None:
        self.remove(key)
        out.append((key, reason))

    def capacity_victim(self) -> FiveTuple:
        for key in self.recency[: self.scan_limit]:
            if _low_value_flow(self.states[key]):
                return key
        return self.recency[0]

    def shed_bytes(self, keep: FiveTuple, out: list) -> None:
        if self.budget is None:
            return
        for key in [key for key in self.recency if key != keep]:
            if sum(self.cost.values()) <= self.budget:
                break
            self.evict(key, "evicted-bytes", out)

    def packet(self, key: FiveTuple, opens: bool, state_after, shed: bool) -> list:
        """Touch or open *key*; the evictions this packet should cause."""
        out: list = []
        if key in self.states:
            self.recency.remove(key)
            self.recency.append(key)
        elif opens and not shed:
            while self.capacity is not None and len(self.states) >= self.capacity:
                self.evict(self.capacity_victim(), "evicted", out)
            self.recency.append(key)
            self.states[key] = state_after
            self.cost[key] = 256
            self.shed_bytes(key, out)
        return out

    def settle(self, key: FiveTuple, state_after, out: list) -> None:
        """Re-appraise the touched flow after its packet and shed if over."""
        if key in self.states and state_after is not None:
            self.cost[key] = _flow_cost(state_after)
            self.shed_bytes(key, out)


class Harness:
    def __init__(self, build) -> None:
        self.engine = build()
        self.model = Model(self.engine)
        self.drops: list = []
        dropped = self.engine._flow_dropped

        def record(normalized, state, reason):
            self.drops.append((normalized, reason))
            dropped(normalized, state, reason)

        self.engine._flow_dropped = record
        self.clock = VirtualClock()
        self.ctx = TransitContext(
            clock=self.clock, inject_back=lambda p: None, inject_forward=lambda p: None
        )
        self.next_seq: dict[int, int] = {}
        self.evicted: list = []

    def tracked_state(self, key: FiveTuple):
        return dict(self.engine._flows.items()).get(key)

    def packet(self, kind: str, flow: int) -> IPPacket:
        seq = self.next_seq.get(flow, 1_001)
        if kind == "syn":
            self.next_seq[flow] = 1_001
            segment = TCPSegment(41_000 + flow, 80, 1_000, 0, TCPFlags.SYN)
        elif kind == "rst":
            segment = TCPSegment(41_000 + flow, 80, seq, 0, TCPFlags.RST)
        else:
            payload = PAYLOADS.get(kind, b"")
            self.next_seq[flow] = seq + len(payload)
            flags = TCPFlags.ACK | (TCPFlags.PSH if payload else 0)
            segment = TCPSegment(41_000 + flow, 80, seq, 1, flags, payload=payload)
        return IPPacket(f"10.9.0.{flow + 1}", "203.0.113.7", segment)

    def send(self, kind: str, flow: int) -> None:
        engine, model = self.engine, self.model
        packet = self.packet(kind, flow)
        key = FiveTuple.of(packet).normalized()
        sheds = engine.sheds
        self.drops.clear()
        engine.process(packet, Direction.CLIENT_TO_SERVER, self.ctx)
        evictions = [drop for drop in self.drops if drop[1] in EVICTION_REASONS]
        flushes = [drop for drop in self.drops if drop[1] not in EVICTION_REASONS]
        for dropped, reason in flushes:
            if reason == "timeout":  # the gate runs before the packet
                model.remove(dropped)
        state_after = self.tracked_state(key)
        expected = model.packet(key, kind == "syn", state_after, engine.sheds > sheds)
        for dropped, reason in flushes:
            if reason != "timeout":  # RST flushes follow the packet's touch
                model.remove(dropped)
        model.settle(key, state_after, expected)
        assert evictions == expected, f"t={self.clock.now} {kind} {flow}: victims differ"
        assert set(model.states) == set(dict(engine._flows.items()))
        self.evicted.extend(evictions)

    def step(self, kind: str, arg) -> None:
        if kind == "idle":
            self.clock.advance(arg)
        elif kind == "capacity":
            self.engine.reconfigure(max_flows=arg)
            self.model.capacity = arg
        else:
            self.clock.advance(TICK)
            self.send(kind, arg)

    def run(self, events) -> None:
        for kind, arg in events:
            self.step(kind, arg)
        assert self.engine.evictions == len(self.evicted)


def _run(config: str, events) -> Harness:
    harness = Harness(CONFIGS[config])
    harness.run(events)
    return harness


def _syns(*flows: int) -> list:
    return [("syn", flow) for flow in flows]


class TestEvictionOrder:
    """Each explicit example pins one way the derived LRU can go wrong."""

    @property_settings
    @given(events=EVENTS)
    # Finished flows sit in the post-match lane, live ones in the pre-match
    # lane: the victim is the oldest lane head, not the newest.
    @example(events=_syns(0, 1) + [("match", 0), ("data", 1)] + _syns(2, 3, 4, 5))
    # A revisit moves the oldest flow to its lane's end: the next-oldest goes.
    @example(events=_syns(0, 1, 2) + [("match", 1), ("revisit", 0), ("revisit", 1)] + _syns(3, 4))
    # A RST moves a flow to the RST lane; its stamp still orders it.
    @example(events=_syns(0, 1, 2, 3) + [("rst", 0), ("revisit", 1)] + _syns(4, 5))
    # A capacity lowered below the live count: the next SYN evicts down to it.
    @example(events=_syns(0, 1, 2, 3) + [("capacity", 2)] + _syns(4, 5, 6))
    def test_plain_capacity_victims(self, events):
        _run("plain", events)

    @property_settings
    @given(events=EVENTS)
    # Growth of one flow sheds the least recently touched others.
    @example(events=_syns(0, 1, 2) + [("big", 2), ("big", 1), ("big", 2)])
    # A flow that alone exceeds the budget is kept.
    @example(events=_syns(0, 1) + [("huge", 1), ("revisit", 1), ("huge", 1)] + _syns(2))
    # Capacity and byte pressure on one SYN.
    @example(events=_syns(0, 1, 2, 3) + [("big", 0), ("data", 1)] + _syns(4, 5))
    def test_byte_budget_sheds_in_lru_order(self, events):
        _run("byte-budget", events)

    @property_settings
    @given(events=EVENTS)
    # The finished flow is second oldest: inside the two-flow scan window.
    @example(events=_syns(0, 1, 2, 3) + [("match", 1)] + _syns(0, 2, 4))
    # The finished flow is third oldest: just past the window, so the LRU goes.
    @example(events=_syns(0, 1, 2, 3) + [("match", 2)] + _syns(3, 4))
    def test_prefer_finished_victims_within_scan_limit(self, events):
        _run("prefer-finished", events)


class TestByteBudget:
    """The byte-budget rules, engine level (the table used to own them)."""

    def test_exceeding_budget_evicts_from_lru_end(self):
        harness = _run("byte-budget", _syns(0, 1, 2) + [("big", 1)] + _syns(3))
        assert [(key.sport, reason) for key, reason in harness.evicted] == [
            (41_000, "evicted-bytes")
        ]

    def test_recost_reappraises_and_sheds(self):
        harness = _run("byte-budget", _syns(0, 1) + [("huge", 1)])
        assert [(key.sport, reason) for key, reason in harness.evicted] == [
            (41_000, "evicted-bytes")
        ]
        assert len(harness.engine._flows) == 1  # the oversized flow is kept

    def test_single_oversized_entry_never_self_evicts(self):
        harness = _run("byte-budget", _syns(0) + [("huge", 0), ("huge", 0)])
        assert harness.evicted == []
        assert len(harness.engine._flows) == 1

    @property_settings
    @given(events=EVENTS)
    def test_total_cost_invariant_under_churn(self, events):
        harness = Harness(CONFIGS["byte-budget"])
        for kind, arg in events:
            harness.step(kind, arg)
            states = [state for _key, state in harness.engine._flows.items()]
            assert sum(map(_flow_cost, states)) <= BUDGET or len(states) == 1
