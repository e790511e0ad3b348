"""The DPI middlebox engine.

One engine class expresses every classifier implementation the paper
reverse-engineered, through configuration:

* **reassembly mode** — per-packet matching (Iran, the testbed device),
  in-order-only stream assembly that ignores out-of-order segments
  (T-Mobile), or full endpoint-grade reassembly (the GFC);
* **inspection window** — how many payload packets are examined before the
  classifier commits to a final verdict ("match and forget");
* **protocol anchoring** — whether the first payload must look like a known
  protocol (the reason one dummy byte at the start of a flow breaks
  classification in the testbed, T-Mobile and the GFC);
* **validation** — which malformed packets are still fed to the matcher
  (:mod:`repro.middlebox.validation`), the crack every inert-packet
  technique slips through;
* **state retention** — pre-match and post-match flush timeouts, RST-driven
  flushing, and the GFC's residual server:port blocking.

Those knobs are a fixed vector of ambiguity resolutions per classifier, so
the engine compiles them once into a per-packet plan (bound checks, flags
and per-flow cached rule views) instead of re-testing them on every packet.
:meth:`DPIMiddlebox.reconfigure` is the only way to change a knob; it
recompiles the plan.
"""

from __future__ import annotations

import enum
import heapq
import math
import time
from collections import OrderedDict, deque
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.middlebox.flowtable import FlowTable
from repro.middlebox.overload import LoadShedder, OverloadPolicy
from repro.middlebox.policy import PolicyAction
from repro.middlebox.ruleindex import CompiledRuleSet, CompiledView, StreamScan
from repro.middlebox.rules import MatchRule
from repro.middlebox.state import UNCLASSIFIED_FINAL, FlowState
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.element import NetworkElement, TransitContext
from repro.netsim.shaper import PolicyState
from repro.obs import coverage as obs_coverage
from repro.packets.flow import Direction, FiveTuple
from repro.packets.fragment import FragmentBuffer
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.events import EventFanOut

#: Protocol prefixes an anchoring classifier accepts at stream offset zero.
PROTOCOL_ANCHORS: tuple[bytes, ...] = (b"GET", b"POST", b"HEAD", b"PUT", b"HTTP/", b"\x16\x03")

#: Stream-reassembling classifiers wait for this many contiguous bytes
#: before judging the protocol anchor.
ANCHOR_MIN_BYTES = 5

#: Bound on tracked (server, port) block counters and on active blocks.
ENDPOINT_BLOCK_CAPACITY = 65536

TimeoutSpec = float | None | Callable[[float], float | None]

#: The engine's knobs: constructor arguments compiled into the per-packet
#: plan, readable as attributes and changed only through ``reconfigure``.
_KNOBS = (
    "rules", "validation", "reassembly", "reassemble_ip_fragments", "inspect_packet_limit",
    "inspect_byte_limit", "match_and_forget", "require_protocol_anchor", "track_flows",
    "ports", "classify_udp", "udp_inspect_packet_limit", "pre_match_timeout",
    "post_match_timeout", "rst_flush_pre_match", "rst_flush_post_match",
    "rst_timeout_reduction", "endpoint_block_threshold", "endpoint_block_duration",
    "protocol_agnostic_flow_keying", "max_flows", "flow_byte_budget", "overload",
)

#: Knobs that shape the flow table itself; fixed at construction.
_FIXED_KNOBS = frozenset({"flow_byte_budget", "overload"})


def _flow_fields(key: FiveTuple) -> str:
    """A flow tuple as one deterministic, diff-friendly trace field."""
    return f"{key.src}:{key.sport}>{key.dst}:{key.dport}/{key.protocol}"


def _verdict_name(verdict: MatchRule | str | None) -> str | None:
    """A verdict as its stable trace label (rule name or sentinel string)."""
    if isinstance(verdict, MatchRule):
        return verdict.name
    return verdict


_stamp_of = attrgetter("stamp")


def _flow_cost(state: FlowState) -> int:
    """Approximate heap bytes pinned by one flow's scan state."""
    cost = 256 + len(state.client_buffer) + len(state.server_buffer)
    if state.ooo_segments:
        cost += sum(len(chunk) for chunk in state.ooo_segments.values())
    return cost


def _low_value_flow(state: FlowState) -> bool:
    """Flows whose inspection already finished are the cheapest to evict:
    no classification work is lost, only a final verdict that the flow
    would need to re-earn if it ever resumes.  Blocked flows stay: their
    state keeps injecting resets on further payload."""
    return state.verdict is not None and not state.blocked


class ReassemblyMode(enum.Enum):
    """How the classifier turns packets into a matchable buffer."""

    PER_PACKET = "per-packet"  # each packet matched independently
    IN_ORDER = "in-order"  # stream assembly, out-of-order segments ignored
    FULL = "full"  # endpoint-grade stream assembly with OOO buffering


class DPIMiddlebox(NetworkElement):
    """A configurable deep-packet-inspection middlebox.

    Every argument but *name* and *policy_state* is a knob.  The engine
    resolves the knobs once into a per-packet plan: the flow-key function,
    the validation checks the profile actually runs, the reassembly and
    anchor branches, the port scope, and the idle-expiry floor.
    Per-flow constants (the normalized key and each direction's compiled
    rule view) live on the :class:`FlowState`.  Knobs read as attributes;
    assigning one raises, and :meth:`reconfigure` changes knobs and
    recompiles the plan.

    Args:
        name: element label.
        rules: the classification rules to evaluate.
        policy_state: shared marks read by shapers / accounting elements.
        validation: which malformed packets still reach the matcher.
        reassembly: see :class:`ReassemblyMode`.
        reassemble_ip_fragments: virtually reassemble fragments for
            inspection (the fragments themselves are forwarded untouched).
        inspect_packet_limit: payload packets examined per flow before a
            final verdict (None = unlimited).
        inspect_byte_limit: bytes examined per flow (None = unlimited).
        match_and_forget: commit to a final verdict (match or not) and stop
            inspecting; False re-evaluates every packet forever.
        require_protocol_anchor: give up unless the stream starts with a
            known protocol prefix.
        track_flows: classify only flows whose creation (SYN / first UDP
            packet) was seen; False (Iran) matches statelessly per packet.
        ports: restrict inspection to these server ports (None = all).
        classify_udp: whether UDP traffic is classified at all (no
            operational network we tested did).
        pre_match_timeout: seconds of silence after which an unmatched
            flow's state is flushed; may be a callable of the current clock
            (the GFC's time-of-day behaviour).
        post_match_timeout: seconds after which a verdict is flushed.
        rst_flush_pre_match: a client RST before a match flushes flow state.
        rst_flush_post_match: a client RST after a match flushes the verdict.
        rst_timeout_reduction: instead of flushing, a RST shortens both
            timeouts to this value (testbed behaviour: 120 s → 10 s).
        endpoint_block_threshold: after this many blocked flows to the same
            (server, port), block that endpoint outright (GFC: 2).
        endpoint_block_duration: seconds the endpoint stays blocked.
        protocol_agnostic_flow_keying: attribute packets to flows by port
            pair even when the IP protocol field is wrong — the testbed
            device behaved this way (Table 3 footnote 1), which is why the
            *wrong protocol* inert technique evaded it.
        max_flows: flow-table capacity; beyond it the least-recently-active
            flow is evicted (marks cleared).  This is the mechanism the
            paper hypothesizes behind Figure 4's busy-hour flushing:
            "classification results being flushed due to scarce resources".
            The victim is the oldest of the idle-expiry lane heads by
            recency stamp, so eviction is O(1) with no second LRU list.
        flow_byte_budget: optional bound on the summed scan-buffer bytes
            across tracked flows; exceeding it sheds least-recently-active
            flows (reason ``evicted-bytes``) until back under budget.
        overload: optional :class:`~repro.middlebox.overload.OverloadPolicy`
            enabling deterministic load-shedding (victim preference and
            admission shedding); None keeps historical behaviour exactly.
    """

    def __init__(
        self,
        name: str,
        rules: list[MatchRule],
        policy_state: PolicyState,
        validation: MiddleboxValidation | None = None,
        reassembly: ReassemblyMode = ReassemblyMode.PER_PACKET,
        reassemble_ip_fragments: bool = False,
        inspect_packet_limit: int | None = None,
        inspect_byte_limit: int | None = None,
        match_and_forget: bool = True,
        require_protocol_anchor: bool = False,
        track_flows: bool = True,
        ports: frozenset[int] | None = None,
        classify_udp: bool = True,
        udp_inspect_packet_limit: int | None = None,
        pre_match_timeout: TimeoutSpec = None,
        post_match_timeout: TimeoutSpec = None,
        rst_flush_pre_match: bool = False,
        rst_flush_post_match: bool = False,
        rst_timeout_reduction: float | None = None,
        endpoint_block_threshold: int | None = None,
        endpoint_block_duration: float = 90.0,
        protocol_agnostic_flow_keying: bool = False,
        max_flows: int | None = None,
        flow_byte_budget: int | None = None,
        overload: OverloadPolicy | None = None,
    ) -> None:
        self.name = name
        self.policy_state = policy_state
        knobs = locals()
        self._set_knobs({knob: knobs[knob] for knob in _KNOBS})
        self.evictions = 0
        self.sheds = 0

        self._compiled: CompiledRuleSet | None = None
        self._now = 0.0  # last packet's clock time, for event timestamps
        #: The tracked flows by normalized key, in creation order (the
        #: flush order).  Recency lives in the lanes, not here.
        self._flows: dict[FiveTuple, FlowState] = {}
        #: Idle-expiry lanes, one per timeout class (pre-match, post-match,
        #: RST override), each holding its tracked flows in last-activity
        #: order; ``FlowState.lane`` names the flow's lane.  Every tracked
        #: packet stamps its flow from ``_stamp`` and moves it to its lane's
        #: end, so stamps rise along each lane and the least recently active
        #: flow is the lane head with the smallest stamp.
        self._pre_lane: OrderedDict[FiveTuple, FlowState] = OrderedDict()
        self._post_lane: OrderedDict[FiveTuple, FlowState] = OrderedDict()
        self._rst_lane: OrderedDict[FiveTuple, FlowState] = OrderedDict()
        self._lanes = (self._pre_lane, self._post_lane, self._rst_lane)
        self._stamp = 0  # the last recency stamp handed out
        self._flow_bytes = 0  # summed FlowState.cost (byte budget only)
        self._shedder = LoadShedder(overload) if overload is not None else None
        #: Capacity eviction first looks this many flows from the LRU end
        #: for a finished one (0: strict LRU).
        self._victim_scan_limit = 0
        if overload is not None and overload.prefer_finished_victims:
            self._victim_scan_limit = overload.victim_scan_limit
        self._fragments = FragmentBuffer(name="fragments")
        self._endpoint_block_counts: FlowTable[tuple[str, int], int] = FlowTable(
            capacity=ENDPOINT_BLOCK_CAPACITY, name="endpoint_counts"
        )
        self._endpoint_block_until: FlowTable[tuple[str, int], float] = FlowTable(
            capacity=ENDPOINT_BLOCK_CAPACITY,
            name="endpoint_blocks",
            on_evict=self._endpoint_block_evicted,
        )
        self.match_log: list[tuple[float, str, FiveTuple]] = []
        #: Total matches ever logged, surviving log bounding and flushes —
        #: harnesses that bound ``match_log`` (the churn workload) read this
        #: instead of draining the log between flush points.
        self.matches_logged = 0
        #: The coverage recorder this engine last declared its universe to
        #: (identity-compared so re-registration costs one check per scan).
        self._coverage_registered: obs_coverage.CoverageRecorder | None = None
        self._compile()

    # ==================================================================
    # knobs and the compiled plan
    # ==================================================================
    def reconfigure(self, **changes: object) -> None:
        """Change knobs on a live engine and recompile its plan.

        Flow state survives: flows keep their verdicts and buffers, new
        rules apply from each flow's next scan, and changed timeouts apply
        from the next packet's idle expiry.  Raises :class:`TypeError` for
        a name that is not a knob, or for a knob that sizes the flow table
        (``flow_byte_budget``, ``overload``).
        """
        refused = sorted(set(changes).difference(_KNOBS) | _FIXED_KNOBS.intersection(changes))
        if refused:
            raise TypeError(f"reconfigure() cannot set {', '.join(refused)}: not a knob, "
                            "or fixed at construction")
        self._set_knobs(changes)
        self._compile()

    def _set_knobs(self, changes: dict[str, object]) -> None:
        max_flows = changes.get("max_flows")
        if max_flows is not None and max_flows < 1:  # type: ignore[operator]
            raise ValueError("max_flows must be >= 1")
        for knob, value in changes.items():
            if knob == "rules":
                value = tuple(value)  # type: ignore[arg-type]
            elif knob == "validation" and value is None:
                value = MiddleboxValidation.lax()
            elif knob == "ports" and value is not None:
                value = frozenset(value)  # type: ignore[arg-type]
            elif knob == "udp_inspect_packet_limit" and value is None:
                value = changes.get("inspect_packet_limit", self._inspect_packet_limit)
            setattr(self, "_" + knob, value)

    def _compile(self) -> None:
        """Resolve the knobs into the per-packet plan."""
        compiled = CompiledRuleSet.shared(self._rules)
        if compiled is not self._compiled:
            self._compiled = compiled
            self._coverage_registered = None  # new catalog: re-declare
            for state in self._flows.values():
                state.client_view = state.server_view = None
        validation = self._validation
        self._ip_check = validation.ip_check()
        self._tcp_check = validation.tcp_check()
        self._udp_check = validation.udp_check()
        self._key_of = self._agnostic_key if self._protocol_agnostic_flow_keying else FiveTuple.of
        self._per_packet = self._reassembly is ReassemblyMode.PER_PACKET
        self._all_in_scope = self._ports is None and self._classify_udp
        #: The RST lane's smallest timeout, over its live flows' overrides
        #: only (None while the lane is empty): an override set under an
        #: earlier ``rst_timeout_reduction`` still counts, and a reduction
        #: no flow has received yet does not.  :meth:`_handle_rst` lowers it
        #: and :meth:`_flow_dropped` clears it when the lane empties.
        overrides = [state.timeout_override for state in self._rst_lane.values()]
        self._rst_floor = min(overrides, default=None)
        self._set_idle_floor()
        blocking = self._endpoint_block_threshold is not None or len(self._endpoint_block_until)
        self._sweep_blocks = bool(blocking)

    def _set_idle_floor(self) -> None:
        """Set the idle-expiry floor, the smallest timeout any flow can have:
        the least of the pre- and post-match specs and the RST lane's floor.
        Callable specs (GFC time-of-day flushing) are evaluated per packet.

        Also drops the cached activity bound (``_oldest_seen``), so the next
        packet recomputes it: a lower bound on every tracked flow's
        ``last_packet_time``, which stays valid as activity times only rise
        and the clock never runs back.
        """
        specs = (self._pre_match_timeout, self._post_match_timeout, self._rst_floor)
        self._timeout_callables = tuple(spec for spec in specs if callable(spec))
        fixed = [spec for spec in specs if spec is not None and not callable(spec)]
        self._fixed_floor = min(fixed, default=math.inf)
        self._oldest_seen = -math.inf

    # ==================================================================
    # NetworkElement interface
    # ==================================================================
    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Observe one packet: update classifier state, apply policies, forward."""
        now = ctx.clock.now
        self._now = now
        floor = self._idle_floor(now) if self._timeout_callables else self._fixed_floor
        if now - self._oldest_seen > floor:
            self._gate_idle(now, floor)
        if self._sweep_blocks:
            self._lapse_endpoint_blocks(now)

        inspect_target = packet
        if packet.mf or packet.frag_offset > 0:
            if not self._reassemble_ip_fragments:
                return [packet]  # cannot attribute a fragment to a flow
            whole, fragments = self._fragments.feed(packet, now)
            if whole is None:
                return [packet]
            if obs.EVENTS is not None:
                # Provenance: which on-the-wire fragments produced the packet
                # the matcher actually saw.  Flow fields are not yet known
                # (the reassembled transport header carries them), so the
                # fragment key identifies the group.
                obs.EVENTS.emit(
                    "mbx.frag_reassembled", now, element=self.name, src=packet.src, dst=packet.dst,
                    ident=packet.identification, fragments=fragments,
                )
            inspect_target = whole

        key = self._key_of(inspect_target)
        if key is None:
            return [packet]  # non-TCP/UDP (wrong protocol field, ICMP, ...)

        if self.policy_state.blocked_endpoints and self._endpoint_blocked(
            inspect_target, key, now, ctx
        ):
            return []

        if not self._track_flows:
            self._stateless_inspect(inspect_target, now, ctx)
            return [packet]

        transport = inspect_target.transport
        tcp = transport if isinstance(transport, TCPSegment) else None
        normalized = key.normalized()
        state = self._flows.get(normalized)
        if state is None:
            state = self._new_flow(key, normalized, tcp, now)
            if state is None:
                return [packet]  # untracked mid-flow traffic is invisible to us
        else:
            state.last_packet_time = now
            state.stamp = self._stamp = self._stamp + 1
            state.lane.move_to_end(normalized)

        if tcp is not None and int(tcp.flags) & 0x04:  # RST
            self._handle_rst(state, normalized)
            return [packet]

        if not self._all_in_scope and not self._in_scope(state):
            return [packet]

        if state.verdict is not None:
            if state.blocked and inspect_target.app_payload:  # verdict: the blocking rule
                self._inject_block(state.matched_rule, state.client_tuple, inspect_target, ctx)
            return [packet]

        self._inspect(state, inspect_target, key, tcp, now, ctx)
        if self._flow_byte_budget is not None:
            self._appraise(state)  # scan buffers may have grown
        return [packet]

    def _agnostic_key(self, packet: IPPacket) -> FiveTuple | None:
        """The flow key by port pair, whatever the IP protocol field says."""
        key = FiveTuple.of(packet)
        transport = packet.transport
        if isinstance(transport, TCPSegment):
            protocol = 6
        elif isinstance(transport, UDPDatagram):
            protocol = 17
        else:
            return key
        if key is None or key.protocol == protocol:
            return key
        return FiveTuple(key.src, key.sport, key.dst, key.dport, protocol)

    def reset(self) -> None:
        """Forget every flow, fragment buffer, block counter and log entry."""
        if self._overload is not None:
            self._shedder = LoadShedder(self._overload)
        self._flows.clear()
        for lane in self._lanes:
            lane.clear()
        self._flow_bytes = 0
        self._rst_floor = None
        self._set_idle_floor()
        self._fragments.clear()
        self._endpoint_block_counts.clear()
        self._endpoint_block_until.clear()
        self.match_log.clear()
        self.matches_logged = 0

    # ==================================================================
    # flow bookkeeping
    # ==================================================================
    def _new_flow(
        self, key: FiveTuple, normalized: FiveTuple, tcp: TCPSegment | None, now: float
    ) -> FlowState | None:
        """Start tracking the flow a SYN (or first UDP datagram) opens.

        ``key.protocol`` is the inspection dispatch protocol: the flow key
        carries the packet's protocol field, or with agnostic keying the
        transport's own protocol, and every later packet that finds this
        flow has the same key protocol.
        """
        is_flow_start = key.protocol == 17 or (
            tcp is not None and int(tcp.flags) & 0x12 == 0x02  # SYN without ACK
        )
        if not is_flow_start:
            return None  # mid-flow packet for a flow we never tracked (or flushed)
        if self._shedder is not None and not self._admit_flow(key, normalized, now):
            return None  # shed: the flow forwards uninspected
        protocol = "udp" if key.protocol == 17 else "tcp"
        expected_seq = (tcp.seq + 1) & 0xFFFFFFFF if tcp is not None else None
        stamp = self._stamp = self._stamp + 1
        state = FlowState(
            client_tuple=key,
            normalized=normalized,
            protocol=protocol,
            server_port=key.dport,
            created_at=now,
            last_packet_time=now,
            lane=self._pre_lane,
            stamp=stamp,
            seq=stamp,
            expected_seq=expected_seq,
        )
        # Capacity and byte pressure evict before this flow's creation event;
        # a capacity lowered by ``reconfigure`` is reached here at once.
        if self._max_flows is not None:
            while len(self._flows) >= self._max_flows:
                self._evict(self._capacity_victim(), "evicted")
        self._flows[normalized] = state
        self._pre_lane[normalized] = state
        if self._flow_byte_budget is not None:
            self._appraise(state)
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "mbx.flow_created", now, element=self.name, flow=_flow_fields(key),
                proto_name=protocol,
            )
        return state

    def bound_flow_state(self, max_flows: int, match_log_bound: int | None = None) -> None:
        """Bound per-flow state for long-lived (live-serve) deployments.

        Table 3 cells run a handful of flows, so the historical default is
        an unbounded flow table; a transparent proxy pushes an open-ended
        flow population through the *same* engine, where unbounded per-flow
        state is a leak.  Call before serving: completed simulated flows
        never span an eviction (``run_flow`` is synchronous), so bounding
        cannot change any verdict.
        """
        self.reconfigure(max_flows=max_flows)
        if match_log_bound is not None:
            self.match_log = deque(self.match_log, maxlen=match_log_bound)

    def _admit_flow(self, key: FiveTuple, normalized: FiveTuple, now: float) -> bool:
        """Admission control under overload: decide whether to track at all."""
        shedder = self._shedder
        assert shedder is not None
        if self._max_flows is None:
            return True
        fullness = len(self._flows) / self._max_flows
        transition = shedder.crossed(fullness)
        events = obs.EVENTS
        if transition is not None and events is not None:
            events.emit(
                "mbx.overload", element=self.name, phase=transition, fullness=round(fullness, 4),
                shed=shedder.shed,
            )
        if shedder.admit(normalized, fullness):
            return True
        self.sheds += 1
        if events is not None:
            events.emit(
                "mbx.flow_shed", now, element=self.name, flow=_flow_fields(key),
                fullness=round(fullness, 4),
            )
        return False

    def _lru_flow(self) -> FlowState:
        """The least recently active flow: the lane head with the smallest
        stamp (the table must not be empty)."""
        return min((next(iter(lane.values())) for lane in self._lanes if lane), key=_stamp_of)

    def _capacity_victim(self) -> FlowState:
        """The first finished flow among the ``_victim_scan_limit`` least
        recently active ones (lanes merged by stamp), else the LRU flow."""
        if self._victim_scan_limit:
            merged = heapq.merge(*(lane.values() for lane in self._lanes), key=_stamp_of)
            for state in islice(merged, self._victim_scan_limit):
                if _low_value_flow(state):
                    return state
        return self._lru_flow()

    def _appraise(self, keep: FlowState) -> None:
        """Re-appraise the byte cost of *keep*, the flow just touched, then
        evict least recently active flows, strictly in LRU order, until the
        byte budget holds again.  *keep* is never shed: one oversized flow
        cannot empty the table."""
        cost = _flow_cost(keep)
        self._flow_bytes += cost - keep.cost
        keep.cost = cost
        while self._flow_bytes > self._flow_byte_budget:  # type: ignore[operator]
            victim = self._lru_flow()
            if victim is keep:
                break
            self._evict(victim, "evicted-bytes")

    def _evict(self, state: FlowState, reason: str) -> None:
        """Table-driven eviction (capacity or byte budget): clean up marks."""
        normalized = state.normalized
        del self._flows[normalized]
        metrics = obs.METRICS
        if metrics is not None:
            metrics.inc("mbx.flowtable.flows.evictions")
            metrics.set_gauge("mbx.flowtable.flows.size", len(self._flows))
            metrics.inc("mbx.evictions")
        self._flow_dropped(normalized, state, reason)
        self.evictions += 1

    def _in_scope(self, state: FlowState) -> bool:
        if self._ports is not None and state.server_port not in self._ports:
            return False
        return state.protocol != "udp" or self._classify_udp

    def _timeout_for(self, state: FlowState, now: float) -> float | None:
        """The flush timeout applying to the flow's current category (any
        verdict, a match or the final non-match, counts as post-match)."""
        if state.timeout_override is not None:
            return state.timeout_override
        spec = self._pre_match_timeout if state.verdict is None else self._post_match_timeout
        return spec(now) if callable(spec) else spec

    def _idle_floor(self, now: float) -> float:
        """The smallest flush timeout any flow can have at *now* (inf: none)."""
        floor = self._fixed_floor
        for spec in self._timeout_callables:
            timeout = spec(now)
            if timeout is not None and timeout < floor:
                floor = timeout
        return floor

    def _gate_idle(self, now: float, floor: float) -> None:
        """Walk the lanes if the least recently active flow is idle past
        *floor*, then set the cached activity bound to the exact oldest
        activity (its ``last_packet_time``; *now* with no flows)."""
        if self._flows and now - self._lru_flow().last_packet_time > floor:
            self._expire_idle(now)
        self._oldest_seen = self._lru_flow().last_packet_time if self._flows else now

    def _expire_idle(self, now: float) -> None:
        """Flush every flow idle past its own timeout, walking each lane.

        A lane is in last-activity order: :meth:`process` moves a flow to
        its lane's end as it stamps ``last_packet_time``, a flow changes
        lane only on one of its own packets, and the clock never runs back.
        So each lane's walk stops at the first flow idle no longer than the
        lane's timeout: every flow after it is younger still.  Stale flows
        flush in creation order (``FlowState.seq``), the order of a scan
        over the flow table.
        """
        pre, post = self._pre_match_timeout, self._post_match_timeout
        lanes = (
            (self._pre_lane, pre(now) if callable(pre) else pre),
            (self._post_lane, post(now) if callable(post) else post),
            (self._rst_lane, self._rst_floor),
        )
        stale: list[tuple[int, FiveTuple]] = []
        for lane, floor in lanes:
            if floor is None:
                continue
            for normalized, state in lane.items():
                idle = now - state.last_packet_time
                if idle <= floor:
                    break
                if idle > self._timeout_for(state, now):  # type: ignore[operator]
                    stale.append((state.seq, normalized))
        stale.sort()
        for _seq, normalized in stale:
            self._forget_flow(normalized, reason="timeout")

    def _lapse_endpoint_blocks(self, now: float) -> None:
        """End the endpoint blocks whose duration has passed."""
        if len(self._endpoint_block_until):
            expired_endpoints = [
                endpoint
                for endpoint, until in self._endpoint_block_until.items()
                if now > until
            ]
            for endpoint in expired_endpoints:
                self._endpoint_block_until.pop(endpoint)
                self.policy_state.blocked_endpoints.discard(endpoint)
                self._endpoint_block_counts.pop(endpoint)

    def _relane(self, state: FlowState) -> None:
        """Move the flow to its timeout class's lane after a verdict or an
        RST override; it joins at the recent end, as its packet is now."""
        if state.timeout_override is not None:
            lane = self._rst_lane
        else:
            lane = self._pre_lane if state.verdict is None else self._post_lane
        if state.lane is not lane:
            del state.lane[state.normalized]
            lane[state.normalized] = state
            state.lane = lane

    def _forget_flow(self, normalized: FiveTuple, reason: str = "flush") -> None:
        state = self._flows.pop(normalized, None)
        if state is None:
            return
        self._flow_dropped(normalized, state, reason)

    def _flow_dropped(self, normalized: FiveTuple, state: FlowState, reason: str) -> None:
        """Shared teardown for flushed *and* table-evicted flows."""
        lane = state.lane
        del lane[normalized]
        self._flow_bytes -= state.cost
        if lane is self._rst_lane and not lane:
            self._rst_floor = None
            self._set_idle_floor()
        self.policy_state.throttled_flows.pop(normalized, None)
        self.policy_state.zero_rated_flows.discard(normalized)
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "mbx.flow_flushed", self._now, element=self.name, reason=reason,
                flow=_flow_fields(state.client_tuple), verdict=_verdict_name(state.verdict),
            )

    def _handle_rst(self, state: FlowState, normalized: FiveTuple) -> None:
        matched = state.matched_rule is not None
        if matched and self._rst_flush_post_match:
            self._forget_flow(normalized, reason="rst-post-match")
        elif not matched and self._rst_flush_pre_match:
            self._forget_flow(normalized, reason="rst-pre-match")
        elif self._rst_timeout_reduction is not None:
            reduction = state.timeout_override = self._rst_timeout_reduction
            self._relane(state)
            if self._rst_floor is None or reduction < self._rst_floor:
                self._rst_floor = reduction
                self._set_idle_floor()
            if obs.EVENTS is not None:
                obs.EVENTS.emit(
                    "mbx.rst_timeout_reduced", self._now, element=self.name,
                    flow=_flow_fields(state.client_tuple), timeout=self._rst_timeout_reduction,
                )

    # ==================================================================
    # inspection
    # ==================================================================
    def _inspect(
        self,
        state: FlowState,
        packet: IPPacket,
        key: FiveTuple,
        tcp: TCPSegment | None,
        now: float,
        ctx: TransitContext,
    ) -> None:
        if not self._ip_check(packet):
            return
        # Every key of one flow normalizes alike (protocol included), so it
        # equals the client tuple exactly when its source endpoint does.
        direction = "client" if key == state.client_tuple else "server"
        if key.protocol == 6 and tcp is not None:
            expected = state.expected_seq if direction == "client" else None
            if not self._tcp_check(packet, tcp, expected):
                return
            payload = tcp.payload
            if payload and direction == "client" and not self._per_packet:
                payload = self._stream_payload(state, tcp, payload)
        elif key.protocol == 17 and isinstance(packet.transport, UDPDatagram):
            udp = packet.transport
            if self._udp_check is not None and not self._udp_check(packet, udp):
                return
            payload = udp.payload
        else:
            return
        if not payload:
            return

        if direction == "client":
            index = state.client_packets
            state.client_packets += 1
        else:
            index = state.server_packets
            state.server_packets += 1
            view = state.server_view
            coverage = obs.COVERAGE
            if view is None or (coverage is not None and self._coverage_registered is not coverage):
                view = state.server_view = self._view(state.protocol, state.server_port, "server")
            if not view.rules:
                # No rule reads server bytes: hold and scan none of them.
                if self._window_exhausted(state) and self._match_and_forget:
                    self._finalize_unclassified(state, "window-exhausted", now)
                return

        if self._per_packet:
            buffer: bytes | bytearray = payload
        else:
            buffer = state.client_buffer if direction == "client" else state.server_buffer
            buffer.extend(payload)
            if self._inspect_byte_limit is not None:
                del buffer[self._inspect_byte_limit :]

        if direction == "client" and self._require_protocol_anchor and state.anchor_ok is None:
            self._decide_anchor(state, payload, buffer, index)
            events = obs.EVENTS
            if state.anchor_ok is not None and events is not None:
                events.emit(
                    "mbx.anchor", now, element=self.name, flow=_flow_fields(state.client_tuple),
                    ok=state.anchor_ok,
                )
            if state.anchor_ok is False:
                if self._match_and_forget:
                    self._finalize_unclassified(state, "anchor-failed", now)
                return
            if state.anchor_ok is None and state.protocol == "tcp":
                # Stream modes postpone the anchor decision until enough
                # bytes assemble; matching waits with it.
                if self._window_exhausted(state) and self._match_and_forget:
                    self._finalize_unclassified(state, "window-exhausted", now)
                return

        if direction == "client":  # the server's view is resolved above
            view = state.client_view
            coverage = obs.COVERAGE
            if view is None or (coverage is not None and self._coverage_registered is not coverage):
                view = state.client_view = self._view(state.protocol, state.server_port, "client")
        scan: StreamScan | None = None
        if not self._per_packet:
            scan = state.client_scan if direction == "client" else state.server_scan
            if scan is None:
                scan = StreamScan()
                if direction == "client":
                    state.client_scan = scan
                else:
                    state.server_scan = scan
        metrics = obs.METRICS
        if metrics is not None:
            # Bytes the matcher actually walks: whole buffer per packet in
            # per-packet mode, only the un-scanned tail past the watermark in
            # stream modes (the incremental-scan optimisation).
            scanned = len(buffer) if scan is None else max(0, len(buffer) - scan.watermark)
            metrics.inc("mbx.scan_bytes", scanned)
            metrics.observe("mbx.scan.payload_bytes", scanned)
        ops = obs.OPS
        if ops is None:
            matched = view.match(buffer, payload, index, scan)
        else:
            started = time.perf_counter()
            matched = view.match(buffer, payload, index, scan)
            ops.record("mbx.scan", time.perf_counter() - started)
        if matched is not None:
            state.verdict = matched
            state.match_time = now
            self._relane(state)
            self.match_log.append((now, matched.name, state.client_tuple))
            self.matches_logged += 1
            events = obs.EVENTS
            if events is not None:
                flow = state.client_tuple
                self._emit_rule_match(
                    events, flow, view, matched, buffer, index, direction, scan, now
                )
                events.emit(
                    "mbx.verdict", now, element=self.name, flow=_flow_fields(flow),
                    verdict=matched.name, reason="rule-match",
                )
            self._apply_policy(state, matched, packet, ctx)
            return

        if self._window_exhausted(state) and self._match_and_forget:
            self._finalize_unclassified(state, "window-exhausted", now)

    def _finalize_unclassified(self, state: FlowState, reason: str, now: float) -> None:
        """Commit the match-and-forget "never going to match" verdict."""
        state.verdict = UNCLASSIFIED_FINAL
        self._relane(state)
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "mbx.verdict", now, element=self.name, flow=_flow_fields(state.client_tuple),
                verdict=UNCLASSIFIED_FINAL, reason=reason,
            )

    def _emit_rule_match(
        self,
        events: EventFanOut,
        flow: FiveTuple,
        view: CompiledView,
        rule: MatchRule,
        buffer: bytes | bytearray,
        index: int | None,
        direction: str,
        scan: StreamScan | None,
        now: float,
    ) -> None:
        """The causal core of a trace: which rule fired, where, and on what.

        The matched byte range is the first keyword occurrence in the
        inspected buffer (None for STUN-attribute rules, which match parsed
        structure rather than a substring), and the watermark is the
        incremental-scan position from :mod:`repro.middlebox.ruleindex` —
        together they say exactly which bytes convicted the flow.
        """
        match_start = match_end = None
        data = bytes(buffer)
        for keyword in rule.keywords:
            offset = data.find(keyword)
            if offset >= 0 and (match_start is None or offset < match_start):
                match_start, match_end = offset, offset + len(keyword)
        events.emit(
            "mbx.rule_match", now, element=self.name, rule=rule.name,
            action=rule.policy.action.value, flow=_flow_fields(flow), dir=direction,
            packet_index=index, match_start=match_start, match_end=match_end,
            watermark=scan.watermark if scan is not None else None, buffer_len=len(buffer),
            automaton=view.automaton.digest if view.automaton.patterns else None,
            scan_node=scan.node if scan is not None else None, rule_scope=view.scope,
        )

    def _decide_anchor(
        self, state: FlowState, payload: bytes, buffer: bytes | bytearray, index: int
    ) -> None:
        """Settle the protocol-anchor check when enough evidence exists.

        Per-packet classifiers judge the first payload packet as-is (one
        byte of leading payload defeats them); stream classifiers judge the
        assembled stream once at least ``ANCHOR_MIN_BYTES`` are contiguous.
        """
        if state.protocol == "udp":
            state.anchor_ok = True
            return
        if self._per_packet:
            if index == 0:
                state.anchor_ok = payload.startswith(PROTOCOL_ANCHORS)
            return
        if len(buffer) >= ANCHOR_MIN_BYTES:
            state.anchor_ok = buffer.startswith(PROTOCOL_ANCHORS)

    def _stream_payload(self, state: FlowState, segment: TCPSegment, payload: bytes) -> bytes:
        """The new in-sequence client bytes a segment adds to the stream."""
        if state.expected_seq is None:
            state.expected_seq = segment.seq  # no SYN seen (shouldn't happen when tracked)
        ahead = (segment.seq - state.expected_seq) & 0xFFFFFFFF
        if ahead == 0:
            state.expected_seq = (state.expected_seq + len(payload)) & 0xFFFFFFFF
            assembled = bytearray(payload)
            if self._reassembly is ReassemblyMode.FULL:
                while state.expected_seq in state.ooo_segments:
                    chunk = state.ooo_segments.pop(state.expected_seq)
                    assembled.extend(chunk)
                    state.expected_seq = (state.expected_seq + len(chunk)) & 0xFFFFFFFF
            return bytes(assembled)
        if ahead < 0x8000_0000:
            # Future data: only FULL mode buffers it; IN_ORDER ignores it.
            if self._reassembly is ReassemblyMode.FULL:
                state.ooo_segments.setdefault(segment.seq, payload)
            return b""
        behind = 0x1_0000_0000 - ahead
        if behind >= len(payload):
            return b""  # duplicate of old data
        fresh = payload[behind:]
        state.expected_seq = (state.expected_seq + len(fresh)) & 0xFFFFFFFF
        return fresh

    def _view(self, protocol: str, server_port: int, direction: str) -> CompiledView:
        """The precompiled rule view for this flow context (declaring the
        rule universe to a newly live coverage recorder first)."""
        coverage = obs.COVERAGE
        if coverage is not None and self._coverage_registered is not coverage:
            self._compiled.register_coverage(coverage)
            self._coverage_registered = coverage
        return self._compiled.view(protocol, server_port, direction)

    def _window_exhausted(self, state: FlowState) -> bool:
        udp = state.protocol == "udp"
        limit = self._udp_inspect_packet_limit if udp else self._inspect_packet_limit
        if limit is not None and state.client_packets >= limit:
            return True
        byte_limit = self._inspect_byte_limit
        return byte_limit is not None and len(state.client_buffer) >= byte_limit

    # ==================================================================
    # stateless (Iran-style) inspection
    # ==================================================================
    def _stateless_inspect(self, packet: IPPacket, now: float, ctx: TransitContext) -> None:
        key = FiveTuple.of(packet)  # the packet's own key, whatever the keying
        if not self._ip_check(packet):
            return
        protocol = key.protocol
        if protocol == 17 and not self._classify_udp:
            return
        payload = b""
        server_port = key.dport
        direction = "client"
        transport = packet.transport
        if protocol == 6 and isinstance(transport, TCPSegment):
            if not self._tcp_check(packet, transport, None):
                return
            payload = transport.payload
            # Heuristic orientation: traffic *to* a rule port is client-side.
            if self._ports is not None and transport.sport in self._ports:
                direction = "server"
                server_port = key.sport
        elif protocol == 17 and isinstance(transport, UDPDatagram):
            if self._udp_check is not None and not self._udp_check(packet, transport):
                return
            payload = transport.payload
        if not payload:
            return
        if self._ports is not None and server_port not in self._ports:
            return
        if obs.METRICS is not None:
            obs.METRICS.inc("mbx.scan_bytes", len(payload))
            obs.METRICS.observe("mbx.scan.payload_bytes", len(payload))
        view = self._view("udp" if protocol == 17 else "tcp", server_port, direction)
        ops = obs.OPS
        if ops is None:
            rule = view.match_stateless(payload)
        else:
            started = time.perf_counter()
            rule = view.match_stateless(payload)
            ops.record("mbx.scan", time.perf_counter() - started)
        if rule is not None:
            self.match_log.append((now, rule.name, key))
            self.matches_logged += 1
            events = obs.EVENTS
            if events is not None:
                self._emit_rule_match(events, key, view, rule, payload, None, direction, None, now)
            self._apply_stateless_policy(rule, packet, key, ctx)

    # ==================================================================
    # policy application
    # ==================================================================
    def _apply_policy(
        self, state: FlowState, rule: MatchRule, packet: IPPacket, ctx: TransitContext
    ) -> None:
        key = state.client_tuple
        action = rule.policy.action
        if action is PolicyAction.THROTTLE:
            self.policy_state.throttle(key, rule.policy.throttle_rate_bps)
        elif action is PolicyAction.ZERO_RATE:
            self.policy_state.zero_rate(key)
            if rule.policy.also_throttle:
                self.policy_state.throttle(key, rule.policy.throttle_rate_bps)
        elif action in (PolicyAction.BLOCK_RST, PolicyAction.BLOCK_PAGE):
            state.blocked = True
            self._register_endpoint_block(key, ctx)
            self._inject_block(rule, key, packet, ctx)

    def _apply_stateless_policy(
        self, rule: MatchRule, packet: IPPacket, key: FiveTuple, ctx: TransitContext
    ) -> None:
        action = rule.policy.action
        if action is PolicyAction.THROTTLE:
            self.policy_state.throttle(key, rule.policy.throttle_rate_bps)
        elif action is PolicyAction.ZERO_RATE:
            self.policy_state.zero_rate(key)
        elif action in (PolicyAction.BLOCK_RST, PolicyAction.BLOCK_PAGE):
            self._inject_block(rule, key, packet, ctx)

    def _endpoint_block_evicted(self, endpoint: tuple[str, int], until: float) -> None:
        """Endpoint-block capacity pressure: the block simply lapses early."""
        self.policy_state.blocked_endpoints.discard(endpoint)
        self._endpoint_block_counts.pop(endpoint)

    def _register_endpoint_block(self, key: FiveTuple, ctx: TransitContext) -> None:
        if self._endpoint_block_threshold is None:
            return
        endpoint = (key.dst, key.dport)
        count = (self._endpoint_block_counts.get(endpoint) or 0) + 1
        self._endpoint_block_counts.insert(endpoint, count)
        if count >= self._endpoint_block_threshold:
            until = ctx.clock.now + self._endpoint_block_duration
            self.policy_state.blocked_endpoints.add(endpoint)
            self._endpoint_block_until.insert(endpoint, until)
            if obs.EVENTS is not None:
                obs.EVENTS.emit(
                    "mbx.endpoint_block", ctx.clock.now, element=self.name,
                    endpoint=f"{endpoint[0]}:{endpoint[1]}", until=round(until, 6),
                )

    def _endpoint_blocked(
        self, packet: IPPacket, key: FiveTuple, now: float, ctx: TransitContext
    ) -> bool:
        endpoint = (key.dst, key.dport)
        if endpoint not in self.policy_state.blocked_endpoints:
            return False
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "mbx.endpoint_block_hit", now, element=self.name,
                endpoint=f"{endpoint[0]}:{endpoint[1]}", flow=_flow_fields(key),
            )
        # Disrupt the connection attempt outright.
        rst = TCPSegment(sport=key.dport, dport=key.sport, seq=0, ack=0, flags=TCPFlags.RST)
        if packet.effective_protocol == 6:
            ctx.inject_back(IPPacket(src=key.dst, dst=key.src, transport=rst))
        return True

    def _inject_block(
        self, rule: MatchRule, client_tuple: FiveTuple, packet: IPPacket, ctx: TransitContext
    ) -> None:
        behavior = rule.policy.block
        client, sport = client_tuple.src, client_tuple.sport
        server, dport = client_tuple.dst, client_tuple.dport
        going_to_server = packet.dst == server
        seq_guess = 0
        tcp = packet.tcp
        if tcp is not None:
            seq_guess = (tcp.seq + len(tcp.payload)) & 0xFFFFFFFF

        def toward_client(transport: TCPSegment) -> None:
            injected = IPPacket(src=server, dst=client, transport=transport)
            if going_to_server:
                ctx.inject_back(injected)
            else:
                ctx.inject_forward(injected)

        def toward_server(transport: TCPSegment) -> None:
            injected = IPPacket(src=client, dst=server, transport=transport)
            if going_to_server:
                ctx.inject_forward(injected)
            else:
                ctx.inject_back(injected)

        if behavior.block_page is not None:
            toward_client(
                TCPSegment(
                    sport=dport,
                    dport=sport,
                    seq=1,
                    ack=seq_guess,
                    flags=TCPFlags.ACK | TCPFlags.PSH,
                    payload=behavior.block_page,
                )
            )
        for _ in range(behavior.rsts_to_client):
            toward_client(
                TCPSegment(sport=dport, dport=sport, seq=1, ack=seq_guess, flags=TCPFlags.RST)
            )
        for _ in range(behavior.rsts_to_server):
            toward_server(
                TCPSegment(sport=sport, dport=dport, seq=seq_guess, flags=TCPFlags.RST)
            )

    # ==================================================================
    # readout (testbed ground truth)
    # ==================================================================
    def classification_of(self, client: str, sport: int, server: str, dport: int) -> str | None:
        """The current verdict for a flow: rule name, "unclassified-final", or None."""
        for protocol in (6, 17):
            lookup = FiveTuple(
                src=client, sport=sport, dst=server, dport=dport, protocol=protocol
            ).normalized()
            state = self._flows.get(lookup)
            if state is not None:
                if isinstance(state.verdict, MatchRule):
                    return state.verdict.name
                return state.verdict
        if not self._track_flows:
            # Stateless classifiers keep no flow table; the match log is the
            # only readout.
            for _time, rule_name, key in reversed(self.match_log):
                if key.src == client and key.sport == sport and key.dport == dport:
                    return rule_name
        return None

    def ever_matched(self, client: str, sport: int) -> bool:
        """True when any match was logged for this client endpoint (any flow)."""
        return any(
            key.src == client and key.sport == sport for _t, _rule, key in self.match_log
        )


def _knob_property(knob: str) -> property:
    def refuse(self: DPIMiddlebox, value: object) -> None:
        raise AttributeError(f"{knob} is compiled into the plan; use reconfigure({knob}=...)")

    return property(attrgetter("_" + knob), refuse, doc=f"The ``{knob}`` knob (read-only).")


for _knob in _KNOBS:
    setattr(DPIMiddlebox, _knob, _knob_property(_knob))
del _knob
