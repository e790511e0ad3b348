"""Differential tests: the compiled frame loop against a naive walk.

``Path._propagate`` runs each frame in one loop over a per-direction plan
(bound ``process`` methods, router runs resolved once) and coalesces
router runs.  ``_ReferencePath`` below walks hop by hop, recursively, with
no plan, no coalescing and a fresh context per hop.  Replays through every
environment chain and through the neutral path of each OS profile must
deliver the same bytes at the same virtual times, leave the clock, the
propagation counter, router drop reasons and the replay outcome (DPI
classification included) equal, and emit the same trace.

The plan follows ``path.elements`` however it is edited, and a scheduled
server-edge frame starts at the chain's server edge as it is when the
frame fires.  The shaper's inlined base bucket and the characterizer's
batched random filler are checked against the code they replace.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.characterization import Characterizer
from repro.core.evasion.base import EvasionContext
from repro.core.evasion.inert import LowTTLInert
from repro.core.evasion.splitting import IPFragmentation
from repro.endpoint.osmodel import ALL_OS_PROFILES
from repro.envs import ENVIRONMENT_FACTORIES, make_neutral, make_testbed
from repro.experiments.workloads import prepare, tcp_workload
from repro.netsim import path as netsim_path
from repro.netsim.clock import VirtualClock
from repro.netsim.element import NetworkElement, TransitContext
from repro.netsim.hop import RouterHop
from repro.netsim.path import Path, packets_propagated
from repro.netsim.scheduler import EventScheduler
from repro.netsim.shaper import PolicyState, TokenBucket, TokenBucketShaper
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.udp import UDPDatagram
from repro.replay.session import ReplaySession

CLIENT = "10.9.0.2"
SERVER = "203.0.113.77"


class _Logged:
    """An endpoint wrapper that logs each delivery as (side, time, wire)."""

    def __init__(self, inner, side: str, path: Path) -> None:
        self.inner = inner
        self.side = side
        self.path = path

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        self.path.deliveries.append((self.side, self.path.clock.now, packet.to_bytes()))
        return self.inner.receive(packet)


class _RecordingPath(Path):
    """The compiled path, logging every endpoint delivery."""

    def __init__(self, *args, **kwargs) -> None:
        self.deliveries: list[tuple[str, float, bytes]] = []
        super().__init__(*args, **kwargs)

    def __setattr__(self, name: str, value) -> None:
        if name in ("client_endpoint", "server_endpoint"):
            value = _Logged(value, name.split("_")[0], self)
        super().__setattr__(name, value)


class _ReferencePath(_RecordingPath):
    """Hop by hop and recursive: no plan, no router-run coalescing.

    Extra outputs and endpoint responses complete, in order, before the
    walk that produced them continues — the depth-first order contract.
    """

    def _propagate(self, packet, direction, index=None, depth=0):
        netsim_path._packets_propagated_total += 1
        if depth > self.max_depth:
            raise RuntimeError("packet propagation exceeded max depth (response loop?)")
        step = 1 if direction is Direction.CLIENT_TO_SERVER else -1
        if index is None:
            index = 0 if step == 1 else len(self.elements) - 1
        current, i = packet, index
        while 0 <= i < len(self.elements):
            element = self.elements[i]
            ctx = TransitContext(
                clock=self.clock,
                inject_back=lambda p, i=i: self._propagate(
                    p, direction.reversed, i - step, depth + 1
                ),
                inject_forward=lambda p, i=i: self._propagate(p, direction, i + step, depth + 1),
            )
            outputs = element.process(current, direction, ctx)
            tracer = obs.TRACER
            if tracer is not None:
                tracer.emit(
                    "hop.traverse",
                    self.clock.now,
                    element=element.name,
                    dir=direction.value,
                    out=len(outputs),
                    **obs_trace.packet_fields(current),
                )
            if not outputs:
                return
            for extra in outputs[:-1]:
                self._propagate(extra, direction, i + step, depth + 1)
            current = outputs[-1]
            i += step
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "endpoint.deliver",
                self.clock.now,
                endpoint="server" if step == 1 else "client",
                dir=direction.value,
                **obs_trace.packet_fields(current),
            )
        endpoint = self.server_endpoint if step == 1 else self.client_endpoint
        for response in endpoint.receive(current):
            self._propagate(response, direction.reversed, None, depth + 1)


# ----------------------------------------------------------------------
# (a) every environment chain, compiled vs reference
# ----------------------------------------------------------------------
def _env_factories():
    factories = dict(ENVIRONMENT_FACTORIES)
    for profile in ALL_OS_PROFILES:
        factories[f"neutral-{profile.name}"] = lambda profile=profile: make_neutral(profile)
    return factories


FACTORIES = _env_factories()
#: Replay name -> technique: a clean replay, a TTL-limited inert packet
#: (ICMP injected back) and IP fragmentation (reassembled in the DPI).
REPLAYS = {"clean": None, "low-ttl": LowTTLInert, "fragmentation": IPFragmentation}


def _replay(env_name: str, replay: str, path_cls: type, traced: bool):
    env = FACTORIES[env_name]()
    old = env.path
    env.path = path_cls(old.clock, old.elements, old.max_depth)
    if env.name.startswith("neutral-"):
        trace = tcp_workload("testbed")
        context = EvasionContext(protocol="tcp", middlebox_hops=0)
    else:
        trace = tcp_workload(env.name)
        context = prepare(env, characterize=False).tcp_context
    make = REPLAYS[replay]
    technique = None if make is None else make()
    events = None
    before = packets_propagated()
    if traced:
        tracer = obs_trace.FlowTracer()
        with obs.installed(TRACER=tracer):
            outcome = ReplaySession(env, trace).run(technique=technique, context=context)
        events = [(event.kind, event.fields) for event in tracer.events()]
    else:
        outcome = ReplaySession(env, trace).run(technique=technique, context=context)
    propagated = packets_propagated() - before
    routers = [
        (element.name, dict(element.drop_reasons))
        for element in env.path.elements
        if isinstance(element, RouterHop)
    ]
    dpi = env.dpi()
    return {
        "deliveries": env.path.deliveries,
        "now": env.clock.now,
        "propagated": propagated,
        "routers": routers,
        "outcome": outcome,  # its ``classification`` is the DPI's verdict
        "match_log": None if dpi is None else list(dpi.match_log),
        "events": events,
    }


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("replay", sorted(REPLAYS))
@pytest.mark.parametrize("env_name", sorted(FACTORIES))
def test_compiled_loop_equals_reference_walk(env_name, replay, traced):
    compiled = _replay(env_name, replay, _RecordingPath, traced)
    reference = _replay(env_name, replay, _ReferencePath, traced)
    assert compiled["deliveries"], "nothing reached an endpoint"
    for key in compiled:
        assert compiled[key] == reference[key], key


def test_cases_exercise_injection_and_expiry():
    """The cases above are not vacuous: the censor injects, routers expire."""
    gfc = _replay("gfc", "clean", _RecordingPath, False)
    assert gfc["outcome"].rst_count > 0
    assert gfc["outcome"].classification.startswith("gfc:")
    low_ttl = _replay("testbed", "low-ttl", _RecordingPath, False)
    assert any(reasons.get("ttl-expired") for _name, reasons in low_ttl["routers"])


class _Fanout(NetworkElement):
    """Splits each short client payload into three longer ones.

    It also injects a note back toward the client and one forward, so
    extras, their order and both injection indices are exercised.
    """

    def __init__(self, name: str, below: int) -> None:
        self.name = name
        self.below = below

    def process(self, packet, direction, ctx):
        payload = packet.transport.payload
        if direction is not Direction.CLIENT_TO_SERVER or len(payload) >= self.below:
            return [packet]
        ctx.inject_back(_packet(SERVER, CLIENT, b"back:" + payload))
        ctx.inject_forward(_packet(CLIENT, SERVER, b"fwd:" + payload))
        return [_packet(payload=payload + bytes([48 + k])) for k in range(3)]


class _Echo:
    def receive(self, packet: IPPacket) -> list[IPPacket]:
        payload = packet.transport.payload
        if payload.startswith(b"fwd:"):
            return []
        return [_packet(SERVER, CLIENT, b"re:" + payload), _packet(SERVER, CLIENT, b"ok")]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_extras_and_injections_keep_depth_first_order(traced):
    def run(path_cls):
        path = path_cls(
            VirtualClock(),
            [RouterHop("r0"), _Fanout("f1", 2), RouterHop("r1"), RouterHop("r2"), _Fanout("f2", 3)],
        )
        path.server_endpoint = _Echo()
        path.client_endpoint = _Sink()
        before = packets_propagated()
        if traced:
            tracer = obs_trace.FlowTracer()
            with obs.installed(TRACER=tracer):
                path.send_from_client(_packet(payload=b"x"))
            events = [(event.kind, event.fields) for event in tracer.events()]
        else:
            path.send_from_client(_packet(payload=b"x"))
            events = None
        return path.deliveries, packets_propagated() - before, events

    compiled = run(_RecordingPath)
    assert len(compiled[0]) == 35
    assert compiled == run(_ReferencePath)


# ----------------------------------------------------------------------
# (b) the plan follows the chain
# ----------------------------------------------------------------------
class _Marker(NetworkElement):
    """Logs its name for each packet it forwards."""

    def __init__(self, name: str, log: list[str]) -> None:
        self.name = name
        self.log = log

    def process(self, packet, direction, ctx):
        self.log.append(self.name)
        return [packet]


class _Sink:
    def __init__(self) -> None:
        self.received: list[IPPacket] = []

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        self.received.append(packet)
        return []


def _packet(src: str = CLIENT, dst: str = SERVER, payload: bytes = b"q") -> IPPacket:
    return IPPacket(src=src, dst=dst, transport=UDPDatagram(sport=5353, dport=53, payload=payload))


def _walked(path: Path, log: list[str]) -> tuple[list[str], list[str]]:
    """Names walked by one client-edge and one server-edge frame."""
    log.clear()
    path.send_from_client(_packet())
    up = list(log)
    log.clear()
    path.send_from_server(_packet(SERVER, CLIENT))
    return up, list(log)


EDITS = {
    "insert": lambda path, new: path.elements.insert(1, new),
    "append": lambda path, new: path.elements.append(new),
    "remove": lambda path, new: path.elements.remove(path.elements[1]),
    "pop": lambda path, new: path.elements.pop(),
    "insert_element": lambda path, new: path.insert_element(new, 0),
    "rebind": lambda path, new: setattr(path, "elements", [new, *path.elements[::-1]]),
    "replace-slot": lambda path, new: path.elements.__setitem__(0, new),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_next_frame_walks_the_edited_chain(edit):
    log: list[str] = []
    path = Path(
        VirtualClock(),
        [_Marker("a", log), RouterHop("r1"), RouterHop("r2"), _Marker("b", log)],
    )
    assert _walked(path, log) == (["a", "b"], ["b", "a"])
    EDITS[edit](path, _Marker("new", log))
    names = [element.name for element in path.elements if isinstance(element, _Marker)]
    assert _walked(path, log) == (names, names[::-1])
    # A router run that the edit split or joined coalesces by the new chain.
    routers = [element for element in path.elements if type(element) is RouterHop]
    packet = _packet()
    packet.ttl = len(routers) + 1
    path.server_endpoint = _Sink()
    path.send_from_client(packet)
    assert [p.ttl for p in path.server_endpoint.received] == [1]
    assert all(not router.drop_reasons for router in routers)


def test_scheduled_server_frame_starts_at_the_edge_it_fires_at():
    log: list[str] = []
    path = Path(VirtualClock(), [_Marker("a", log), RouterHop("r1")])
    scheduler = path.bind_scheduler(EventScheduler(path.clock))
    scheduler.at(1.0, path.send_from_server, _packet(SERVER, CLIENT))
    path.elements.append(_Marker("edge", log))
    path.run()
    assert log == ["edge", "a"]


# ----------------------------------------------------------------------
# (c) the shaper's inlined base bucket against TokenBucket.consume
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    rate_bps=st.floats(min_value=8_000.0, max_value=1e9),
    burst=st.floats(min_value=1.0, max_value=128_000.0),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1472),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_shaper_base_link_equals_consume(rate_bps, burst, steps):
    shaper = TokenBucketShaper(PolicyState())
    shaper.base_bucket = TokenBucket(rate_bps=rate_bps, burst_bytes=burst)
    reference = TokenBucket(rate_bps=rate_bps, burst_bytes=burst)
    clock, reference_clock = VirtualClock(), VirtualClock()
    ctx = TransitContext(clock=clock, inject_back=print, inject_forward=print)
    for size, gap in steps:
        clock.advance(gap)
        reference_clock.advance(gap)
        packet = IPPacket(
            src=CLIENT, dst=SERVER, transport=UDPDatagram(sport=1, dport=2, payload=bytes(size))
        )
        assert shaper.process(packet, Direction.SERVER_TO_CLIENT, ctx) == [packet]
        reference.consume(packet.wire_length(), reference_clock)
        bucket = shaper.base_bucket
        assert (clock.now, bucket._tokens, bucket._last) == (
            reference_clock.now,
            reference._tokens,
            reference._last,
        )


# ----------------------------------------------------------------------
# (d) the batched random filler against randrange
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 0x11BE7A7E, 2**40 + 7])
def test_random_payload_equals_randrange_bytes(seed):
    characterizer = Characterizer(make_testbed(), tcp_workload("testbed"))
    characterizer._rng = random.Random(seed)
    old = random.Random(seed)
    for size in (0, 1, 2, 7, 1500, 3):
        assert characterizer._random_payload(size) == bytes(
            old.randrange(256) for _ in range(size)
        )
        assert characterizer._rng.getstate() == old.getstate()
