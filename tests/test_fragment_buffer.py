"""FragmentBuffer: every fragment holder against the bucket loop it replaced.

Six holders buffer IP fragments: the in-network reassembler, the DPI
engine's virtual reassembly, the transparent proxy, the normalizer and the
TCP and UDP endpoint stacks.  Each used to keep its own
``(src, dst, identification, protocol)`` bucket loop (``reference_feed``
below); all now share :class:`~repro.packets.fragment.FragmentBuffer`.  The
property test feeds any arrival order, duplication and overlap of
``fragment_packet`` output through every holder and demands the datagram
the bucket loop yields after each arrival (and, where a holder reports it,
the same fragment count).  The remaining tests pin the bound (4096 groups,
the oldest by creation dropped first) and the timeout (strictly later than
``timeout`` after the group's first fragment).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.endpoint.osmodel import LINUX
from repro.endpoint.tcpstack import TCPServerStack
from repro.endpoint.udpstack import UDPServerStack
from repro.middlebox.engine import DPIMiddlebox
from repro.middlebox.normalizer import TrafficNormalizer
from repro.middlebox.proxy import TransparentHTTPProxy
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.reassembler import FragmentReassembler
from repro.netsim.shaper import PolicyState
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.fragment import (
    FRAGMENT_GROUPS,
    FragmentBuffer,
    fragment_packet,
    reassemble_fragments,
)
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

SRC, DST = "10.7.0.2", "198.51.100.9"
C2S = Direction.CLIENT_TO_SERVER


def reference_feed(pending: dict, packet: IPPacket) -> tuple[IPPacket | None, int]:
    """The per-holder bucket loop every fragment holder used to carry."""
    key = (packet.src, packet.dst, packet.identification, packet.effective_protocol)
    bucket = pending.setdefault(key, [])
    bucket.append(packet)
    whole = reassemble_fragments(bucket)
    if whole is not None:
        del pending[key]
    return whole, len(bucket)


def _ctx(clock: VirtualClock | None = None) -> TransitContext:
    return TransitContext(
        clock=clock or VirtualClock(), inject_back=lambda p: None, inject_forward=lambda p: None
    )


def _datagram(kind: str, size: int, ident: int) -> IPPacket:
    body = bytes((ident + i) % 251 for i in range(size))
    if kind == "tcp":
        transport = TCPSegment(
            sport=41_000, dport=8080, seq=7, ack=1, flags=TCPFlags.ACK | TCPFlags.PSH, payload=body
        )
    else:
        transport = UDPDatagram(sport=41_000, dport=8080, payload=body)
    return IPPacket(src=SRC, dst=DST, transport=transport, identification=ident)


# Each holder as feed(packet) -> the datagram it passes on (or None), and
# the fragment count it reports for that arrival (None: it reports none).
def _reassembler():
    element, ctx = FragmentReassembler(), _ctx()

    def feed(packet):
        tracer = obs_trace.FlowTracer()
        with obs.installed(TRACER=tracer):
            out = element.process(packet, C2S, ctx)
        (event,) = tracer.events("frag")
        count = event.fields["fragments" if out else "pending"]
        return (out[0] if out else None), count

    return feed


def _engine():
    engine = DPIMiddlebox(
        name="frag-dpi", rules=[], policy_state=PolicyState(), reassemble_ip_fragments=True
    )
    inspected = []
    key_of = engine._key_of

    def record(packet):  # the engine keys exactly the packet it inspects
        inspected.append(packet)
        return key_of(packet)

    engine._key_of = record
    ctx = _ctx()

    def feed(packet):
        inspected.clear()
        tracer = obs_trace.FlowTracer()
        with obs.installed(TRACER=tracer):
            assert engine.process(packet, C2S, ctx) == [packet]
        events = tracer.events("mbx.frag_reassembled")
        count = events[0].fields["fragments"] if events else None
        return (inspected[0] if inspected else None), count

    return feed


def _forwarding(element):
    ctx = _ctx()

    def feed(packet):
        out = element.process(packet, C2S, ctx)
        return (out[0] if out else None), None

    return feed


def _normalizer():
    """The normalizer forwards a reassembled datagram or, when it fails
    the norm rule set (a group mixing two datagrams under one
    identification), records it as dropped."""
    element, ctx = TrafficNormalizer(), _ctx()

    def feed(packet):
        dropped = len(element.dropped)
        out = element.process(packet, C2S, ctx)
        if out:
            return out[0], None
        return (element.dropped[-1] if len(element.dropped) > dropped else None), None

    return feed


class _RecordingOS:
    """Linux, recording each packet the IP layer judges: a stack judges
    exactly the datagram it reassembled."""

    def __init__(self) -> None:
        self.judged: list[IPPacket] = []

    def __getattr__(self, name):
        return getattr(LINUX, name)

    def verdict_for_ip(self, packet):
        self.judged.append(packet)
        return LINUX.verdict_for_ip(packet)


def _stack(stack_cls):
    os_profile = _RecordingOS()
    stack = stack_cls(DST, os_profile=os_profile)

    def feed(packet):
        os_profile.judged.clear()
        stack.receive(packet)
        return (os_profile.judged[0] if os_profile.judged else None), None

    return feed


HOLDERS = {
    "reassembler": _reassembler,
    "engine": _engine,
    "proxy": lambda: _forwarding(TransparentHTTPProxy(PolicyState())),
    "normalizer": _normalizer,
    "tcp-stack": lambda: _stack(TCPServerStack),
    "udp-stack": lambda: _stack(UDPServerStack),
}


@st.composite
def arrivals(draw):
    """Fragments of one or two datagrams, in any order, duplicated, and
    mixed with a second split of the same datagram (overlap)."""
    kind = draw(st.sampled_from(["tcp", "udp"]))
    first = _datagram(kind, draw(st.integers(40, 160)), 0x4242)
    pool = fragment_packet(first, draw(st.sampled_from([8, 16, 24, 40])))
    if draw(st.booleans()):
        pool += fragment_packet(first, draw(st.sampled_from([8, 16, 32])))
    if draw(st.booleans()):
        # A second datagram, possibly under the same identification (then
        # only the protocol, if it differs, tells the groups apart).
        ident = draw(st.sampled_from([0x77, 0x4242]))
        other = _datagram(draw(st.sampled_from(["tcp", "udp"])), draw(st.integers(24, 96)), ident)
        pool += fragment_packet(other, 16)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    order = draw(st.permutations(range(len(pool))))
    # Every fragment of the pool once in a random order, then random picks
    # (duplicates, late copies after completion).
    return [pool[i] for i in order] + [pool[i] for i in picks]


class TestAgainstBucketLoop:
    @settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    @given(packets=arrivals())
    def test_every_holder_yields_the_bucket_loops_datagram(self, packets):
        pending: dict = {}
        reference = [reference_feed(pending, packet) for packet in packets]
        for holder, build in HOLDERS.items():
            feed = build()
            for index, (packet, (whole, count)) in enumerate(zip(packets, reference)):
                got, reported = feed(packet)
                assert got == whole, f"{holder}: arrival {index}"
                if reported is not None:
                    assert reported == count, f"{holder}: arrival {index}"
                elif holder == "engine":
                    assert whole is None


def _never_completes(ident: int) -> list[IPPacket]:
    """Two overlapping fragments (offset 0 of 16 bytes, offset 8 bytes): a
    group reassemble_fragments can never complete."""
    packet = _datagram("udp", 40, ident)
    head = fragment_packet(packet, 16)[0]
    tail = fragment_packet(packet, 8)[1].copy(mf=False)
    return [head, tail]


class TestBound:
    def test_endpoint_stacks_hold_at_most_4096_groups(self):
        tcp, udp = TCPServerStack(DST), UDPServerStack(DST)
        for ident in range(5_000):
            for fragment in _never_completes(ident):
                assert tcp.receive(fragment) == []
                assert udp.receive(fragment) == []
        assert len(tcp._fragments) <= 4096
        assert len(udp._fragments) <= 4096

    def test_a_new_group_beyond_the_bound_drops_the_oldest(self):
        buffer = FragmentBuffer()
        firsts = []
        for ident in range(FRAGMENT_GROUPS):
            first, _second = fragment_packet(_datagram("tcp", 28, ident), 24)
            firsts.append(first)
            assert buffer.feed(first) == (None, 1)
        # Feeding the oldest group again does not make it the newest.
        assert buffer.feed(firsts[0]) == (None, 2)
        newcomer, _ = fragment_packet(_datagram("tcp", 28, FRAGMENT_GROUPS), 24)
        buffer.feed(newcomer)
        assert len(buffer) == FRAGMENT_GROUPS
        second_rest = fragment_packet(_datagram("tcp", 28, 1), 24)[1]
        whole, count = buffer.feed(second_rest)
        assert whole is not None and count == 2
        oldest_rest = fragment_packet(_datagram("tcp", 28, 0), 24)[1]
        assert buffer.feed(oldest_rest) == (None, 1)  # group 0 was dropped

    def test_copies_of_one_fragment_keep_one_fragment_and_count_every_copy(self):
        buffer = FragmentBuffer()
        first, _rest = fragment_packet(_datagram("tcp", 28, 7), 24)
        for copies in range(1, 4_001):
            assert buffer.feed(first) == (None, copies)
        group = buffer._groups.peek((SRC, DST, 7, first.effective_protocol))
        assert list(group.fragments.values()) == [first]
        assert group.count == 4_000


class TestTimeout:
    def test_expiry_is_strictly_after_the_timeout(self):
        expired = []
        buffer = FragmentBuffer(
            timeout=2.0, on_expire=lambda key, fragments, now: expired.append((key[2], now))
        )
        a0, a1 = fragment_packet(_datagram("tcp", 28, 1), 24)
        b0, b1 = fragment_packet(_datagram("tcp", 28, 2), 24)
        buffer.feed(a0, now=0.0)
        buffer.feed(b0, now=1.0)
        whole, count = buffer.feed(a1, now=2.0)  # exactly at the timeout: kept
        assert whole is not None and count == 2 and expired == []
        a0_again = fragment_packet(_datagram("tcp", 28, 1), 24)[0]
        buffer.feed(a0_again, now=3.0)  # b is 2.0 old: kept
        assert expired == []
        assert buffer.feed(b1, now=3.5) == (None, 1)  # b expired first, then restarted
        assert expired == [(2, 3.5)]
        buffer.feed(b0, now=5.0 + 1e-9)  # a0_again is past 2.0 old
        assert expired == [(2, 3.5), (1, 5.0 + 1e-9)]
