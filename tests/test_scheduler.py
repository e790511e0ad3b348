"""EventScheduler: the deterministic event core, checked against an oracle.

The scheduler's contract is "fire exactly what a brute-force scan over
pending events would, in (deadline, seq) order, never moving the clock
backwards".  The property tests drive random schedule/cancel/advance
sequences through the scheduler and a sorted-list reference; the edge
tests pin the zero-delay guarantee — a zero-delay event fires in the drain
already in progress, and ``advance(0)`` drains everything due *now*
instead of parking it for the next tick.  The deferred-driver tests run
scheduled frames and element timers through a real :class:`Path`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.clock import VirtualClock
from repro.netsim.element import PacketTap
from repro.netsim.path import Path
from repro.netsim.reassembler import FragmentReassembler
from repro.netsim.scheduler import EventScheduler
from repro.packets.fragment import fragment_packet
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment

settings_kwargs = dict(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)

# (kind, a): schedule at now + a/10 (negative = in the past), cancel the
# a-th live event, or advance the clock by a/10.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(-10, 600)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("advance"), st.integers(0, 90)),
    ),
    max_size=60,
)


def run_differential(ops):
    """Replay *ops* on a scheduler and a brute-force pending dict."""
    clock = VirtualClock()
    scheduler = EventScheduler(clock)
    fired: list[int] = []
    pending: dict[int, float] = {}  # payload (doubles as seq) -> deadline
    ids: dict[int, int] = {}
    seq = 0
    for op, arg in ops:
        if op == "schedule":
            deadline = clock.now + arg / 10.0
            ids[seq] = scheduler.at(deadline, fired.append, seq)
            pending[seq] = deadline
            seq += 1
        elif op == "cancel":
            live = sorted(pending)
            if live:
                victim = live[arg % len(live)]
                assert scheduler.cancel(ids[victim]) is True
                assert scheduler.cancel(ids[victim]) is False
                del pending[victim]
        else:
            target = clock.now + arg / 10.0
            fired.clear()
            scheduler.advance(arg / 10.0)
            expect = [
                p
                for p, d in sorted(pending.items(), key=lambda kv: (kv[1], kv[0]))
                if d <= target
            ]
            assert fired == expect
            assert clock.now == target  # lands exactly, even past the last event
            for payload in expect:
                del pending[payload]
        assert scheduler.pending == len(pending)
    return scheduler, pending, fired


class TestAgainstBruteForce:
    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_fires_exactly_the_due_set_in_deadline_seq_order(self, ops):
        run_differential(ops)

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_no_event_loss(self, ops):
        scheduler, pending, _fired = run_differential(ops)
        assert scheduler.scheduled == scheduler.fired + scheduler.cancelled + len(pending)

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_run_until_idle_drains_survivors_in_order(self, ops):
        scheduler, pending, fired = run_differential(ops)
        fired.clear()
        scheduler.run_until_idle()
        expected = [
            p for p, _d in sorted(pending.items(), key=lambda kv: (kv[1], kv[0]))
        ]
        assert fired == expected
        assert scheduler.pending == 0

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_clock_is_monotone_through_any_drain(self, ops):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        observed: list[float] = []
        for op, arg in ops:
            if op == "schedule":
                scheduler.at(clock.now + arg / 10.0, lambda: observed.append(clock.now))
            elif op == "advance":
                scheduler.advance(arg / 10.0)
        scheduler.run_until_idle()
        assert observed == sorted(observed)


class TestZeroDelay:
    """The fix for "advance(0) accepted but zero-delay fires next tick"."""

    def test_advance_zero_drains_due_now(self):
        clock = VirtualClock(start=5.0)
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.post(fired.append, "now")
        assert scheduler.advance(0) == 1
        assert fired == ["now"]
        assert clock.now == 5.0

    def test_zero_delay_from_inside_a_handler_fires_in_the_same_drain(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []

        def outer():
            fired.append("outer")
            scheduler.post(lambda: fired.append("inner"))

        scheduler.post(outer)
        assert scheduler.run(until=scheduler.now) == 2
        assert fired == ["outer", "inner"]

    def test_call_later_zero_equals_post(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.call_later(0.0, fired.append, "a")
        scheduler.post(fired.append, "b")
        scheduler.advance(0)
        assert fired == ["a", "b"]  # FIFO at the same deadline

    def test_virtualclock_accepts_zero_advance(self):
        clock = VirtualClock(start=2.0)
        clock.advance(0)
        assert clock.now == 2.0


class TestEdgeSemantics:
    def test_past_deadline_fires_without_rewinding_the_clock(self):
        clock = VirtualClock(start=10.0)
        scheduler = EventScheduler(clock)
        stamps = []
        scheduler.at(3.0, lambda: stamps.append(clock.now))
        scheduler.run_until_idle()
        assert stamps == [10.0]

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler(VirtualClock())
        with pytest.raises(ValueError):
            scheduler.call_later(-0.1, lambda: None)

    def test_negative_advance_rejected(self):
        scheduler = EventScheduler(VirtualClock())
        with pytest.raises(ValueError):
            scheduler.advance(-1.0)

    def test_same_deadline_fires_in_schedule_order(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        for name in ("first", "second", "third"):
            scheduler.at(1.0, fired.append, name)
        scheduler.run_until_idle()
        assert fired == ["first", "second", "third"]

    def test_cancel_and_rearm(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []
        stale = scheduler.at(1.0, fired.append, "stale")
        assert scheduler.cancel(stale) is True
        rearmed = scheduler.at(2.0, fired.append, "rearmed")
        scheduler.run_until_idle()
        assert fired == ["rearmed"]
        assert clock.now == 2.0
        assert scheduler.cancel(rearmed) is False  # already fired

    def test_next_deadline_skips_tombstones(self):
        scheduler = EventScheduler(VirtualClock())
        first = scheduler.at(1.0, lambda: None)
        scheduler.at(2.0, lambda: None)
        scheduler.cancel(first)
        assert scheduler.next_deadline() == 2.0

    def test_step_fires_one_event(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        scheduler.at(1.0, fired.append, "a")
        scheduler.at(2.0, fired.append, "b")
        assert scheduler.step() is True
        assert fired == ["a"]
        assert scheduler.step() is True
        assert scheduler.step() is False

    def test_run_limit_bounds_self_posting_loops(self):
        scheduler = EventScheduler(VirtualClock())

        def reproduce():
            scheduler.post(reproduce)

        scheduler.post(reproduce)
        assert scheduler.run(limit=25) == 25
        assert scheduler.pending == 1  # the next generation survives

    def test_reentrant_run_is_a_noop(self):
        scheduler = EventScheduler(VirtualClock())
        inner_counts = []

        def handler():
            inner_counts.append(scheduler.run())

        scheduler.post(handler)
        assert scheduler.run() == 1
        assert inner_counts == [0]

    def test_run_until_is_inclusive(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        scheduler.at(1.0, fired.append, "at-horizon")
        scheduler.at(1.0000001, fired.append, "beyond")
        assert scheduler.run(until=1.0) == 1
        assert fired == ["at-horizon"]

    def test_stats_counters(self):
        scheduler = EventScheduler(VirtualClock())
        a = scheduler.at(1.0, lambda: None)
        scheduler.at(2.0, lambda: None)
        scheduler.cancel(a)
        scheduler.run_until_idle()
        assert (scheduler.scheduled, scheduler.fired, scheduler.cancelled) == (2, 1, 1)
        assert scheduler.max_pending == 2


class _RecordingServer:
    def __init__(self):
        self.received: list[bytes] = []

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        self.received.append(packet.payload_bytes)
        return []


def _packet(seq: int, size: int, sport: int = 4000) -> IPPacket:
    body = bytes((seq + i) % 251 for i in range(size))
    return IPPacket(
        src="10.0.0.1",
        dst="10.0.0.2",
        transport=TCPSegment(sport=sport, dport=80, payload=body),
        identification=0x3000 + seq,
    )


class TestDeferredDriver:
    def test_scheduled_frames_interleave_in_deadline_order(self):
        class _Journal:
            def __init__(self):
                self.flows = []

            def receive(self, pkt):
                self.flows.append((pkt.tcp.sport, pkt.tcp.payload[0]))
                return []

        clock = VirtualClock()
        path = Path(clock, [PacketTap()], scheduler=EventScheduler(clock))
        journal = _Journal()
        path.server_endpoint = journal
        # Flow A at t=0.00/0.02, flow B at t=0.01/0.03: strict alternation.
        path.schedule_from_client(_packet(0, 10, sport=1111), at=0.00)
        path.schedule_from_client(_packet(1, 10, sport=1111), at=0.02)
        path.schedule_from_client(_packet(2, 10, sport=2222), at=0.01)
        path.schedule_from_client(_packet(3, 10, sport=2222), at=0.03)
        assert path.run() == 4
        assert journal.flows == [(1111, 0), (2222, 2), (1111, 1), (2222, 3)]
        assert clock.now == 0.03

    def test_scheduled_frame_can_be_cancelled(self):
        clock = VirtualClock()
        path = Path(clock, [], scheduler=EventScheduler(clock))
        server = _RecordingServer()
        path.server_endpoint = server
        keep = path.schedule_from_client(_packet(0, 4), delay=0.1)
        drop = path.schedule_from_client(_packet(1, 4), delay=0.2)
        assert path.scheduler.cancel(drop)
        path.run()
        assert len(server.received) == 1

    def test_reassembler_native_timer_expires_without_a_probe_packet(self):
        # In deferred mode nothing may ever poke the reassembler again; the
        # scheduler-armed timer must expire the partial datagram on its own.
        clock = VirtualClock()
        reassembler = FragmentReassembler(timeout=0.5)
        path = Path(clock, [reassembler], scheduler=EventScheduler(clock))
        server = _RecordingServer()
        path.server_endpoint = server
        first, *_rest = fragment_packet(_packet(0, 120), 32)
        path.send_from_client(first)  # incomplete: held
        assert reassembler.expired_count == 0
        path.scheduler.advance(1.0)
        assert reassembler.expired_count == 1
        assert server.received == []

    def test_reassembler_native_timer_cancelled_on_completion(self):
        clock = VirtualClock()
        reassembler = FragmentReassembler(timeout=0.5)
        path = Path(clock, [reassembler], scheduler=EventScheduler(clock))
        server = _RecordingServer()
        path.server_endpoint = server
        for fragment in fragment_packet(_packet(0, 120), 32):
            path.send_from_client(fragment)
        assert len(server.received) == 1  # reassembled and delivered
        path.scheduler.advance(2.0)
        assert reassembler.expired_count == 0  # timer was disarmed
        assert path.scheduler.pending == 0
