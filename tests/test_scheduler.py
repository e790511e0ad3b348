"""EventScheduler: the deterministic event core, checked against an oracle.

The scheduler's contract is "fire exactly what a brute-force scan over
pending events would, in (deadline, seq) order, never moving the clock
backwards".  The property tests drive random schedule/drain sequences
through the scheduler and a sorted-list reference; the edge tests pin the
zero-delay guarantee — a zero-delay event fires in the drain already in
progress, and a drain up to the current instant runs everything due *now*
instead of parking it for later.  The deferred-driver test runs scheduled
frames through a real :class:`Path`.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.clock import VirtualClock
from repro.netsim.element import PacketTap
from repro.netsim.path import Path
from repro.netsim.scheduler import EventScheduler
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment

settings_kwargs = dict(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)

# (kind, a): schedule at now + a/10 (negative = in the past), or drain up
# to now + a/10 and move the clock there.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(-10, 600)),
        st.tuples(st.just("advance"), st.integers(0, 90)),
    ),
    max_size=60,
)


def advance(scheduler: EventScheduler, seconds: float) -> int:
    """Drain everything due within *seconds* from now and land the clock there."""
    target = scheduler.now + seconds
    fired = scheduler.run(until=target)
    if scheduler.clock.now < target:
        scheduler.clock.now = target
    return fired


def run_differential(ops):
    """Replay *ops* on a scheduler and a brute-force pending dict."""
    clock = VirtualClock()
    scheduler = EventScheduler(clock)
    fired: list[int] = []
    pending: dict[int, float] = {}  # payload (doubles as seq) -> deadline
    seq = 0
    for op, arg in ops:
        if op == "schedule":
            deadline = clock.now + arg / 10.0
            scheduler.at(deadline, fired.append, seq)
            pending[seq] = deadline
            seq += 1
        else:
            target = clock.now + arg / 10.0
            fired.clear()
            assert advance(scheduler, arg / 10.0) == len(fired)
            expect = [
                p
                for p, d in sorted(pending.items(), key=lambda kv: (kv[1], kv[0]))
                if d <= target
            ]
            assert fired == expect
            assert clock.now == target  # lands exactly, even past the last event
            for payload in expect:
                del pending[payload]
    return scheduler, pending, fired, seq


class TestAgainstBruteForce:
    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_fires_exactly_the_due_set_in_deadline_seq_order(self, ops):
        run_differential(ops)

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_no_event_loss(self, ops):
        scheduler, pending, _fired, scheduled = run_differential(ops)
        assert scheduler.fired == scheduled - len(pending)
        scheduler.run()
        assert scheduler.fired == scheduled

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_run_until_idle_drains_survivors_in_order(self, ops):
        scheduler, pending, fired, _scheduled = run_differential(ops)
        fired.clear()
        assert scheduler.run() == len(pending)
        expected = [
            p for p, _d in sorted(pending.items(), key=lambda kv: (kv[1], kv[0]))
        ]
        assert fired == expected
        assert scheduler.run() == 0

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_clock_is_monotone_through_any_drain(self, ops):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        observed: list[float] = []
        for op, arg in ops:
            if op == "schedule":
                scheduler.at(clock.now + arg / 10.0, lambda: observed.append(clock.now))
            else:
                advance(scheduler, arg / 10.0)
        scheduler.run()
        assert observed == sorted(observed)


class TestZeroDelay:
    """A drain up to the current instant runs what is due now."""

    def test_advance_zero_drains_due_now(self):
        clock = VirtualClock(start=5.0)
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.at(clock.now, fired.append, "now")
        assert scheduler.run(until=clock.now) == 1
        assert fired == ["now"]
        assert clock.now == 5.0

    def test_zero_delay_from_inside_a_handler_fires_in_the_same_drain(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []

        def outer():
            fired.append("outer")
            scheduler.at(scheduler.now, lambda: fired.append("inner"))

        scheduler.at(scheduler.now, outer)
        assert scheduler.run(until=scheduler.now) == 2
        assert fired == ["outer", "inner"]

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
        scheduler.run()
        assert stamps == [10.0]

    def test_same_deadline_fires_in_schedule_order(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        for name in ("first", "second", "third"):
            scheduler.at(1.0, fired.append, name)
        scheduler.run()
        assert fired == ["first", "second", "third"]

    def test_step_fires_one_event(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        scheduler.at(2.0, fired.append, "b")
        scheduler.at(1.0, fired.append, "a")
        assert scheduler.run(limit=1) == 1
        assert fired == ["a"]
        assert scheduler.run(limit=1) == 1
        assert scheduler.run(limit=1) == 0

    def test_run_limit_bounds_self_posting_loops(self):
        scheduler = EventScheduler(VirtualClock())

        def reproduce():
            scheduler.at(scheduler.now, reproduce)

        scheduler.at(0.0, reproduce)
        assert scheduler.run(limit=25) == 25
        assert scheduler.run(limit=1) == 1  # the next generation survived

    def test_reentrant_run_is_a_noop(self):
        scheduler = EventScheduler(VirtualClock())
        inner_counts = []

        def handler():
            inner_counts.append(scheduler.run())

        scheduler.at(0.0, handler)
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
        scheduler.at(1.0, lambda: None)
        scheduler.at(2.0, lambda: None)
        scheduler.run(until=1.5)
        scheduler.at(3.0, lambda: None)
        assert (scheduler.fired, scheduler.max_pending) == (1, 2)
        scheduler.run()
        assert (scheduler.fired, scheduler.max_pending) == (3, 2)


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
        path = Path(clock, [PacketTap()])
        path.bind_scheduler(EventScheduler(clock))
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
