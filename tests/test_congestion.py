"""Congestion: the interleaved-flow workload, pinned to exact constants.

``run_congestion`` is the one production caller of
:class:`~repro.netsim.scheduler.EventScheduler`: every packet of every flow
is scheduled up front and one drain delivers them in ``(deadline, seq)``
order.  The default run's summary is a pure function of the config, so it
is pinned here as constants; any change to the scheduler, the path's
scheduled send or the element timers that alters delivery order, event
count or virtual time shows up as a diff against these numbers.
"""

from repro.experiments.congestion import CongestionConfig, run_congestion

DEFAULT_SUMMARY = {
    "flows": 50,
    "packets_per_flow": 4,
    "env": "tmobile",
    "packets_scheduled": 200,
    "packets_delivered": 200,
    "flows_completed": 50,
    "interleave_ratio": 1.0,
    "virtual_duration": 0.061,
    "completion_spread": 0.061,
    "scheduler_fired": 200,
    "scheduler_max_pending": 200,
}


class TestCongestionPin:
    def test_default_run_matches_the_pinned_summary(self):
        result = run_congestion()
        assert result.as_dict() == DEFAULT_SUMMARY
        # Every adjacent pair of server deliveries switches flow.
        assert result.interleavings == 199
        assert set(result.per_flow_delivered.values()) == {4}

    def test_rerun_is_identical(self):
        first, second = run_congestion(), run_congestion()
        assert first.as_dict() == second.as_dict()
        assert first.interleavings == second.interleavings
        assert first.per_flow_delivered == second.per_flow_delivered
        assert first.virtual_duration == second.virtual_duration

    def test_serialized_flows_do_not_interleave(self):
        # Stagger wider than a flow's whole schedule: one flow finishes
        # before the next starts, so deliveries switch flow only at the
        # flow boundaries.
        config = CongestionConfig(flows=5, packets_per_flow=3, spacing=0.001, stagger=0.01)
        result = run_congestion(config)
        assert result.packets_delivered == 15
        assert result.interleavings == 4
        assert result.scheduler_fired == 15
