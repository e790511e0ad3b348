"""Smoke + shape tests for the experiment harnesses (tables, figures, §6)."""

import pytest

from repro.experiments.ablation import (
    ablate_bisection_granularity,
    ablate_evaluation_pruning,
    ablate_gfc_port_rotation,
    ablate_prepend_threshold,
)
from repro.experiments.efficiency import (
    run_att,
    run_gfc,
    run_iran,
    run_testbed_http,
    run_testbed_skype,
    run_tmobile,
)
from repro.experiments.figure4 import busy_and_quiet_summary, format_figure4, run_figure4
from repro.experiments.sprint import format_sprint, run_sprint_detection, run_sprint_probes
from repro.experiments.table1 import format_table1, liberate_row, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.throughput import format_throughput, run_tmus_throughput


class TestTable1:
    def test_liberate_row_derived(self):
        row = liberate_row()
        assert row.overhead == "O(1)"
        assert row.client_only and row.app_agnostic
        assert row.rule_detection and row.split_reorder
        assert row.inert_injection and row.flushing

    def test_liberate_uniquely_complete(self):
        rows = run_table1()
        complete = [
            r
            for r in rows
            if r.rule_detection and r.split_reorder and r.inert_injection and r.flushing
        ]
        assert [r.method for r in complete] == ["liberate"]

    def test_formatting(self):
        assert "liberate" in format_table1(run_table1())


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table2()

    def test_all_categories_present(self, rows):
        assert {r.category for r in rows} == {
            "inert-insertion",
            "splitting",
            "reordering",
            "flushing",
        }

    def test_inert_packets_bounded(self, rows):
        inert = next(r for r in rows if r.category == "inert-insertion")
        assert inert.max_packets <= 5  # §5.3: k always less than 5

    def test_splitting_cost_is_headers(self, rows):
        splitting = next(r for r in rows if r.category == "splitting")
        assert splitting.max_bytes <= splitting.max_packets * 40

    def test_flushing_cost_is_seconds(self, rows):
        flushing = next(r for r in rows if r.category == "flushing")
        assert 40 <= flushing.max_seconds <= 240

    def test_formatting(self, rows):
        assert "inert-insertion" in format_table2(rows)

    def test_exact_maxima(self, rows):
        """Each category's (max packets, max bytes, max seconds), exactly."""
        assert {r.category: (r.max_packets, r.max_bytes, r.max_seconds) for r in rows} == {
            "inert-insertion": (1, 104, 0.0),
            "splitting": (9, 360, 0.0),
            "reordering": (3, 60, 0.0),
            "flushing": (1, 40, 150.0),
        }


class TestFigure4:
    @pytest.fixture(scope="class")
    def samples(self):
        return run_figure4(hours=(2, 3, 13, 14, 20), trials=2)

    def test_quiet_hours_never_flush(self, samples):
        quiet = [s for s in samples if s.hour in (2, 3)]
        assert all(s.min_successful_delay is None for s in quiet)

    def test_busy_hours_flush(self, samples):
        busy = [s for s in samples if s.hour in (13, 14, 20)]
        assert all(s.min_successful_delay is not None for s in busy)

    def test_delays_in_probe_range(self, samples):
        delays = [s.min_successful_delay for s in samples if s.min_successful_delay]
        assert all(10 <= d <= 240 for d in delays)

    def test_peak_hour_flushes_fastest(self, samples):
        def best(hour):
            values = [
                s.min_successful_delay for s in samples if s.hour == hour and s.min_successful_delay
            ]
            return min(values)

        assert best(20) <= best(13)

    def test_summary_and_format(self, samples):
        summary = busy_and_quiet_summary(samples)
        assert summary["busy_success_rate"] == 1.0
        assert summary["quiet_success_rate"] == 0.0
        assert "#" in format_figure4(samples)

    def test_exact_summary(self, samples):
        assert busy_and_quiet_summary(samples) == {
            "busy_success_rate": 1.0,
            "quiet_success_rate": 0.0,
            "busy_min_delay": 60,
            "busy_max_delay": 90,
        }


class TestEfficiency:
    """Each characterization's exact rounds and replay bytes (deterministic
    simulation), beside the paper-shape bounds."""

    def test_testbed_http_rounds(self):
        result = run_testbed_http()
        assert result.rounds <= 90  # paper: <=70, same order
        assert (result.rounds, result.bytes_used) == (61, 70_574)
        assert any("video.example.com" in f for f in result.matching_fields)

    def test_testbed_skype(self):
        result = run_testbed_skype()
        assert result.rounds <= 150  # paper: 115
        assert (result.rounds, result.bytes_used) == (44, 9_557)
        assert result.matching_fields  # binary STUN fields found

    def test_tmobile(self):
        result = run_tmobile()
        assert 30 <= result.rounds <= 120  # paper: 80-95
        assert (result.rounds, result.bytes_used) == (55, 13_766_586)
        assert any("cloudfront.net" in f for f in result.matching_fields)
        assert result.bytes_used > 5_000_000  # megabytes of replay data (paper: 18 MB)

    def test_att_server_side(self):
        result = run_att()
        assert (result.rounds, result.bytes_used) == (92, 27_626_945)
        assert any("Content-Type: video" in f for f in result.server_side_fields)

    def test_gfc(self):
        result = run_gfc()
        assert result.rounds <= 120  # paper: 86
        assert (result.rounds, result.bytes_used) == (48, 61_461)
        assert any("economist.com" in f for f in result.matching_fields)

    def test_iran_inspects_all(self):
        result = run_iran()
        assert result.inspects_all_packets
        assert (result.rounds, result.bytes_used) == (43, 119_344)
        assert any("facebook.com" in f for f in result.matching_fields)


class TestThroughput:
    """§6.2: the T-Mobile video replay without and with lib·erate, pinned to
    the printed table (deterministic simulation; about 1 s for both runs)."""

    @pytest.fixture(scope="class")
    def results(self):
        return run_tmus_throughput()

    def test_rates(self, results):
        without, with_lib = results
        assert (round(without.average_mbps, 2), round(without.peak_mbps, 2)) == (1.46, 1.99)
        assert (round(with_lib.average_mbps, 2), round(with_lib.peak_mbps, 2)) == (11.75, 16.59)

    def test_zero_rating(self, results):
        without, with_lib = results
        assert without.zero_rated is True
        assert with_lib.zero_rated is False

    def test_speedup_line(self, results):
        assert format_throughput(results).splitlines()[-1] == "speedup: 8.0x (paper: 2.8x)"


class TestSprintExperiment:
    def test_probes_all_clean(self):
        probes = run_sprint_probes()
        assert len(probes) == 5
        assert all(not p.differentiated for p in probes)

    def test_detection_verdict(self):
        assert run_sprint_detection()

    def test_formatting(self):
        assert "video port 80" in format_sprint(run_sprint_probes())


class TestAblations:
    # Each test pins the exact ``(with, without)`` pair of its ablation.
    def test_pruning_saves_replays(self):
        result = ablate_evaluation_pruning()
        assert result.with_choice <= result.without_choice
        assert (result.with_choice, result.without_choice) == (1, 2)

    def test_granularity_tradeoff(self):
        result = ablate_bisection_granularity()
        assert result.with_choice > result.without_choice  # byte-exact costs more
        assert (result.with_choice, result.without_choice) == (59, 29)

    def test_port_rotation_required_for_gfc(self):
        result = ablate_gfc_port_rotation()
        assert result.with_choice == 1.0
        assert result.without_choice == 0.0

    def test_prepend_threshold_robust(self):
        result = ablate_prepend_threshold()
        assert result.with_choice == 1.0
        assert result.without_choice == 1.0
