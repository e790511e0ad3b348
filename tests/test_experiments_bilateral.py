"""Tests for the bilateral experiment harness and expectation completeness."""

import pytest

from repro.core.evasion import ALL_TECHNIQUES
from repro.experiments import paper_expectations
from repro.experiments.bilateral import format_bilateral, run_bilateral_matrix


class TestBilateralExperiment:
    @pytest.fixture(scope="class")
    def results(self):
        return run_bilateral_matrix()

    def test_every_network_reported_in_order(self, results):
        assert [r.env for r in results] == ["testbed", "tmobile", "gfc", "iran", "att"]

    def test_paper_dummy_prefix_pattern(self, results):
        """§6.5: dummy prefix evades testbed, T-Mobile, AT&T and the GFC —
        not Iran."""
        by_env = {r.env: r for r in results}
        for env in ("testbed", "tmobile", "att", "gfc"):
            assert by_env[env].dummy_prefix_evades, env
        assert not by_env["iran"].dummy_prefix_evades

    def test_rotation_beats_everything(self, results):
        assert all(r.rotation_evades for r in results)

    def test_baselines_differentiated(self, results):
        assert all(r.baseline_differentiated for r in results)

    def test_formatting(self, results):
        rendered = format_bilateral(results)
        for env in ("testbed", "tmobile", "gfc", "iran", "att"):
            assert env in rendered


class TestPaperExpectationsCompleteness:
    def test_every_technique_has_a_table3_row(self):
        for technique in ALL_TECHNIQUES:
            assert technique.name in paper_expectations.TABLE3, technique.name

    def test_no_orphan_rows(self):
        names = {t.name for t in ALL_TECHNIQUES}
        assert set(paper_expectations.TABLE3) == names

    def test_row_structure(self):
        for name, row in paper_expectations.TABLE3.items():
            assert set(row) == {"testbed", "tmobile", "gfc", "iran", "att", "os"}, name
            for env in ("testbed", "tmobile", "gfc", "iran"):
                assert len(row[env]) == 2, (name, env)
            assert len(row["att"]) == 1
            assert len(row["os"]) == 3

    def test_cell_vocabulary(self):
        valid = {"Y", "N", "-"}
        for name, row in paper_expectations.TABLE3.items():
            for env, cells in row.items():
                for cell in cells:
                    assert cell.rstrip("1234567") in valid, (name, env, cell)

    def test_efficiency_cases_covered(self):
        assert set(paper_expectations.EFFICIENCY) == {
            "testbed-http",
            "testbed-skype",
            "tmobile",
            "att",
            "gfc",
            "iran",
        }
