"""CLI tests for the observability flags and the ``obs`` subcommand group."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli.main import main
from repro.obs import trace as obs_trace

pytestmark = pytest.mark.obs

GOLDEN = Path(__file__).parent / "golden"
NEUTRAL = str(GOLDEN / "neutral_cell.jsonl")
THROTTLED = str(GOLDEN / "testbed_throttle_cell.jsonl")


class TestObsFlags:
    def test_table3_trace_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "cell.jsonl"
        code = main(
            [
                "table3",
                "--fast",
                "--envs",
                "testbed",
                "--trace",
                "--trace-out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "trace.header"
        assert header["schema"] == obs_trace.TRACE_SCHEMA_VERSION
        assert header["events"] == len(lines) - 1 > 0
        kinds = {json.loads(line)["kind"] for line in lines[1:]}
        assert "mbx.rule_match" in kinds
        assert "table3.cell" in kinds

    def test_table3_trace_out_dash_prints_to_stdout(self, capsys):
        code = main(["table3", "--fast", "--envs", "sprint", "--trace-out", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"kind":"trace.header"' in out

    def test_metrics_flag_prints_snapshot(self, capsys):
        code = main(["table3", "--fast", "--envs", "testbed", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mbx.rule_matches" in out
        assert "netsim.packets.propagated" in out

    def test_profile_flag_prints_stage_table(self, capsys):
        code = main(["table3", "--fast", "--envs", "sprint", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "table3.columns" in out
        assert "env.build.sprint" in out

    def test_run_uses_flow_trace_spelling(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main(
            [
                "run",
                "--env",
                "testbed",
                "--host",
                "video.example.com",
                "--fast",
                "--flow-trace",
                "--trace-out",
                str(out),
            ]
        )
        assert code == 0
        kinds = {json.loads(line)["kind"] for line in out.read_text().splitlines()}
        assert "pipeline.phase" in kinds

    def test_obs_state_restored_after_command(self, tmp_path):
        main(
            [
                "table3",
                "--fast",
                "--envs",
                "sprint",
                "--trace",
                "--trace-out",
                str(tmp_path / "t.jsonl"),
                "--metrics",
                "--profile",
            ]
        )
        assert obs.TRACER is None
        assert obs.METRICS is None
        assert obs.PROFILER is None

    def test_envs_subset_limits_columns(self, capsys):
        code = main(["table3", "--fast", "--envs", "testbed,gfc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper agreement" in out


class TestTraceFlagAliases:
    """``--flow-trace`` is canonical everywhere; ``--trace`` stays an alias
    on experiment subcommands where it isn't already the workload flag."""

    def test_table3_accepts_both_spellings(self, tmp_path):
        for flag in ("--trace", "--flow-trace"):
            out = tmp_path / f"{flag.strip('-')}.jsonl"
            code = main(
                ["table3", "--fast", "--envs", "sprint", flag, "--trace-out", str(out)]
            )
            assert code == 0
            assert out.exists()

    def test_figure4_accepts_flow_trace(self, tmp_path, capsys):
        out = tmp_path / "f4.jsonl"
        code = main(
            ["figure4", "--trials", "1", "--flow-trace", "--trace-out", str(out)]
        )
        assert code == 0
        kinds = {json.loads(line)["kind"] for line in out.read_text().splitlines()}
        assert "figure4.sample" in kinds

    def test_run_keeps_trace_for_workloads(self, tmp_path):
        # On `run`, --trace still loads a recorded workload; tracing there is
        # only reachable via the canonical --flow-trace spelling.
        workload = tmp_path / "workload.json"
        code = main(["trace", "--host", "video.example.com", "--out", str(workload)])
        assert code == 0
        code = main(["run", "--env", "testbed", "--fast", "--trace", str(workload)])
        assert code == 0

    def test_run_report_includes_trace_summary(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--env",
                "testbed",
                "--fast",
                "--flow-trace",
                "--trace-out",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "rule(s) hit" in out


class TestObsQuery:
    def test_query_by_kind(self, capsys):
        code = main(["obs", "query", THROTTLED, "--kind", "mbx.rule_match"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mbx.rule_match" in out
        assert "testbed:video.example.com" in out

    def test_query_json_lines(self, capsys):
        code = main(["obs", "query", THROTTLED, "--kind", "table3.cell", "--json"])
        assert code == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(events) == 1
        assert events[0]["env"] == "testbed"

    def test_query_timeline(self, capsys):
        code = main(["obs", "query", THROTTLED, "--timeline", "203.0.113.50"])
        assert code == 0
        assert "hop.traverse" in capsys.readouterr().out

    def test_query_ambiguous_timeline_exits_two(self, tmp_path, capsys):
        trace_path = tmp_path / "two-flows.jsonl"
        tracer = obs_trace.FlowTracer()
        tracer.emit("x", flow="a:1>c:3/6")
        tracer.emit("x", flow="b:2>c:3/6")
        tracer.export_jsonl(str(trace_path))
        code = main(["obs", "query", str(trace_path), "--timeline", "c:3"])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err


class TestObsReport:
    def test_report_renders_sections(self, capsys):
        code = main(["obs", "report", THROTTLED])
        assert code == 0
        out = capsys.readouterr().out
        assert "rule hits:" in out
        assert "testbed:video.example.com" in out

    def test_report_json(self, capsys):
        code = main(["obs", "report", NEUTRAL, "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 989
        assert summary["rules"] == {}


class TestObsDiff:
    def test_differing_traces_exit_one_and_name_the_rule(self, capsys):
        code = main(["obs", "diff", NEUTRAL, THROTTLED])
        assert code == 1
        out = capsys.readouterr().out
        assert "first diverging decision" in out
        assert "testbed:video.example.com" in out

    def test_identical_traces_exit_zero(self, capsys):
        code = main(["obs", "diff", NEUTRAL, NEUTRAL])
        assert code == 0
        assert "structurally identical" in capsys.readouterr().out

    def test_diff_json(self, capsys):
        code = main(["obs", "diff", NEUTRAL, THROTTLED, "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is False
        assert payload["rule_delta"] == {"testbed:video.example.com": [0, 1]}


class TestObsWatch:
    def test_watch_real_history_passes(self, capsys):
        code = main(
            [
                "obs",
                "watch",
                "--results-dir",
                "benchmarks/results",
                "--threshold",
                "2.0",
            ]
        )
        assert code == 0
        assert "no regressions flagged" in capsys.readouterr().out

    def test_watch_flags_synthetic_slowdown(self, tmp_path, capsys):
        from repro.obs import history as obs_history

        history = tmp_path / "BENCH_history.jsonl"
        obs_history.append_entries(
            history, [{"name": "synthetic", "seconds": 1.0, "rounds": 10}]
        )
        (tmp_path / "BENCH_synthetic.json").write_text(
            json.dumps({"name": "synthetic", "seconds": 1.3, "rounds": 10})
        )
        code = main(
            [
                "obs",
                "watch",
                "--results-dir",
                str(tmp_path),
                "--history",
                str(history),
            ]
        )
        assert code == 1
        assert "regression(s) flagged" in capsys.readouterr().out
