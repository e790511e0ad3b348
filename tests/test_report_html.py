"""The HTML experiment dashboard: model building, rendering, drift check."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli.main import main
from repro.obs import report_html

pytestmark = pytest.mark.obs


def _sample_model() -> dict:
    return report_html.build_model(
        trace_summary={
            "events": 12,
            "flows": 2,
            "kinds": {"mbx.verdict": 2, "table3.cell": 2},
            "rules": {
                "video-throttle": {
                    "matches": 3,
                    "events": 3,
                    "actions": {"throttle": 3},
                    "elements": ["testbed-device"],
                }
            },
            "drops": {"fault.drop:loss": 1},
            "verdicts": {"throttled": 2},
            "arq": {},
            "cells": [
                {
                    "kind": "table3.cell",
                    "env": "testbed",
                    "technique": "ip-low-ttl",
                    "cc": "Y",
                    "rs": "N",
                },
                {
                    "kind": "table3.cell",
                    "env": "sprint",
                    "technique": "ip-low-ttl",
                    "cc": "-",
                    "rs": "-",
                },
                {"kind": "figure4.sample", "hour": 3, "trial": 0, "min_delay": None},
            ],
        },
        metrics={
            **{key: 5 for key in report_html.HEADLINE_METRICS},
            "mbx.scan.payload_bytes": {
                "count": 4,
                "sum": 900.0,
                "buckets": {"100": 1, "250": 3, "inf": 4},
            },
        },
        profile={
            "table3.columns": {"wall_seconds": 1.5, "cpu_seconds": 1.2, "calls": 1},
            "env.build.testbed": {"wall_seconds": 0.3, "cpu_seconds": 0.3, "calls": 2},
        },
        events={"exp.start": 1, "table3.cell": 2},
        history={
            "obs_overhead": [
                {"name": "obs_overhead", "seconds": 1.0},
                {"name": "obs_overhead", "seconds": 1.2},
            ]
        },
        flags=[
            {
                "bench": "obs_overhead",
                "key": "seconds",
                "message": "1.2s vs median 1.0s",
            }
        ],
    )


class TestModel:
    def test_model_carries_headline_catalog(self):
        model = report_html.build_model()
        assert model["headline"] == list(report_html.HEADLINE_METRICS)
        assert model["schema"] == report_html.DASHBOARD_SCHEMA_VERSION

    def test_missing_metric_keys_empty_when_all_present(self):
        assert report_html.missing_metric_keys(_sample_model()) == []

    def test_missing_metric_keys_flags_dropped_series(self):
        model = _sample_model()
        del model["metrics"]["table3.cells"]
        assert report_html.missing_metric_keys(model) == ["table3.cells"]

    def test_missing_metric_keys_without_snapshot(self):
        assert report_html.missing_metric_keys(report_html.build_model()) == list(
            report_html.HEADLINE_METRICS
        )


class TestRendering:
    def test_sections_render(self):
        page = report_html.render_dashboard(_sample_model())
        assert "<!DOCTYPE html>" in page
        for heading in (
            "Headline metrics",
            "Experiment cells",
            "Metrics",
            "Stage profile",
            "Flow trace",
            "Telemetry events",
            "Benchmark history",
        ):
            assert f"<h2>{heading}</h2>" in page
        # Cell matrix with drill-down and the figure-4 sample summary.
        assert "CC=Y" in page and "<details>" in page
        assert "1 figure-4 sample(s)" in page
        # Inline SVG charts: histogram bars, profile waterfall, history trend.
        assert page.count("<svg") >= 3
        assert "polyline" in page
        assert "watchdog flags" in page

    def test_dashboard_is_self_contained(self):
        page = report_html.render_dashboard(_sample_model())
        assert "<script src" not in page
        assert "<link" not in page
        assert "http://" not in page and "https://" not in page

    def test_embedded_model_round_trips(self, tmp_path):
        model = _sample_model()
        out = tmp_path / "dash.html"
        report_html.write_dashboard(model, str(out))
        assert report_html.load_model(str(out)) == model

    def test_empty_model_renders_placeholder(self):
        page = report_html.render_dashboard(report_html.build_model())
        assert "no observability artifacts" in page

    def test_html_escaping(self):
        model = report_html.build_model(
            metrics={"table3.cells": 1}, title="<script>alert(1)</script>"
        )
        page = report_html.render_dashboard(model)
        # Visible HTML escapes the title; the embedded JSON model keeps the
        # raw string but escapes "</" so nothing can close the script tag.
        assert "&lt;script&gt;" in page
        visible = page.split('<script type="application/json"')[0]
        assert "<script>alert" not in visible
        assert page.count("</script>") == 1  # only the model block's own close

    def test_render_text_shares_the_model(self):
        text = report_html.render_text(_sample_model())
        assert "trace: 12 events over 2 flow(s)" in text
        assert "metrics:" in text
        assert "watchdog: 1 regression flag(s)" in text


class TestSvgHelpers:
    def test_spark_bars(self):
        svg = report_html._spark_bars([0, 2, 5])
        assert svg.startswith("<svg") and svg.count("<rect") == 3

    def test_spark_line_single_point(self):
        assert "polyline" in report_html._spark_line([1.0])

    def test_empty_series(self):
        assert report_html._spark_bars([]) == ""
        assert report_html._spark_line([]) == ""


class TestCliObsHtml:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.core.pipeline import Liberate
        from repro.envs import make_testbed
        from repro.obs.trace import FlowTracer
        from repro.traffic.http import http_get_trace

        path = tmp_path / "trace.jsonl"
        tracer = FlowTracer()
        with obs.installed(TRACER=tracer):
            Liberate(make_testbed(), stop_at_first=True).run(
                http_get_trace("video.example.com", response_body=b"v" * 600)
            )
            tracer.export_jsonl(str(path))
        return path

    def test_render_from_trace(self, tmp_path, trace_file, capsys):
        out = tmp_path / "dash.html"
        code = main(["obs", "html", str(trace_file), "--out", str(out)])
        assert code == 0
        page = out.read_text()
        assert "Flow trace" in page
        assert "wrote dashboard" in capsys.readouterr().out

    def test_render_with_metrics_and_history(self, tmp_path, trace_file):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({key: 1 for key in report_html.HEADLINE_METRICS}))
        history = tmp_path / "history.jsonl"
        history.write_text(
            json.dumps({"name": "bench_packets", "seconds": 0.5}) + "\n"
        )
        out = tmp_path / "dash.html"
        code = main(
            [
                "obs",
                "html",
                str(trace_file),
                "--metrics-file",
                str(metrics),
                "--history",
                str(history),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        page = out.read_text()
        assert "Headline metrics" in page
        assert "bench_packets" in page

    def test_check_passes_on_complete_snapshot(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        report_html.write_dashboard(_sample_model(), str(out))
        assert main(["obs", "html", "--check", str(out)]) == 0
        assert "all headline metric keys present" in capsys.readouterr().out

    def test_check_fails_on_metric_drift(self, tmp_path, capsys):
        model = _sample_model()
        del model["metrics"]["replay.runs"]
        out = tmp_path / "dash.html"
        report_html.write_dashboard(model, str(out))
        assert main(["obs", "html", "--check", str(out)]) == 1
        assert "replay.runs" in capsys.readouterr().err

    def test_check_rejects_non_dashboard_file(self, tmp_path, capsys):
        stray = tmp_path / "not-a-dashboard.html"
        stray.write_text("<html></html>")
        assert main(["obs", "html", "--check", str(stray)]) == 2
        assert "no embedded dashboard model" in capsys.readouterr().err

    def test_trace_file_required_without_check(self, capsys):
        assert main(["obs", "html"]) == 2
        assert "trace file is required" in capsys.readouterr().err


class TestCliDashboardFlags:
    def test_dashboard_implies_metrics(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "table3",
                "--envs",
                "testbed",
                "--fast",
                "--dashboard",
                "--events-out",
                "events.jsonl",
            ]
        )
        assert code == 0
        page = (tmp_path / "dashboard.html").read_text()
        # --dashboard implied --metrics: the headline tiles have values.
        assert "Headline metrics" in page
        model = report_html.load_model(str(tmp_path / "dashboard.html"))
        assert model["metrics"]["table3.cells"] > 0
        assert report_html.missing_metric_keys(model) == []
        # The telemetry event log was exported alongside.
        header = (tmp_path / "events.jsonl").read_text().splitlines()[0]
        assert json.loads(header)["kind"] == "events.header"
        out = capsys.readouterr()
        assert "--- metrics ---" in out.out

    def test_dashboard_custom_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["table3", "--envs", "testbed", "--fast", "--dashboard", "custom.html"]
        )
        assert code == 0
        assert (tmp_path / "custom.html").exists()
