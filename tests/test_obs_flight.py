"""The flight recorder: sampling, byte budget, once-per-episode dumps, and
dump compatibility with the existing trace analysis machinery."""

import json

import pytest

from repro import obs
from repro.cli.main import main as cli_main
from repro.obs.analyze import TraceIndex
from repro.obs.flight import FlightRecorder

pytestmark = pytest.mark.obs


class TestSampling:
    def test_one_in_n_stride(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=4)
        kept = [recorder.note("proxy.flow", flow=i) for i in range(16)]
        assert kept == [True, False, False, False] * 4
        stats = recorder.stats()
        assert stats["offered"] == 16 and stats["sampled"] == 4

    def test_first_offer_is_always_sampled(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=1000)
        assert recorder.note("proxy.flow", flow=0)

    def test_capacity_evicts_oldest(self, tmp_path):
        recorder = FlightRecorder(tmp_path, capacity=8, sample_every=1)
        for i in range(50):
            recorder.note("proxy.flow", flow=i)
        stats = recorder.stats()
        assert stats["ring_records"] == 8
        assert stats["evicted"] == 42

    def test_byte_budget_bounds_the_ring(self, tmp_path):
        recorder = FlightRecorder(
            tmp_path, capacity=10_000, sample_every=1, byte_budget=2048
        )
        for i in range(500):
            recorder.note("proxy.flow", flow=i, technique="tcp-segment-reorder")
        stats = recorder.stats()
        assert stats["ring_bytes"] <= 2048
        assert stats["ring_records"] < 500
        assert stats["evicted"] > 0

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path, capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path, sample_every=0)
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path, byte_budget=10)


class TestEpisodes:
    def test_dump_fires_exactly_once_per_episode(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        for i in range(5):
            recorder.note("proxy.flow", flow=i)
        first = recorder.trip("overload_shed", episode="overload", flow=5)
        assert first is not None and first.exists()
        # The storm continues: hundreds more trips, zero more dumps.
        for i in range(200):
            assert recorder.trip("overload_shed", episode="overload", flow=6 + i) is None
        stats = recorder.stats()
        assert stats["dumps"] == 1
        assert stats["suppressed_trips"] == 200
        assert stats["open_episodes"] == ["overload"]

    def test_recover_rearms_the_episode(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        assert recorder.trip("overload_shed", episode="overload") is not None
        recorder.recover("overload")
        second = recorder.trip("overload_shed", episode="overload")
        assert second is not None
        assert recorder.stats()["dumps"] == 2
        assert second.name != "flight-001-overload-shed.jsonl"

    def test_distinct_episodes_dump_independently(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        assert recorder.trip("step_down", episode="step_down:1") is not None
        assert recorder.trip("step_down", episode="step_down:2") is not None
        assert recorder.trip("circuit_open", episode="circuit") is not None
        assert recorder.stats()["dumps"] == 3

    def test_episode_defaults_to_reason(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        assert recorder.trip("slo_p99") is not None
        assert recorder.trip("slo_p99") is None
        recorder.recover()  # blanket recover closes everything
        assert recorder.trip("slo_p99") is not None


class TestDumpFormat:
    def test_dump_is_trace_shaped_jsonl(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        for i in range(3):
            recorder.note("proxy.flow", flow=i, verdict="evaded", time_s=float(i))
        path = recorder.trip("step_down", episode="sd", time_s=3.0, flow=3)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        header, records = lines[0], lines[1:]
        assert header["kind"] == "trace.header"
        assert header["schema"] == 1
        assert header["events"] == len(records) == 4  # 3 notes + the trip
        assert header["flight"]["reason"] == "step_down"
        # Canonical JSON: key-sorted, compact.
        for raw, parsed in zip(path.read_text().splitlines(), lines):
            assert raw == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
        assert records[-1]["kind"] == "flight.trip"
        seqs = [record["seq"] for record in records]
        assert seqs == sorted(seqs)

    def test_trace_index_reads_a_dump(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        for i in range(6):
            recorder.note("proxy.flow", flow=i, verdict="evaded")
        path = recorder.trip("circuit_open", episode="circuit", task=2)
        index = TraceIndex.load(str(path))
        assert index.kinds() == {"flight.trip": 1, "proxy.flow": 6}
        trips = index.query(kind="flight.trip")
        assert trips[0]["reason"] == "circuit_open"
        assert trips[0]["episode"] == "circuit"

    def test_cli_obs_flight_inspects_a_dump(self, tmp_path, capsys):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        recorder.note("proxy.flow", flow=0, verdict="shed")
        path = recorder.trip("overload_shed", episode="overload", fullness=0.97)
        assert cli_main(["obs", "flight", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trip: overload_shed (episode overload)" in out
        assert "proxy.flow" in out

    def test_cli_obs_flight_json_mode(self, tmp_path, capsys):
        recorder = FlightRecorder(tmp_path, sample_every=1)
        recorder.note("proxy.flow", flow=0)
        path = recorder.trip("slo_p99")
        assert cli_main(["obs", "flight", str(path), "--json", "--kind", "flight.trip"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 1 and lines[0]["reason"] == "slo_p99"

    def test_cli_obs_flight_missing_file(self, tmp_path, capsys):
        assert cli_main(["obs", "flight", str(tmp_path / "nope.jsonl")]) == 2


class TestGlobals:
    def test_enable_disable(self, tmp_path):
        recorder = FlightRecorder(tmp_path, sample_every=2)
        with obs.installed(FLIGHT=recorder):
            assert obs.FLIGHT is recorder
        assert obs.FLIGHT is None
