"""Benchmark-suite helpers: every bench saves its paper-style table to disk.

Benchmarks additionally emit machine-readable ``BENCH_<name>.json`` files
(wall-clock seconds, simulated packets/second, replay rounds) so CI and the
regression tracker in ``benchmarks/results/BENCH_baseline.json`` can compare
runs without scraping text tables.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.netsim.path import packets_propagated
from repro.obs import history as obs_history
from repro.obs import profiling as obs_profiling

RESULTS_DIR = Path(__file__).parent / "results"
HISTORY_FILE = RESULTS_DIR / "BENCH_history.jsonl"

try:
    import pytest_timeout  # noqa: F401
except ImportError:
    # Same shim as tests/conftest.py: keep the ``timeout`` ini key valid for
    # benchmark runs when pytest-timeout is not installed locally.
    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test timeout in seconds (enforced only with pytest-timeout)",
            default=None,
        )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: Path, name: str, content: str) -> None:
    """Persist a rendered experiment table next to the benchmark data."""
    (results_dir / f"{name}.txt").write_text(content + "\n")
    print(f"\n=== {name} ===\n{content}\n")


class BenchProbe:
    """Measure wall-clock time and simulated-packet throughput of a block.

    The packet count is the delta of the process-wide propagation counter,
    so it covers exactly the packets the measured section pushed through
    the simulator.
    """

    def __enter__(self) -> "BenchProbe":
        self._packets0 = packets_propagated()
        self._time0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._time0
        self.packets = packets_propagated() - self._packets0

    @property
    def packets_per_second(self) -> float:
        return self.packets / self.seconds if self.seconds > 0 else 0.0


def save_bench_json(
    results_dir: Path, name: str, probe: BenchProbe, **metrics: object
) -> None:
    """Write ``BENCH_<name>.json`` with the probe's numbers plus *metrics*."""
    payload: dict[str, object] = {
        "name": name,
        "seconds": round(probe.seconds, 4),
        "packets": probe.packets,
        "packets_per_second": round(probe.packets_per_second, 1),
    }
    peak_rss = obs_profiling.peak_rss_kb()
    if peak_rss is not None:
        payload["peak_rss_kb"] = peak_rss
    payload.update(metrics)
    if obs.PROFILER is not None and obs.PROFILER.stages:
        payload["profile"] = obs.PROFILER.snapshot()
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n=== BENCH_{name}.json ===\n{path.read_text()}")
    if os.environ.get("REPRO_BENCH_HISTORY") == "1":
        # Opt-in so local experiments don't churn the committed rolling
        # history; CI appends explicitly via ``watchdog.py --append``.
        obs_history.append_entries(
            HISTORY_FILE, [obs_history.entry_from_bench(payload, timestamp=time.time())]
        )
