"""Self-tests of the layer ledger and of each workload's traced run.

Run from the repository root (not part of the tier-1 suite, which collects
``tests/`` only; the workload cases take about a minute each)::

    python3 -m pytest -q perfbench/test_ledger.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ledger import Ledger, window  # noqa: E402
from run import LAYER_METRICS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
UNATTRIBUTED_LIMIT = 0.15


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_and_match_the_spans():
    ledger = Ledger()
    leaf = ledger.wrap("leaf", lambda: _spin(0.002))

    def middle_body():
        _spin(0.003)
        leaf()
        leaf()

    middle = ledger.wrap("middle", middle_body)

    def top_body():
        _spin(0.001)
        middle()
        leaf()

    top = ledger.wrap("top", top_body)
    ledger.recording = True
    before = ledger.snapshot()
    start = time.perf_counter()
    top()
    wall = time.perf_counter() - start
    totals = window(before, ledger.snapshot())

    assert totals["calls"] == {"leaf": 3, "middle": 1, "top": 1}
    assert sum(totals["self_s"].values()) == pytest.approx(wall, rel=0.02)
    assert totals["self_s"]["leaf"] >= 0.006
    assert totals["self_s"]["middle"] == pytest.approx(0.003, abs=0.002)

    # Self time recomputed from the recorded spans equals the ledger's.
    spans = {span[0]: span for span in ledger.spans}
    child_time = {span_id: 0.0 for span_id in spans}
    for span_id, parent, _layer, begin, end, _tag in spans.values():
        if parent is not None:
            child_time[parent] += end - begin
            assert spans[parent][3] <= begin and end <= spans[parent][4]
    recomputed: dict[str, float] = {}
    for span_id, _parent, layer, begin, end, _tag in spans.values():
        recomputed[layer] = recomputed.get(layer, 0.0) + (end - begin) - child_time[span_id]
    for layer, value in recomputed.items():
        assert value == pytest.approx(totals["self_s"][layer], abs=1e-9)


def test_every_ledger_layer_has_a_metric():
    import importlib

    ledger_module = importlib.import_module("ledger")
    layers = {target[0] for target in ledger_module.TARGETS}
    layers |= {"netsim.element", "netsim.faults", "middlebox.process", "endpoint.receive",
               "core.proxy.loop", "core.proxy.wait"}
    assert layers <= set(LAYER_METRICS)
    for calls_name, self_name in LAYER_METRICS.values():
        assert calls_name is None or calls_name in PER_LAYER_UNITS
        assert self_name is None or self_name in PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_outputs_and_its_ledger_adds_up(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "6", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # ``correct`` covers the traced run reproducing the untraced outputs:
    # paper agreement, sim_packets and cells for table3, the churn counters,
    # and every serve verdict against the in-process reference.
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER_UNITS)

    traced_run_s = metrics["bench.traced_run_s"]
    unattributed = metrics["bench.unattributed_frac"]
    layer_self = sum(metrics[self_name] for _, self_name in LAYER_METRICS.values())
    if workload == "serve_mix":
        # Pipeline phases are reported from the server's set-up, outside the window.
        layer_self -= sum(metrics[f"core.{p}.self_s"]
                          for p in ("detect", "characterize", "localize", "evaluate"))
    assert layer_self + unattributed * traced_run_s == pytest.approx(traced_run_s, rel=1e-9)
    assert -0.01 <= unattributed < UNATTRIBUTED_LIMIT
    assert metrics["bench.trace_overhead"] > 0
