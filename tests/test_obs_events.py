"""The event fan-out: one ``obs.EVENTS.emit`` per fact, each sink its share.

* ``obs.EVENTS`` follows the ``TRACER``/``METRICS``/``BUS`` slots through
  every installer entry and exit, normal or raised;
* every catalog kind reaches each installed sink with exactly its
  projection and bumps exactly its counters;
* the bus's ``events.jsonl`` schema is pinned kind by kind;
* no module outside ``repro.obs`` emits to the tracer or the bus directly
  or assigns a slot;
* the catalog and ``docs/OBSERVABILITY.md`` name the same kinds and
  counters;
* the deterministic metric snapshot holds no wall-clock value.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.middlebox.state import UNCLASSIFIED_FINAL
from repro.obs.events import ALL, CATALOG, Only
from repro.obs.live import TelemetryBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FlowTracer

pytestmark = pytest.mark.obs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

SINKS = {"TRACER": FlowTracer, "METRICS": MetricsRegistry, "BUS": TelemetryBus}
SUBSETS = [
    combo for size in range(len(SINKS) + 1) for combo in itertools.combinations(SINKS, size)
]


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "none")
def test_events_follow_the_installer(subset):
    outer = {name: SINKS[name]() for name in subset}
    assert obs.EVENTS is None
    with obs.installed(**outer):
        if not subset:
            assert obs.EVENTS is None
        else:
            fanout = obs.EVENTS
            assert (fanout.tracer, fanout.metrics, fanout.bus) == tuple(
                outer.get(name) for name in SINKS
            )
        before = obs.EVENTS
        inner = {name: SINKS[name]() for name in SINKS}
        with pytest.raises(RuntimeError), obs.installed(**inner):
            assert obs.EVENTS.tracer is inner["TRACER"]
            raise RuntimeError("the body fails")
        restored = obs.EVENTS
        if before is None:
            assert restored is None
        else:
            assert (restored.tracer, restored.metrics, restored.bus) == (
                before.tracer, before.metrics, before.bus,
            )
    assert obs.EVENTS is None
    with obs.installed(**outer):
        obs.observability_off()
        assert obs.EVENTS is None


def _synthetic_fields(kind) -> dict:
    """One distinct value per field the kind names; counter conditions hold."""
    names = [
        name
        for projection in (kind.trace, kind.bus)
        if projection not in (None, ALL)
        for name in projection
    ]
    for counter in kind.counters:
        if isinstance(counter, str):
            names += re.findall(r"{(\w+)}", counter)
    fields = {name: f"<{name}>" for name in names}
    if ALL in (kind.trace, kind.bus):
        fields["extra"] = 7
    for counter in kind.counters:
        if isinstance(counter, Only):
            fields.setdefault(counter.field, counter.value)
    return fields


def _expected_counters(kind, fields) -> dict:
    expected = {}
    for counter in kind.counters:
        if isinstance(counter, str):
            expected[counter.format_map(fields)] = 1
        elif fields[counter.field] == counter.value:
            expected[counter.name] = 1
    return expected


def _projection(projection, fields):
    if projection is None:
        return None
    if projection is ALL:
        return fields
    return {name: fields[name] for name in projection}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_each_sink_gets_exactly_its_share(name):
    kind = CATALOG[name]
    fields = _synthetic_fields(kind)
    tracer, metrics, bus = FlowTracer(), MetricsRegistry(), TelemetryBus()
    with obs.installed(TRACER=tracer, METRICS=metrics, BUS=bus):
        obs.EVENTS.emit(name, 2.5, **fields)
    trace = _projection(kind.trace, fields)
    assert [(e.kind, e.time, e.fields) for e in tracer.events()] == (
        [] if trace is None else [(name, 2.5, trace)]
    )
    shared = _projection(kind.bus, fields)
    assert [(e.kind, e.fields) for e in bus.events()] == (
        [] if shared is None else [(name, shared)]
    )
    assert metrics.counters() == _expected_counters(kind, fields)
    # A sink that is not installed gets nothing, and the others the same.
    alone = MetricsRegistry()
    with obs.installed(METRICS=alone):
        assert obs.EVENTS.reaches(name) == bool(kind.counters)
        obs.EVENTS.emit(name, 2.5, **fields)
    assert alone.counters() == metrics.counters()
    with obs.installed(TRACER=FlowTracer()):
        assert obs.EVENTS.reaches(name) == (kind.trace is not None)


def test_conditional_counters_follow_their_field():
    metrics = MetricsRegistry()
    fields = dict.fromkeys(CATALOG["replay.verdict"].trace, "x")
    with obs.installed(METRICS=metrics):
        obs.EVENTS.emit("replay.verdict", **{**fields, "differentiated": True})
        obs.EVENTS.emit("replay.verdict", **{**fields, "differentiated": False})
        obs.EVENTS.emit("replay.verdict", **{**fields, "differentiated": False})
        verdict = dict(element="e", flow={}, reason="rule-match")
        obs.EVENTS.emit("mbx.verdict", verdict="http-video", **verdict)
        obs.EVENTS.emit("mbx.verdict", verdict=UNCLASSIFIED_FINAL, **verdict)
    assert metrics.counters() == {
        "replay.differentiated": 1,
        "replay.undifferentiated": 2,
        "mbx.verdicts.unclassified_final": 1,
    }


def test_a_missing_field_raises():
    with obs.installed(BUS=TelemetryBus()):
        with pytest.raises(KeyError, match="category"):
            obs.EVENTS.emit("table3.cell", env="gfc", technique="t", cc=True, rs=True)


#: The ``events.jsonl`` schema: per bus kind, the trace's fields (None: the
#: kind never reaches the trace) and the bus's, in order.
BUS_SCHEMA = {
    "exp.start": (None, ALL),
    "exp.finish": (None, ALL),
    "cell.start": (None, ("env", "phase")),
    "cell.finish": (None, ("env", "cells")),
    "table3.cell": (
        ("env", "technique", "cc", "rs"), ("env", "technique", "category", "cc", "rs"),
    ),
    "figure4.sample": (("hour", "trial", "min_delay"), ("hour", "trial", "min_delay")),
    "fault.drop": (ALL, ("element", "reason")),
    "fault.corrupt": (ALL, ("element", "reason")),
    "fault.duplicate": (ALL, ("element", "reason")),
    "fault.reorder": (ALL, ("element", "reason")),
    "mbx.overload": (None, ("element", "phase", "fullness", "shed")),
    "replay.verdict": (
        (
            "env", "trace_name", "technique", "verdict", "differentiated", "delivered_ok",
            "server_response_ok", "blocked", "rst_count",
        ),
        ("env", "technique", "verdict", "differentiated"),
    ),
    "pipeline.phase": (("env", "trace_name", "phase_name"), ("env", "phase_name")),
    "pool.dispatch": (None, ("task",)),
    "pool.task_done": (None, ("task", "ok")),
    "pool.retry": (("task", "attempt", "error", "backend"),) * 2,
    "pool.task_failed": (("task", "backend"),) * 2,
    "pool.circuit_open": (("task", "backend"),) * 2,
    "pool.serial_fallback": (None, ("task", "error_type")),
    "proxy.serve": (None, ("host", "port", "technique", "env")),
    "proxy.flow": (None, ALL),
    "proxy.step_down": (None, ("flow", "from_technique", "to_technique", "exhausted")),
    "proxy.overload": (None, ("edge", "active")),
}

#: Bus fields the trace of the same kind does not carry.
BUS_ONLY = {"table3.cell": {"category"}}


def test_bus_schema_is_pinned():
    on_bus = {name: (kind.trace, kind.bus) for name, kind in CATALOG.items() if kind.bus}
    assert on_bus == BUS_SCHEMA
    for name, (trace, bus) in on_bus.items():
        if trace not in (None, ALL) and bus is not ALL:
            assert set(bus) - set(trace) == BUS_ONLY.get(name, set()), name


# ----------------------------------------------------------------------
# the guard: one entry point, slots filled only by the installer
# ----------------------------------------------------------------------
SLOT_NAMES = set(obs.SLOTS) | {"EVENTS"}


def _is_obs(node: ast.AST) -> bool:
    """``obs`` or ``repro.obs``."""
    if isinstance(node, ast.Attribute) and node.attr == "obs":
        return isinstance(node.value, ast.Name) and node.value.id == "repro"
    return isinstance(node, ast.Name) and node.id == "obs"


def _slot(node: ast.AST) -> str | None:
    """The slot *node* reads (``obs.TRACER``; ``*`` for ``getattr(obs, ...)``), if any."""
    if isinstance(node, ast.Attribute) and node.attr in SLOT_NAMES and _is_obs(node.value):
        return node.attr
    if isinstance(node, ast.Call) and _is_builtin_on_obs(node, "getattr"):
        return "*"
    return None


def _is_builtin_on_obs(call: ast.Call, name: str) -> bool:
    func = call.func
    named = isinstance(func, ast.Name) and func.id == name
    return named and bool(call.args) and _is_obs(call.args[0])


def _assigned(node: ast.AST) -> list[tuple[ast.AST, ast.AST | None]]:
    """``(target, value)`` pairs an assignment statement binds."""
    if isinstance(node, ast.Assign):
        pairs = []
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs += zip(target.elts, node.value.elts)
            else:
                pairs += [(t, node.value) for t in getattr(target, "elts", [target])]
        return pairs
    if isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
        return [(node.target, node.value)]
    return []


def guard_violations(source: str) -> list[str]:
    """Direct tracer/bus emits and slot assignments in one module's source."""
    nodes = list(ast.walk(ast.parse(source)))
    emitters = {"TRACER", "BUS", "*"}
    aliases = {
        target.id
        for node in nodes
        for target, value in _assigned(node)
        if isinstance(target, ast.Name) and value is not None and _slot(value) in emitters
    }
    found = []
    for node in nodes:
        for target, _ in _assigned(node):
            if _slot(target):
                found.append(f"line {node.lineno}: assigns obs.{target.attr}")
        if isinstance(node, ast.Call) and _is_builtin_on_obs(node, "setattr"):
            found.append(f"line {node.lineno}: setattr on obs")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if node.func.attr == "emit" and (
                _slot(owner) in emitters or getattr(owner, "id", None) in aliases
            ):
                found.append(f"line {node.lineno}: direct emit on {ast.unparse(owner)}")
    return found


def test_guard_catches_each_pattern():
    sample = (
        "from repro import obs\n"
        "obs.TRACER.emit('k')\n"
        "tracer, bus = obs.TRACER, obs.BUS\n"
        "bus.emit('k')\n"
        "obs.METRICS = None\n"
        "setattr(obs, 'OPS', None)\n"
        "events = obs.EVENTS\n"
        "events.emit('k')\n"
    )
    assert sorted(line.split(":")[0] for line in guard_violations(sample)) == [
        "line 2", "line 4", "line 5", "line 6",
    ]


def test_no_module_outside_obs_bypasses_the_entry_point():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "obs") in path.parents:
            continue
        found = guard_violations(path.read_text(encoding="utf-8"))
        if found:
            offenders[str(path.relative_to(SRC))] = found
    assert offenders == {}


# ----------------------------------------------------------------------
# the catalog and the documentation name the same things
# ----------------------------------------------------------------------
DOC = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")


def _table_tokens(heading: str) -> set[str]:
    """Backticked tokens in the table rows of the section under *heading*."""
    section = DOC.split(heading + "\n", 1)[1]
    section = re.split(r"\n#{2,3} ", section, maxsplit=1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return {token for row in rows for token in re.findall(r"`([^`]+)`", row)}


def test_every_kind_is_documented():
    documented = _table_tokens("### Event kinds") | _table_tokens("### Bus event kinds")
    assert sorted(set(CATALOG) - documented) == []


def test_every_counter_is_in_the_metric_catalog():
    documented = _table_tokens("## Metric catalog")
    counters = {
        counter if isinstance(counter, str) else counter.name
        for kind in CATALOG.values()
        for counter in kind.counters
    }
    assert sorted(counters - documented) == []


# ----------------------------------------------------------------------
# the deterministic snapshot holds no wall clock
# ----------------------------------------------------------------------
METERED_RUN = """
import json
from repro import obs
from repro.experiments.table3 import run_table3
from repro.obs.metrics import MetricsRegistry

metrics = MetricsRegistry()
with obs.installed(METRICS=metrics):
    run_table3(env_names=("testbed",), include_os_matrix=False, characterize=False)
wall = sorted(set(metrics.snapshot(include_ops=True)) - set(metrics.snapshot()))
print(json.dumps({"snapshot": metrics.snapshot(), "ops_only": wall}))
"""


def _metered_run() -> dict:
    env = dict(os.environ, PYTHONPATH="src", REPRO_RUNTIME_BACKEND="serial")
    out = subprocess.run(
        [sys.executable, "-c", METERED_RUN], capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.splitlines()[-1])


def test_two_serial_runs_give_equal_snapshots():
    first, second = _metered_run(), _metered_run()
    # Each fresh process builds its automata and times the builds, under
    # ``ops.`` where the deterministic snapshot does not look.
    assert first["ops_only"] == [
        "ops.mbx.automaton.build_seconds", "ops.mbx.automaton.build_us",
    ]
    assert first["snapshot"]["mbx.automaton.builds"] > 0
    assert first["snapshot"] == second["snapshot"]
