"""Import layering: a process loads only the layers it runs.

Each check runs in a fresh interpreter (``sys.modules`` in this process is
shared with every other test), imports or runs a workload's entry points
and reports what got loaded.  The hot layers -- packets, netsim, middlebox,
the replay and experiment drivers -- must not pull in the CLI, the obs
analysis tools, the asyncio ops server or the process-pool machinery, and
a run with no coverage recorder and no tracer must not load OpenSSL's
hashlib: only those read the rule-set and automaton digests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Standard-library modules only a server, a concurrent pool or the CLI needs.
SERVER_AND_POOL_STDLIB = ("asyncio", "multiprocessing", "concurrent.futures.process")

#: hashlib and the OpenSSL binding it loads (about 3.6 MB resident); only the
#: coverage and trace labels and ``derive_seed`` hash.
HASHING = ("hashlib", "_hashlib")

#: A Table 3 column and a small churn run, untraced.
RUN_TABLE3_COLUMN_AND_CHURN = (
    "from repro.experiments.table3 import run_table3\n"
    "from repro.experiments.scale import ScaleConfig, run_scale\n"
    "run_table3(env_names=('gfc',), include_os_matrix=False)\n"
    "run_scale(ScaleConfig(flows=2_000, max_flows=256))\n"
)

#: Obs modules that analyse exported traces; no instrumented layer needs them.
OBS_TOOLS = tuple(
    f"repro.obs.{name}"
    for name in ("analyze", "diff", "history", "provenance", "report_html", "witness")
)


def loaded_after(script: str) -> set[str]:
    """The module names loaded in a fresh interpreter after running *script*."""
    probe = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return set(json.loads(out.stdout.splitlines()[-1]))


def loaded_under(modules: set[str], prefixes: tuple[str, ...]) -> list[str]:
    """The loaded modules that are one of *prefixes* or inside one of them."""
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def test_churn_entry_loads_only_the_flow_table_layers():
    modules = loaded_after("import repro.experiments.scale")
    assert "repro.experiments.scale" in modules
    forbidden = (
        SERVER_AND_POOL_STDLIB
        + ("repro.cli", "repro.core", "repro.envs", "repro.replay", "repro.runtime")
        + ("repro.endpoint.rawclient", "repro.endpoint.tcpstack", "repro.endpoint.udpstack")
        + OBS_TOOLS
        + HASHING
    )
    assert loaded_under(modules, forbidden) == []


def test_table3_entry_loads_no_server_pool_cli_or_tool_code():
    modules = loaded_after(
        "import repro.experiments.table3, repro.envs, repro.runtime\n"
        "from repro.runtime import WorkerPool\n"
        "WorkerPool(backend='serial').map(abs, [-1, 2])"
    )
    assert "repro.experiments.table3" in modules
    forbidden = SERVER_AND_POOL_STDLIB + ("repro.cli",) + OBS_TOOLS + HASHING
    assert loaded_under(modules, forbidden) == []


def test_untraced_table3_column_and_churn_runs_never_load_hashlib():
    modules = loaded_after(RUN_TABLE3_COLUMN_AND_CHURN)
    assert {"repro.experiments.table3", "repro.experiments.scale"} <= modules
    assert loaded_under(modules, HASHING) == []


def test_coverage_and_tracing_read_the_content_digests():
    """The same runs with a coverage recorder and a tracer installed do hash,
    and every label they record is the sha256 label of its content."""
    script = (
        "from repro import obs\n"
        "from repro.middlebox import automaton as mbx_automaton\n"
        "from repro.obs.coverage import CoverageRecorder, automaton_digest, ruleset_scope\n"
        "from repro.obs.trace import FlowTracer\n"
        "recorder, tracer = CoverageRecorder(), FlowTracer()\n"
        "with obs.installed(COVERAGE=recorder, TRACER=tracer):\n"
        + "".join("    " + line + "\n" for line in RUN_TABLE3_COLUMN_AND_CHURN.splitlines())
        + "assert recorder.universe and recorder.automata\n"
        "for scope, names in recorder.universe.items():\n"
        "    assert scope == ruleset_scope(names), scope\n"
        "digests = {automaton_digest(key) for key in mbx_automaton._INTERNED}\n"
        "assert set(recorder.automata) <= digests\n"
        "matches = tracer.events('mbx.rule_match')\n"
        "assert matches\n"
        "for event in matches:\n"
        "    assert event.fields['rule_scope'] in recorder.universe\n"
        "    assert event.fields['automaton'] in digests\n"
    )
    modules = loaded_after(script)
    assert loaded_under(modules, HASHING) == sorted(HASHING)


@pytest.mark.parametrize("package", ["repro", "repro.traffic"])
def test_every_public_name_resolves(package):
    script = (
        "import importlib\n"
        f"module = importlib.import_module({package!r})\n"
        "missing = [name for name in module.__all__ if getattr(module, name, None) is None]\n"
        "assert not missing, missing\n"
        f"namespace = {{}}\nexec('from {package} import *', namespace)\n"
        "assert set(module.__all__) <= set(namespace), set(module.__all__) - set(namespace)\n"
        "from repro.obs import observability_off\n"
        "observability_off()"
    )
    assert package in loaded_after(script)


def test_one_traffic_generator_loads_only_its_module():
    modules = loaded_after("from repro.traffic import stun_trace")
    assert "repro.traffic.stun" in modules
    others = ("http", "pcap", "quic", "recorder", "tls", "video")
    assert loaded_under(modules, tuple(f"repro.traffic.{name}" for name in others)) == []
