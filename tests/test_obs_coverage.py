"""Coverage profiler, verdict provenance and minimal-witness extraction.

Three pillars of the "explaining verdicts" layer:

* the :class:`~repro.obs.coverage.CoverageRecorder` — rule universes,
  dead-rule reporting, automaton state/edge counters, the env × technique
  matrix, and the cross-process dump/merge path — including the acceptance
  guarantees: a deliberately-dead rule is flagged, coverage counters agree
  with the independent trace tallies, and coverage-enabled runs are
  byte-identical across the serial/thread/process pool backends;
* :func:`~repro.obs.provenance.explain_flow` — the golden-trace causal
  chain for the known throttled flow, and the ``obs explain`` / ``obs
  diff`` CLI contracts (exit 0 on byte-identical traces, exit 1 with the
  provenance-bearing event named on divergence);
* :func:`~repro.obs.witness.ddmin` and the end-to-end witness extractor —
  deterministic minimization that converges on the classifier's keyword.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli.main import main
from repro.core.evasion import ALL_TECHNIQUES
from repro.experiments.table3 import run_table3
from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.policy import RulePolicy
from repro.middlebox.rules import MatchRule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.obs import trace as obs_trace
from repro.obs.coverage import (
    COVERAGE_SCHEMA_VERSION,
    CoverageRecorder,
    automaton_digest,
    format_snapshot,
    load_snapshot,
    ruleset_scope,
)
from repro.obs.provenance import explain_flow, format_explain
from repro.obs.witness import ddmin, minimal_payload_witness
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.runtime.pool import WorkerPool

pytestmark = pytest.mark.obs

CLIENT, SERVER = "10.1.0.2", "203.0.113.50"
GOLDEN = Path(__file__).parent / "golden"
THROTTLED = str(GOLDEN / "testbed_throttle_cell.jsonl")

obs_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SLICE = dict(
    env_names=("testbed",),
    techniques=ALL_TECHNIQUES[:6],
    include_os_matrix=False,
    characterize=False,
)


def make_engine(extra_rules=(), **overrides):
    policy = PolicyState()
    defaults = dict(
        name="dpi",
        rules=[
            MatchRule(
                name="video",
                keywords=[b"video.example.com"],
                policy=RulePolicy.throttle(1_500_000),
            ),
            *extra_rules,
        ],
        policy_state=policy,
        validation=MiddleboxValidation.lax(),
        reassembly=ReassemblyMode.PER_PACKET,
        inspect_packet_limit=5,
        match_and_forget=True,
        require_protocol_anchor=False,
        track_flows=True,
    )
    defaults.update(overrides)
    return DPIMiddlebox(**defaults)


def run_flows(engine, payloads):
    """Feed each payload through its own single-packet TCP flow."""
    clock = VirtualClock()
    sink = []
    ctx = TransitContext(clock=clock, inject_back=sink.append, inject_forward=sink.append)
    for index, payload in enumerate(payloads):
        sport = 40_000 + index
        syn = TCPSegment(sport=sport, dport=80, seq=1, flags=TCPFlags.SYN)
        engine.process(
            IPPacket(src=CLIENT, dst=SERVER, transport=syn),
            Direction.CLIENT_TO_SERVER,
            ctx,
        )
        segment = TCPSegment(
            sport=sport,
            dport=80,
            seq=2,
            ack=1,
            flags=TCPFlags.ACK | TCPFlags.PSH,
            payload=payload,
        )
        engine.process(
            IPPacket(src=CLIENT, dst=SERVER, transport=segment),
            Direction.CLIENT_TO_SERVER,
            ctx,
        )
        clock.advance(0.001)


# ----------------------------------------------------------------------
# recorder unit behaviour
# ----------------------------------------------------------------------
class TestCoverageRecorder:
    def test_scope_and_digest_are_content_addressed(self):
        assert ruleset_scope(["a", "b"]) == ruleset_scope(iter(("a", "b")))
        assert ruleset_scope(["a", "b"]) != ruleset_scope(["b", "a"])
        # Length-prefixing keeps concatenation ambiguity out of the digest.
        assert ruleset_scope(["ab", "c"]) != ruleset_scope(["a", "bc"])
        assert automaton_digest([b"x", b"y"]) == automaton_digest([b"y", b"x"])
        assert automaton_digest([b"x"]) != automaton_digest([b"xy"])

    def test_dead_rules_are_first_class(self):
        recorder = CoverageRecorder()
        recorder.register_rules("s", ["hit", "never"])
        recorder.rule_hit("s", "hit")
        assert recorder.exercised("s") == ("hit",)
        assert recorder.dead("s") == ("never",)
        snap = recorder.snapshot()
        assert snap["schema"] == COVERAGE_SCHEMA_VERSION
        assert snap["scopes"]["s"]["dead"] == ["never"]
        assert snap["scopes"]["s"]["hits"] == {"hit": 1, "never": 0}
        assert snap["total_rule_hits"] == 1
        assert "! s/never" not in format_snapshot(snap)  # keys are rule names
        assert "never" in format_snapshot(snap)

    def test_cell_context_attributes_hits(self):
        recorder = CoverageRecorder()
        recorder.register_rules("s", ["r"])
        with recorder.cell_context("env", "tech"):
            recorder.rule_hit("s", "r")
        recorder.rule_hit("s", "r")  # outside any cell
        snap = recorder.snapshot()
        assert snap["matrix"] == {
            "env×tech": {
                "env": "env",
                "technique": "tech",
                "rule_hits": 1,
                "rules": {"s/r": 1},
            }
        }
        assert snap["scopes"]["s"]["hits"]["r"] == 2

    def test_merge_dump_sums_counters_and_unions_universes(self):
        a, b, merged = CoverageRecorder(), CoverageRecorder(), CoverageRecorder()
        for recorder in (a, b):
            recorder.register_rules("s", ["r1", "r2"])
            recorder.register_automaton("d", 3, 2)
        a.rule_hit("s", "r1")
        a.automaton_walk("d", [0, 1], 1)
        b.rule_hit("s", "r1")
        b.rule_hit("s", "r2")
        b.automaton_walk("d", [1, 2], 2)
        merged.merge_dump(a.dump())
        merged.merge_dump(b.dump())
        snap = merged.snapshot()
        assert snap["scopes"]["s"]["hits"] == {"r1": 2, "r2": 1}
        assert snap["scopes"]["s"]["dead"] == []
        automaton = snap["automata"]["d"]
        assert automaton["state_visits"] == 4
        assert automaton["edges_walked"] == 3

    def test_reset_keeps_universe(self):
        recorder = CoverageRecorder()
        recorder.register_rules("s", ["r"])
        recorder.rule_hit("s", "r")
        recorder.reset()
        snap = recorder.snapshot()
        assert snap["scopes"]["s"]["hits"] == {"r": 0}
        assert snap["scopes"]["s"]["dead"] == ["r"]

    def test_load_snapshot_rejects_alien_schema(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(str(path))

    def test_covering_restores_previous_recorder(self):
        assert obs.COVERAGE is None
        outer = CoverageRecorder()
        with obs.installed(COVERAGE=outer):
            assert obs.COVERAGE is outer
            inner = CoverageRecorder()
            with obs.installed(COVERAGE=inner):
                assert obs.COVERAGE is inner
            assert obs.COVERAGE is outer
        assert obs.COVERAGE is None


# ----------------------------------------------------------------------
# engine integration: dead rules, trace agreement, determinism
# ----------------------------------------------------------------------
class TestEngineCoverage:
    def test_deliberately_dead_rule_is_flagged(self):
        """The acceptance fixture: a rule no workload exercises shows dead."""
        dead_rule = MatchRule(
            name="dead-rule",
            keywords=[b"never-on-the-wire.invalid"],
            policy=RulePolicy.block_with_rsts(),
        )
        engine = make_engine(extra_rules=[dead_rule])
        recorder = CoverageRecorder()
        with obs.installed(COVERAGE=recorder):
            run_flows(
                engine,
                [b"GET / HTTP/1.1\r\nHost: video.example.com\r\n\r\n"],
            )
            snap = recorder.snapshot()
        (scope,) = snap["scopes"]
        assert snap["scopes"][scope]["dead"] == ["dead-rule"]
        assert snap["scopes"][scope]["hits"]["video"] == 1

    def test_coverage_equals_trace_and_match_log_tallies(self):
        """Coverage counters, `mbx.rule_match` events and `matches_logged`
        are three independent ledgers of the same fact."""
        engine = make_engine()
        payloads = [
            b"Host: video.example.com",
            b"nothing to see",
            b"video.example.com again",
            b"still nothing",
        ]
        recorder, tracer = CoverageRecorder(), obs_trace.FlowTracer()
        with obs.installed(COVERAGE=recorder, TRACER=tracer):
            run_flows(engine, payloads)
            snap = recorder.snapshot()
        trace_matches = len(tracer.events("mbx.rule_match"))
        coverage_hits = snap["total_rule_hits"]
        assert coverage_hits == trace_matches == engine.matches_logged == 2

    @given(
        flows=st.lists(
            st.tuples(st.booleans(), st.binary(min_size=0, max_size=40)),
            min_size=1,
            max_size=12,
        )
    )
    @obs_settings
    def test_coverage_matches_trace_tallies_property(self, flows):
        """For arbitrary flow batches, coverage hit totals equal the
        trace-derived rule-match tally and the engine's own counter."""
        engine = make_engine()
        payloads = [
            (b"x " + body + b" video.example.com" if match else body)
            for match, body in flows
        ]
        recorder, tracer = CoverageRecorder(), obs_trace.FlowTracer()
        with obs.installed(COVERAGE=recorder, TRACER=tracer):
            run_flows(engine, payloads)
            total = recorder.snapshot()["total_rule_hits"]
        trace_matches = len(tracer.events("mbx.rule_match"))
        assert total == trace_matches == engine.matches_logged

    @given(payload=st.binary(min_size=0, max_size=80))
    @obs_settings
    def test_counted_walk_matches_bulk_scan(self, payload):
        """The counted automaton walk returns the same mask as the regex
        bulk path, and visits exactly one state per byte walked."""
        engine = make_engine()
        view = engine._view("tcp", 80, "client")
        automaton = view.automaton
        plain = automaton.scan_mask(payload)
        recorder = CoverageRecorder()
        with obs.installed(COVERAGE=recorder):
            covered = automaton.scan_mask(payload)
            snap = recorder.snapshot()
        assert covered == plain
        if payload:
            (automaton_stats,) = snap["automata"].values()
            assert automaton_stats["state_visits"] == len(payload)

    def test_rule_match_trace_carries_provenance_fields(self):
        engine = make_engine()
        tracer = obs_trace.FlowTracer()
        with obs.installed(TRACER=tracer):
            run_flows(engine, [b"GET video.example.com"])
        (event,) = tracer.events("mbx.rule_match")
        match = event.fields
        assert match["rule_scope"].startswith("ruleset:")
        assert match["automaton"] is not None
        assert match["match_start"] < match["match_end"]

    def test_traced_coverage_run_registers_every_scope_rule(self):
        """Engine `_view` registers the full universe even when only one
        rule ever matches — dead rules exist because registration does."""
        engine = make_engine(
            extra_rules=[
                MatchRule(
                    name="other",
                    keywords=[b"other.example.org"],
                    policy=RulePolicy.block_with_rsts(),
                )
            ]
        )
        recorder = CoverageRecorder()
        with obs.installed(COVERAGE=recorder):
            run_flows(engine, [b"plain traffic only"])
            snap = recorder.snapshot()
        (scope,) = snap["scopes"]
        assert snap["scopes"][scope]["rules"] == 2
        assert snap["scopes"][scope]["exercised"] == 0


# ----------------------------------------------------------------------
# backend identity: serial / thread / process coverage is byte-identical
# ----------------------------------------------------------------------
class TestBackendIdentity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_coverage_snapshot_identical_across_backends(self, backend):
        recorder = CoverageRecorder()
        with obs.installed(COVERAGE=recorder):
            run_table3(pool=WorkerPool("serial"), **_SLICE)
            serial = json.dumps(recorder.snapshot(), sort_keys=True)
        recorder = CoverageRecorder()
        with obs.installed(COVERAGE=recorder):
            run_table3(pool=WorkerPool(backend, max_workers=2), **_SLICE)
            concurrent = json.dumps(recorder.snapshot(), sort_keys=True)
        assert concurrent == serial

    def test_matrix_covers_every_cell(self):
        recorder = CoverageRecorder()
        with obs.installed(COVERAGE=recorder):
            run_table3(**_SLICE)
            snap = recorder.snapshot()
        expected = {
            f"testbed×{technique.name}" for technique in _SLICE["techniques"]
        }
        assert set(snap["matrix"]) <= expected
        # Every matrix entry's hits re-sum to the per-cell total.
        for cell in snap["matrix"].values():
            assert cell["rule_hits"] == sum(cell["rules"].values())


# ----------------------------------------------------------------------
# provenance: the golden throttled flow and the CLI contracts
# ----------------------------------------------------------------------
class TestProvenance:
    def test_golden_throttled_flow_full_causal_chain(self):
        """Acceptance: `obs explain` reconstructs the whole chain for the
        known throttled flow — creation, anchor, rule match with byte
        range, then the throttle verdict."""
        from repro.obs.analyze import TraceIndex

        index = TraceIndex.load(THROTTLED)
        chain = explain_flow(index, "40001>203.0.113.50:80")
        assert chain["resolved"] == "10.1.0.2:40001>203.0.113.50:80/6"
        (verdict,) = chain["verdicts"]
        assert verdict["verdict"] == "testbed:video.example.com"
        assert verdict["reason"] == "rule-match"
        kinds = [cause["kind"] for cause in verdict["causes"]]
        assert kinds == ["mbx.flow_created", "mbx.anchor", "mbx.rule_match"]
        match = verdict["causes"][-1]
        assert match["rule"] == "testbed:video.example.com"
        assert match["match_start"] < match["match_end"]
        assert match["action"] == "throttle"
        assert match["rule_scope"].startswith("ruleset:")
        rendered = format_explain(chain)
        assert "verdict 'testbed:video.example.com' (rule-match)" in rendered
        assert "mbx.rule_match" in rendered

    def test_explain_unknown_flow_reports_no_events(self):
        from repro.obs.analyze import TraceIndex

        index = TraceIndex.load(THROTTLED)
        chain = explain_flow(index, "1.2.3.4:5>6.7.8.9:10/6")
        assert chain["resolved"] is None
        assert "no events" in format_explain(chain)

    def test_cli_explain_golden_flow(self, capsys):
        code = main(["obs", "explain", THROTTLED, "--flow", "40001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "testbed:video.example.com" in out
        assert "mbx.rule_match" in out

    def test_cli_explain_json_is_schema_versioned(self, capsys):
        code = main(["obs", "explain", THROTTLED, "--flow", "40001", "--json"])
        assert code == 0
        chain = json.loads(capsys.readouterr().out)
        assert chain["schema"] == 1
        assert chain["verdicts"]

    def test_cli_explain_missing_flow_exits_2(self, capsys):
        code = main(["obs", "explain", THROTTLED, "--flow", "no-such-flow"])
        assert code == 2

    def test_cli_diff_identical_traces_exits_0(self, capsys):
        assert main(["obs", "diff", THROTTLED, THROTTLED]) == 0

    def test_cli_diff_provenance_divergence_exits_1(self, tmp_path, capsys):
        """A divergence in a provenance-bearing event (the rule id of the
        winning match) is structural: exit 1 and the event named."""
        lines = Path(THROTTLED).read_text().splitlines()
        mutated = [
            line.replace("testbed:video.example.com", "testbed:other.rule")
            if '"mbx.rule_match"' in line
            else line
            for line in lines
        ]
        other = tmp_path / "mutated.jsonl"
        other.write_text("\n".join(mutated) + "\n")
        code = main(["obs", "diff", THROTTLED, str(other)])
        assert code == 1
        out = capsys.readouterr().out
        assert "mbx.rule_match" in out


# ----------------------------------------------------------------------
# coverage CLI
# ----------------------------------------------------------------------
class TestCoverageCli:
    def _snapshot_file(self, tmp_path):
        dead_rule = MatchRule(
            name="dead-rule",
            keywords=[b"never-on-the-wire.invalid"],
            policy=RulePolicy.block_with_rsts(),
        )
        engine = make_engine(extra_rules=[dead_rule])
        recorder = CoverageRecorder()
        with obs.installed(COVERAGE=recorder):
            run_flows(engine, [b"GET video.example.com"])
            snap = recorder.snapshot()
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps(snap))
        return str(path)

    def test_cli_coverage_reports_dead_rule(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path)
        assert main(["obs", "coverage", path]) == 0
        out = capsys.readouterr().out
        assert "1/2 rules exercised" in out
        assert "! dead-rule" in out

    def test_cli_coverage_fail_on_dead(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path)
        assert main(["obs", "coverage", path, "--fail-on-dead"]) == 1

    def test_cli_coverage_rejects_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 999}))
        assert main(["obs", "coverage", str(bad)]) == 2

    def test_table3_coverage_flag_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "coverage.json"
        code = main(
            [
                "table3",
                "--fast",
                "--envs",
                "testbed",
                "--coverage",
                str(out),
            ]
        )
        assert code == 0
        snap = json.loads(out.read_text())
        assert snap["schema"] == COVERAGE_SCHEMA_VERSION
        assert snap["total_rule_hits"] > 0
        assert any(info["dead"] for info in snap["scopes"].values())


# ----------------------------------------------------------------------
# the minimal-witness extractor
# ----------------------------------------------------------------------
class TestWitness:
    def test_ddmin_finds_singleton(self):
        probes = []

        def needs_seven(items):
            probes.append(tuple(items))
            return 7 in items

        assert ddmin(list(range(20)), needs_seven) == [7]

    def test_ddmin_finds_scattered_pair(self):
        def needs_both(items):
            return 2 in items and 17 in items

        assert ddmin(list(range(20)), needs_both) == [2, 17]

    def test_ddmin_empty_property_returns_empty(self):
        assert ddmin(list(range(8)), lambda items: True) == []

    def test_witness_converges_on_the_keyword(self):
        """Acceptance: the minimal witness is the matched rule read back
        out of the black box — the keyword plus the protocol anchor."""
        report = minimal_payload_witness(
            "testbed",
            b"GET / HTTP/1.1\r\nHost: video.example.com\r\n\r\n",
        )
        assert report["verdict"] == "testbed:video.example.com"
        assert report["control_verdict"] is None
        witness = report["witness"]
        assert witness is not None
        assert b"video.example.com" in bytes.fromhex(witness["bytes_hex"])
        assert witness["length"] < report["payload_len"]

    def test_witness_unknown_env_raises(self):
        with pytest.raises(ValueError, match="unknown environment"):
            minimal_payload_witness("nowhere", b"x")

    def test_witness_is_deterministic(self):
        kwargs = dict(env_name="testbed", payload=b"GET video.example.com x")
        assert minimal_payload_witness(**kwargs) == minimal_payload_witness(**kwargs)

    def test_cli_witness_json(self, capsys):
        code = main(
            [
                "obs",
                "witness",
                "--env",
                "testbed",
                "--payload",
                "GET video.example.com",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["witness"] is not None
