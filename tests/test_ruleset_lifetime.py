"""Compiled rule-set lifetime and view keys.

A :class:`~repro.middlebox.ruleindex.CompiledRuleSet` lives as long as an
engine holds it: repeated experiment passes, which rebuild their
environments, must not leave sets behind.  Inside a set, every server port
that no rule's ``ports`` names shares one view per (protocol, direction),
so rotating a flow's server port (characterization does, once per round)
compiles no new view.  Sharing must be exact: each port's view answers as
a view compiled for that port alone does.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.table3 import run_table3
from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.ruleindex import CompiledRuleSet, CompiledView, StreamScan
from repro.middlebox.rules import MatchRule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

CLIENT, SERVER = "10.1.0.2", "203.0.113.50"

NAMED_PORTS = frozenset({80, 443})

keyword_st = st.lists(st.sampled_from([b"a", b"b", b"c"]), min_size=1, max_size=3).map(b"".join)
chunk_st = st.lists(st.sampled_from([b"a", b"b", b"c", b"x"]), max_size=8).map(b"".join)
rule_st = st.builds(
    MatchRule,
    name=st.sampled_from(["r0", "r1", "r2"]),
    keywords=st.lists(keyword_st, min_size=1, max_size=3),
    require_all=st.booleans(),
    protocol=st.sampled_from(["tcp", "udp", "any"]),
    ports=st.sampled_from([None, None, frozenset({80}), frozenset({80, 443}), frozenset({7})]),
    direction=st.sampled_from(["client", "server", "both"]),
    position=st.sampled_from([None, None, 0, 1]),
)
#: Lookup ports: the ones rules may name and ones no rule names.
port_st = st.sampled_from([7, 80, 443, 8000, 8001, 9999, 65535])


def live_rule_sets() -> int:
    gc.collect()
    return sum(isinstance(obj, CompiledRuleSet) for obj in gc.get_objects())


def test_repeated_passes_leave_no_rule_sets_behind():
    run_table3(env_names=("gfc",), include_os_matrix=False)
    after_one = live_rule_sets()
    run_table3(env_names=("gfc",), include_os_matrix=False)
    assert live_rule_sets() == after_one


def test_threads_sharing_the_memo_always_get_a_set_of_their_own_rules():
    """Thread workers share the memo while sets die on other threads: every
    lookup must return a set compiled from exactly the rule objects asked
    for, which an entry outliving its set (and its rules' ids) would break."""
    kept = [MatchRule(name="kept", keywords=[b"kept"])]
    errors: list[str] = []

    def churn(worker: int) -> None:
        for index in range(300):
            rules = kept if index % 3 == 0 else [
                MatchRule(name=f"w{worker}-{index}", keywords=[b"k%d" % index])
            ]
            compiled = CompiledRuleSet.shared(rules)
            if len(compiled.rules) != len(rules) or any(
                mine is not asked for mine, asked in zip(compiled.rules, rules)
            ):
                errors.append(f"worker {worker}, lookup {index}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(worker,)) for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def rotating_engine() -> DPIMiddlebox:
    rules = [
        MatchRule(name="host", keywords=[b"GET", b"blocked.example"], require_all=True,
                  protocol="tcp", direction="client"),
        MatchRule(name="web-only", keywords=[b"secret"], ports=NAMED_PORTS),
        MatchRule(name="reply", keywords=[b"forbidden"], direction="server"),
    ]
    return DPIMiddlebox(
        name="dpi",
        rules=rules,
        policy_state=PolicyState(),
        validation=MiddleboxValidation.lax(),
        reassembly=ReassemblyMode.FULL,
        inspect_packet_limit=None,
        require_protocol_anchor=False,
        track_flows=True,
    )


def test_rotated_ports_share_one_view_per_protocol_and_direction():
    engine = rotating_engine()
    ctx = TransitContext(clock=VirtualClock(), inject_back=lambda p: None,
                         inject_forward=lambda p: None)
    ports = [*range(8000, 9000), *sorted(NAMED_PORTS)]
    for index, port in enumerate(ports):
        sport = 20_000 + index
        packets = [
            (TCPSegment(sport=sport, dport=port, seq=1, flags=TCPFlags.SYN),
             CLIENT, SERVER, Direction.CLIENT_TO_SERVER),
            (TCPSegment(sport=port, dport=sport, seq=1, ack=2, flags=TCPFlags.SYN | TCPFlags.ACK),
             SERVER, CLIENT, Direction.SERVER_TO_CLIENT),
            (TCPSegment(sport=sport, dport=port, seq=2, ack=2,
                        flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"GET / HTTP/1.1\r\n"),
             CLIENT, SERVER, Direction.CLIENT_TO_SERVER),
            (TCPSegment(sport=port, dport=sport, seq=2, ack=18,
                        flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"HTTP/1.1 200 OK\r\n"),
             SERVER, CLIENT, Direction.SERVER_TO_CLIENT),
        ]
        for segment, src, dst, direction in packets:
            engine.process(IPPacket(src=src, dst=dst, transport=segment), direction, ctx)
    views = engine._compiled._views
    per_context = Counter((protocol, direction) for protocol, _port, direction in views)
    assert set(per_context) == {("tcp", "client"), ("tcp", "server")}
    assert max(per_context.values()) <= len(NAMED_PORTS) + 1


@settings(max_examples=150, deadline=None)
@given(
    rules=st.lists(rule_st, max_size=6),
    lookups=st.lists(
        st.tuples(st.sampled_from(["tcp", "udp"]), port_st, st.sampled_from(["client", "server"])),
        min_size=1, max_size=8,
    ),
    chunks=st.lists(chunk_st, min_size=1, max_size=4),
)
def test_every_port_matches_a_view_compiled_for_it_alone(rules, lookups, chunks):
    """One long-lived set answers each lookup, shared entry and all, as a
    view freshly compiled for exactly that port does."""
    compiled = CompiledRuleSet(rules)
    for protocol, port, direction in lookups:
        shared = compiled.view(protocol, port, direction)
        alone = CompiledView([
            (order, rule) for order, rule in enumerate(rules)
            if rule.applies_to(protocol, port, direction)
        ], tuple(rules))
        shared_scan, alone_scan = StreamScan(), StreamScan()
        buffer = bytearray()
        for index, chunk in enumerate(chunks):
            buffer.extend(chunk)
            assert shared.match(buffer, chunk, index, shared_scan) is alone.match(
                buffer, chunk, index, alone_scan
            )
            assert shared.match(chunk, chunk, index, None) is alone.match(chunk, chunk, index, None)
            assert shared.match_stateless(chunk) is alone.match_stateless(chunk)
        assert shared.scope == compiled.scope
