"""Differential tests: compiled rule index vs. the naive per-rule scan.

The compiled index (`repro.middlebox.ruleindex`) promises exact equivalence
with the per-rule `keyword in buffer` loop the DPI engine used before it —
first match in rule-list order, position rules only at their packet index,
STUN rules parsing the buffer.  These tests check that promise against a
straightforward reference implementation over randomized rule sets and
payloads drawn from a tiny alphabet so keyword collisions, overlaps and
nested patterns actually occur.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.middlebox import automaton as mbx_automaton
from repro.middlebox.automaton import INTERN_LIMIT, automaton_for
from repro.middlebox.engine import DPIMiddlebox
from repro.middlebox.ruleindex import CompiledRuleSet, MultiPatternScanner, StreamScan
from repro.middlebox.rules import MatchRule, skype_stun_rule
from repro.middlebox.policy import RulePolicy
from repro.netsim.shaper import PolicyState
from repro.traffic.stun import ATTR_SOFTWARE, stun_binding_request

# A tiny alphabet makes overlapping / prefix-nested keywords common.
keyword_st = st.lists(st.sampled_from([b"a", b"b", b"c"]), min_size=1, max_size=4).map(b"".join)
chunk_st = st.lists(st.sampled_from([b"a", b"b", b"c", b"x"]), min_size=0, max_size=10).map(
    b"".join
)

rule_st = st.builds(
    MatchRule,
    name=st.sampled_from(["r0", "r1", "r2"]),
    keywords=st.lists(keyword_st, min_size=1, max_size=3),
    require_all=st.booleans(),
    protocol=st.sampled_from(["tcp", "udp", "any"]),
    ports=st.sampled_from([None, frozenset({80}), frozenset({80, 443})]),
    direction=st.sampled_from(["client", "server", "both"]),
    position=st.sampled_from([None, None, None, 0, 1]),
)

context_st = st.tuples(
    st.sampled_from(["tcp", "udp"]),
    st.sampled_from([80, 443, 9999]),
    st.sampled_from(["client", "server"]),
)


def naive_match(rules, protocol, port, direction, buffer, payload, index):
    """The engine's original per-rule loop, verbatim semantics."""
    for rule in rules:
        if not rule.applies_to(protocol, port, direction):
            continue
        if rule.position is not None:
            if index == rule.position and rule.matches_buffer(bytes(payload)):
                return rule
            continue
        if rule.matches_buffer(bytes(buffer)):
            return rule
    return None


def naive_stateless(rules, protocol, port, direction, payload):
    for rule in rules:
        if rule.applies_to(protocol, port, direction) and rule.matches_buffer(bytes(payload)):
            return rule
    return None


class TestMultiPatternScanner:
    @given(patterns=st.lists(keyword_st, min_size=1, max_size=8), data=chunk_st)
    def test_equals_per_pattern_search(self, patterns, data):
        scanner = MultiPatternScanner(patterns)
        assert scanner.scan(data) == {i for i, p in enumerate(patterns) if p in data}

    def test_overlapping_and_nested_patterns(self):
        # "aba" overlaps itself in "ababa"; "ab" and "a" are prefixes of it.
        scanner = MultiPatternScanner([b"aba", b"ab", b"a", b"ba", b"caba"])
        assert scanner.scan(b"ababa") == {0, 1, 2, 3}
        assert scanner.scan(b"xcabax") == {0, 1, 2, 3, 4}
        assert scanner.scan(b"xxx") == set()

    @given(patterns=st.lists(keyword_st, min_size=1, max_size=6), chunks=st.lists(chunk_st, min_size=1, max_size=6))
    def test_stream_feed_equals_full_rescan(self, patterns, chunks):
        scanner = MultiPatternScanner(patterns)
        scan = StreamScan()
        buffer = bytearray()
        for chunk in chunks:
            buffer.extend(chunk)
            incremental = scan.feed(scanner, buffer)
            assert incremental == scanner.scan(bytes(buffer))


class TestCompiledViewDifferential:
    @settings(max_examples=200)
    @given(
        rules=st.lists(rule_st, min_size=0, max_size=6),
        chunks=st.lists(chunk_st, min_size=1, max_size=5),
        context=context_st,
        limit=st.sampled_from([None, None, 6]),
    )
    def test_stream_match_equals_naive(self, rules, chunks, context, limit):
        protocol, port, direction = context
        view = CompiledRuleSet(rules).view(protocol, port, direction)
        scan = StreamScan()
        buffer = bytearray()
        for index, chunk in enumerate(chunks):
            # Same order as the engine: append, cap at the byte limit, match.
            buffer.extend(chunk)
            if limit is not None and len(buffer) > limit:
                del buffer[limit:]
            expected = naive_match(rules, protocol, port, direction, buffer, chunk, index)
            got = view.match(buffer, chunk, index, scan)
            assert got is expected, (bytes(buffer), chunk, index)

    @settings(max_examples=200)
    @given(
        rules=st.lists(rule_st, min_size=0, max_size=6),
        chunks=st.lists(chunk_st, min_size=1, max_size=5),
        context=context_st,
    )
    def test_per_packet_match_equals_naive(self, rules, chunks, context):
        protocol, port, direction = context
        view = CompiledRuleSet(rules).view(protocol, port, direction)
        for index, chunk in enumerate(chunks):
            expected = naive_match(rules, protocol, port, direction, chunk, chunk, index)
            assert view.match(chunk, chunk, index, None) is expected

    @settings(max_examples=200)
    @given(
        rules=st.lists(rule_st, min_size=0, max_size=6),
        payload=chunk_st,
        context=context_st,
    )
    def test_stateless_match_equals_naive(self, rules, payload, context):
        protocol, port, direction = context
        view = CompiledRuleSet(rules).view(protocol, port, direction)
        expected = naive_stateless(rules, protocol, port, direction, payload)
        assert view.match_stateless(payload) is expected

    def test_rule_order_wins_over_scan_order(self):
        # Both rules match; the earlier one in the list must be returned even
        # though its keyword is shorter and interned later.
        rules = [
            MatchRule(name="late-keyword", keywords=[b"b"]),
            MatchRule(name="long-keyword", keywords=[b"abc"]),
        ]
        view = CompiledRuleSet(rules).view("tcp", 80, "client")
        assert view.match(b"abc", b"abc", 0, None) is rules[0]
        assert view.match_stateless(b"abc") is rules[0]

    def test_stun_rules_match_and_respect_position(self):
        stun = skype_stun_rule(RulePolicy())
        keyword = MatchRule(name="kw", keywords=[b"Skype"], protocol="udp")
        request = stun_binding_request()
        probe = stun_binding_request(include_service_quality=False)
        for rules in ([stun, keyword], [keyword, stun]):
            view = CompiledRuleSet(rules).view("udp", 3478, "client")
            scan = StreamScan()
            got = view.match(bytearray(request), request, 0, scan)
            expected = naive_match(rules, "udp", 3478, "client", request, request, 0)
            assert got is expected
        # Position 0 only: at index 1 the STUN rule must not fire.
        view = CompiledRuleSet([stun]).view("udp", 3478, "client")
        assert view.match(bytearray(request), request, 1, StreamScan()) is None
        # Stateless ignores position, and attribute presence still matters.
        assert view.match_stateless(request) is stun
        assert view.match_stateless(probe) is None
        # A STUN-but-wrong-attribute rule never fires on ATTR_SOFTWARE alone.
        other = MatchRule(
            name="other-attr", protocol="udp", stun_attribute=ATTR_SOFTWARE, keywords=[]
        )
        assert CompiledRuleSet([other]).view("udp", 3478, "client").match_stateless(probe) is other

    def test_require_all_across_packets(self):
        rule = MatchRule(name="both", keywords=[b"aa", b"bb"], require_all=True)
        view = CompiledRuleSet([rule]).view("tcp", 80, "client")
        scan = StreamScan()
        buffer = bytearray(b"aa")
        assert view.match(buffer, b"aa", 0, scan) is None
        buffer.extend(b"xbb")
        # Second keyword arrives in a later packet; the stream view must
        # remember the first across feeds, exactly like rescanning the buffer.
        assert view.match(buffer, b"xbb", 1, scan) is rule

    def test_keyword_spanning_packet_boundary(self):
        rule = MatchRule(name="span", keywords=[b"abcd"])
        view = CompiledRuleSet([rule]).view("tcp", 80, "client")
        scan = StreamScan()
        buffer = bytearray(b"ab")
        assert view.match(buffer, b"ab", 0, scan) is None
        buffer.extend(b"cd")
        assert view.match(buffer, b"cd", 1, scan) is rule


class TestInterning:
    """The compile-path memos share work and stay bounded: rule sets live
    as long as an engine holds them, automata up to the intern limit."""

    def test_view_memo_hits_do_not_rebuild(self):
        rules = [
            MatchRule(name="video", keywords=[b"video.example.com"]),
            MatchRule(name="news", keywords=[b"news.example.org"]),
        ]
        compiled = CompiledRuleSet.shared(rules)
        assert CompiledRuleSet.shared(rules) is compiled
        view = compiled.view("tcp", 80, "client_to_server")
        assert compiled.view("tcp", 80, "client_to_server") is view
        assert automaton_for(view.automaton.patterns) is view.automaton

    def test_churned_rulesets_die_with_their_holders(self):
        """The rule-set memo is weak: thousands of churned sets that nobody
        holds leave nothing behind, and none ever piles up meanwhile."""
        gc.collect()
        before = set(CompiledRuleSet._shared.keys())
        churned = [
            [MatchRule(name=f"r{index}", keywords=[b"x%d" % index])]
            for index in range(INTERN_LIMIT + 8)
        ]
        for rules in churned:
            CompiledRuleSet.shared(rules)
            assert len(CompiledRuleSet._shared) <= len(before) + 1
        gc.collect()
        assert set(CompiledRuleSet._shared.keys()) == before
        assert not any(tuple(map(id, rules)) in CompiledRuleSet._shared for rules in churned)

    def test_engines_on_one_rule_list_share_a_set_while_either_lives(self):
        rules = [MatchRule(name="video", keywords=[b"video.example.com"])]
        first = DPIMiddlebox(name="a", rules=rules, policy_state=PolicyState())
        second = DPIMiddlebox(name="b", rules=rules, policy_state=PolicyState())
        compiled = first._compiled
        assert second._compiled is compiled
        key = tuple(map(id, rules))
        assert CompiledRuleSet._shared[key] is compiled
        del first, compiled
        gc.collect()
        assert CompiledRuleSet._shared[key] is second._compiled
        assert DPIMiddlebox(name="c", rules=rules, policy_state=PolicyState())._compiled is (
            second._compiled
        )
        del second
        gc.collect()
        assert key not in CompiledRuleSet._shared

    def test_interned_automata_stay_bounded(self):
        for index in range(INTERN_LIMIT + 8):
            automaton_for((b"churn-%d" % index,))
        interned = mbx_automaton._INTERNED
        assert len(interned) == INTERN_LIMIT
        assert (b"churn-0",) not in interned
        assert (b"churn-%d" % (INTERN_LIMIT + 7),) in interned
