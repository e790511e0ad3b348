"""Precompiled rule index: rule programs over an Aho-Corasick automaton.

The naive matcher re-runs ``keyword in buffer`` for every keyword of every
rule on every packet, re-scanning the whole reassembled stream each time.
This module compiles a rule list once into views, one per (protocol,
direction) and server port that some rule names; every port no rule names
shares one view per (protocol, direction).  Each view interns its keywords
into one shared :class:`~repro.middlebox.automaton.PatternAutomaton`
(every rule served by a single sweep per byte) and lowers its rules to
small bitmask programs over the automaton's pattern-id hits:

* ``require_any`` rules collapse into a per-pattern *order table* — the
  minimum rule order that fires when that pattern is seen — so resolving
  the first match costs one table lookup per distinct pattern hit;
* ``require_all`` rules become ``(order, mask)`` programs satisfied when
  ``hits & mask == mask``;
* the winning order maps straight to its rule through an order→rule dict
  (no linear scan over the view's rule list).

Exact-equivalence contract (verified by the differential tests in
``tests/test_ruleindex.py`` and ``tests/test_automaton_differential.py``):
for any rule list, buffer, payload and packet index,
:meth:`CompiledView.match` returns the same rule the naive per-rule loop
would have picked — first match in rule-list order, position rules only
firing on their packet index, STUN rules parsing the buffer.

The index assumes rules are not mutated after compilation; replacing the
engine's rule *list* is detected and recompiled.  Engines built from the
same rule objects share one :class:`CompiledRuleSet` (and thus its views
and automata) via :meth:`CompiledRuleSet.shared` for as long as one of
them holds it.
"""

from __future__ import annotations

import weakref

from repro import obs
from repro.middlebox.automaton import (
    PatternAutomaton,
    StreamScan,
    automaton_for,
    mask_to_ids,
)
from repro.middlebox.rules import MatchRule
from repro.obs import coverage as obs_coverage
from repro.traffic.stun import parse_stun_attributes

__all__ = [
    "Buffer",
    "CompiledRuleSet",
    "CompiledView",
    "MultiPatternScanner",
    "StreamScan",
]

Buffer = bytes | bytearray | memoryview


class MultiPatternScanner:
    """One-pass search for every occurrence of any pattern in a byte buffer.

    A thin set-returning facade over the shared automaton: ``scan`` returns
    the set of pattern indices (into the constructor's list) that occur
    anywhere in ``buffer[start:end]`` — identical to running
    ``pattern in buffer[start:end]`` per pattern, in one pass.
    """

    __slots__ = ("patterns", "automaton")

    def __init__(self, patterns: list[bytes]) -> None:
        self.patterns = list(patterns)
        self.automaton = automaton_for(self.patterns)

    @property
    def max_len(self) -> int:
        return self.automaton.max_len

    def scan(self, buffer: Buffer, start: int = 0, end: int | None = None) -> set[int]:
        """All pattern indices occurring in ``buffer[start:end]``."""
        return mask_to_ids(self.automaton.scan_mask(buffer, start, end))


class CompiledView:
    """The rules applicable to one (protocol, direction) and one server port
    some rule names, or every port none names."""

    __slots__ = (
        "rules",
        "_scope_rules",
        "_scope",
        "automaton",
        "scanner",
        "special",
        "keyword_rules",
        "any_order",
        "any_mask",
        "all_programs",
        "stateless_rules",
        "rule_by_order",
        "has_stun",
    )

    def __init__(
        self, rules: list[tuple[int, MatchRule]], scope_rules: tuple[MatchRule, ...]
    ) -> None:
        self.rules = rules
        #: The owning set's rules, which :attr:`scope` digests.
        self._scope_rules = scope_rules
        self._scope: str | None = None
        #: order → rule, the final resolution step of :meth:`match`.
        self.rule_by_order: dict[int, MatchRule] = {order: rule for order, rule in rules}
        patterns: list[bytes] = []
        pattern_ids: dict[bytes, int] = {}

        def intern_patterns(rule: MatchRule) -> int:
            mask = 0
            for keyword in rule.keywords:
                pid = pattern_ids.get(keyword)
                if pid is None:
                    pid = pattern_ids[keyword] = len(patterns)
                    patterns.append(keyword)
                mask |= 1 << pid
            return mask

        #: rules needing per-call handling in the stateful path (position
        #: and/or STUN) — evaluated directly, they are rare and fire seldom.
        self.special: list[tuple[int, MatchRule]] = []
        #: (order, pattern mask, require_all) — kept for introspection; the
        #: hot path runs the lowered programs below instead.
        self.keyword_rules: list[tuple[int, int, bool]] = []
        #: pattern id → minimum order among require-any rules containing it.
        any_order: dict[int, int] = {}
        #: (order, pattern mask) programs for require-all rules, in order.
        self.all_programs: list[tuple[int, int]] = []
        #: (order, rule, pattern mask or None) — the stateless path ignores
        #: ``position``, so position keyword rules join the combined scan.
        self.stateless_rules: list[tuple[int, MatchRule, int | None]] = []
        for order, rule in rules:
            if rule.stun_attribute is not None:
                self.special.append((order, rule))
                self.stateless_rules.append((order, rule, None))
                continue
            mask = intern_patterns(rule)
            if rule.position is not None:
                self.special.append((order, rule))
            else:
                self.keyword_rules.append((order, mask, rule.require_all))
                if rule.require_all:
                    self.all_programs.append((order, mask))
                else:
                    bits = mask
                    while bits:
                        low = bits & -bits
                        pid = low.bit_length() - 1
                        if pid not in any_order:  # rules arrive in order
                            any_order[pid] = order
                        bits ^= low
            self.stateless_rules.append((order, rule, mask))
        self.automaton = automaton_for(patterns)
        self.scanner = MultiPatternScanner(patterns)
        self.any_order = any_order
        self.any_mask = 0
        for pid in any_order:
            self.any_mask |= 1 << pid
        self.has_stun = any(rule.stun_attribute is not None for _, rule in self.special)

    @property
    def scope(self) -> str:
        """Coverage scope winning matches are attributed to: the owning rule
        set's content digest, hashed on first read (only coverage and the
        ``mbx.rule_match`` event read it)."""
        scope = self._scope
        if scope is None:
            scope = self._scope = obs_coverage.ruleset_scope(
                rule.name for rule in self._scope_rules
            )
        return scope

    def match(
        self,
        buffer: Buffer,
        packet_payload: Buffer,
        index: int,
        scan: StreamScan | None,
    ) -> MatchRule | None:
        """First rule (in rule-list order) matching this inspection step.

        *scan* carries the resumable stream state; ``None`` means *buffer*
        is a standalone per-packet payload and is scanned in full.
        """
        best: int | None = None
        stun_attrs: dict[int, bytes] | None | bool = False  # False = not parsed yet
        for order, rule in self.special:
            if best is not None and order > best:
                break
            if rule.position is not None:
                if index == rule.position and rule.matches_buffer(packet_payload):
                    best = order
                continue
            if stun_attrs is False:
                stun_attrs = parse_stun_attributes(buffer)
            if stun_attrs is not None and rule.stun_attribute in stun_attrs:
                best = order

        if self.keyword_rules:
            if scan is None:
                hits = self.automaton.scan_mask(buffer)
            else:
                hits = scan.feed_mask(self.automaton, buffer)
            if hits:
                any_order = self.any_order
                bits = hits & self.any_mask
                while bits:
                    low = bits & -bits
                    order = any_order[low.bit_length() - 1]
                    if best is None or order < best:
                        best = order
                    bits ^= low
                for order, mask in self.all_programs:
                    if best is not None and order > best:
                        break
                    if hits & mask == mask:
                        best = order
                        break

        if best is None:
            return None
        rule = self.rule_by_order[best]
        coverage = obs.COVERAGE
        if coverage is not None:
            coverage.rule_hit(self.scope, rule.name)
        return rule

    def match_stateless(self, payload: Buffer) -> MatchRule | None:
        """First matching rule ignoring packet position (Iran-style DPI)."""
        hits: int | None = None
        stun_attrs: dict[int, bytes] | None | bool = False
        for _order, rule, mask in self.stateless_rules:
            if mask is None:
                if stun_attrs is False:
                    stun_attrs = parse_stun_attributes(payload)
                if stun_attrs is not None and rule.stun_attribute in stun_attrs:
                    self._coverage_hit(rule)
                    return rule
                continue
            if hits is None:
                hits = self.automaton.scan_mask(payload)
            if (hits & mask == mask) if rule.require_all else (hits & mask):
                self._coverage_hit(rule)
                return rule
        return None

    def _coverage_hit(self, rule: MatchRule) -> None:
        """Attribute one winning match to the coverage recorder, if live."""
        coverage = obs.COVERAGE
        if coverage is not None:
            coverage.rule_hit(self.scope, rule.name)


class CompiledRuleSet:
    """Lazy views over one rule list, one per (protocol, direction) and
    server port some rule names, plus one per (protocol, direction) that
    every other port shares.

    Sharing is exact: :meth:`MatchRule.applies_to` reads the port only
    through ``rule.ports``, so every port outside all of them selects the
    same rules.  Views live and die with their set and each holds its
    automaton, so dropping an automaton from its intern memo never strands
    a dependent; the per-instance ``_views`` memo keeps the per-packet path
    a single dict lookup.
    """

    __slots__ = ("rules", "_named_ports", "_scope", "_views", "__weakref__")

    #: Live rule sets keyed by the identity of their rule objects.  A set
    #: holds strong references to those rules, so a key's ids can never be
    #: reused by new objects while its entry lives, and the entry goes when
    #: the last engine holding the set drops it.
    _shared: "weakref.WeakValueDictionary[tuple[int, ...], CompiledRuleSet]" = (
        weakref.WeakValueDictionary()
    )

    def __init__(self, rules: list[MatchRule]) -> None:
        self.rules = tuple(rules)
        #: Every server port some rule's ``ports`` names; the views of all
        #: other ports are one shared entry per (protocol, direction).
        self._named_ports = frozenset(
            port for rule in self.rules if rule.ports is not None for port in rule.ports
        )
        self._scope: str | None = None
        self._views: dict[tuple[str, int | None, str], CompiledView] = {}

    @property
    def scope(self) -> str:
        """Coverage scope shared by every view of this set, so per-context
        view hits sum into one per-catalog universe; hashed on first read."""
        scope = self._scope
        if scope is None:
            scope = self._scope = obs_coverage.ruleset_scope(
                rule.name for rule in self.rules
            )
        return scope

    def register_coverage(self, recorder: "obs_coverage.CoverageRecorder") -> None:
        """Declare the full rule universe to *recorder*.

        Registration is what makes *dead* rules reportable: a rule the
        workload never exercises has no hit to announce itself with, so the
        engine declares the whole catalog up front (idempotently) and the
        coverage report subtracts.
        """
        recorder.register_rules(self.scope, (rule.name for rule in self.rules))

    @classmethod
    def shared(cls, rules: list[MatchRule]) -> "CompiledRuleSet":
        """The compiled set for these exact rule objects.

        Engines built from the same rule list (the common testbed shape:
        one rule catalog, several middlebox configurations) share one
        compiled set — and therefore its views and automata — instead of
        recompiling per engine, for as long as one of them holds it.
        """
        key = tuple(map(id, rules))
        compiled = cls._shared.get(key)
        if compiled is None:
            compiled = cls._shared[key] = cls(rules)
        return compiled

    def view(self, protocol: str, server_port: int, direction: str) -> CompiledView:
        key = (
            protocol,
            server_port if server_port in self._named_ports else None,
            direction,
        )
        view = self._views.get(key)
        if view is None:
            applicable = [
                (order, rule)
                for order, rule in enumerate(self.rules)
                if rule.applies_to(protocol, server_port, direction)
            ]
            view = self._views[key] = CompiledView(applicable, self.rules)
        return view
