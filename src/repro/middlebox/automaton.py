"""Byte-level Aho-Corasick automaton with resumable per-flow scan state.

This is the DPI engine's pattern-matching core: one automaton per interned
pattern set, built once and shared by every compiled rule view that uses
the same patterns.  The automaton is the *semantic* authority — its dense
goto/fail/output tables define exactly which patterns occur where — and a
derived one-pass regex alternation acts as the bulk executor so large
chunks are walked at C speed instead of one Python dict lookup per byte.

Tables
------
``goto``    list of per-state ``{byte: next_state}`` dicts (state 0 = root).
``fail``    flat list: the longest proper suffix of each state's path that
            is itself a path in the trie.
``out``     flat list of *bitmasks*: bit *i* set iff pattern *i* ends at
            this state (directly or via a fail-link suffix).

Pattern hits are reported as an int bitmask over pattern ids — cheap to
union, intersect and test against the rule programs layered on top by
:mod:`repro.middlebox.ruleindex`.

Resumable streams
-----------------
:class:`StreamScan` carries the automaton node a flow's stream has reached,
so appended bytes are fed through the automaton exactly once — no
max-pattern-length overlap window is ever re-scanned.  For large appends
the hybrid path block-scans the new region with the derived regex and uses
the carried node only across the chunk boundary; because every trie path is
at most ``max_len`` deep, the resume node after a chunk is recomputed from
the last ``max_len`` bytes alone.

Exact equivalence with per-pattern ``pattern in buffer`` search — including
overlapping, nested and chunk-boundary-spanning occurrences — is enforced
by the differential suites in ``tests/test_ruleindex.py`` and
``tests/test_automaton_differential.py``.
"""

from __future__ import annotations

import re
import time
from typing import Iterable, Sequence

from repro import obs
from repro.obs import coverage as obs_coverage

Buffer = bytes | bytearray | memoryview

#: Appends no longer than ``max_len`` times this walk the automaton
#: directly; the hybrid regex path pays ~3*max_len Python steps of state
#: maintenance anyway, so tiny appends are cheaper fed byte-by-byte.
_INLINE_FACTOR = 2


def mask_to_ids(mask: int) -> set[int]:
    """Expand a hit bitmask into the set of pattern ids it encodes."""
    ids = set()
    while mask:
        low = mask & -mask
        ids.add(low.bit_length() - 1)
        mask ^= low
    return ids


class PatternAutomaton:
    """An Aho-Corasick automaton over a fixed tuple of byte patterns.

    Instances are immutable once built; obtain shared ones through
    :func:`automaton_for` so equal pattern sets compile exactly once per
    process.
    """

    __slots__ = (
        "patterns",
        "max_len",
        "states",
        "goto",
        "fail",
        "out",
        "all_mask",
        "_digest",
        "_regex",
        "_closure_masks",
    )

    def __init__(self, patterns: Sequence[bytes]) -> None:
        started = time.perf_counter()
        self.patterns: tuple[bytes, ...] = tuple(patterns)
        self.max_len = max((len(p) for p in self.patterns), default=0)
        self._build_tables()
        self._build_block_regex()
        self.all_mask = (1 << len(self.patterns)) - 1
        self.states = len(self.goto)
        self._digest: str | None = None
        _record_build(self, time.perf_counter() - started)

    @property
    def digest(self) -> str:
        """Stable cross-process identity (``id()`` differs per process and
        per intern-cache churn; coverage arrays must merge by content),
        hashed on first read: only coverage and the ``mbx.rule_match``
        event read it."""
        digest = self._digest
        if digest is None:
            digest = self._digest = obs_coverage.automaton_digest(self.patterns)
        return digest

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        goto: list[dict[int, int]] = [{}]
        out: list[int] = [0]
        for pid, pattern in enumerate(self.patterns):
            node = 0
            for byte in pattern:
                nxt = goto[node].get(byte)
                if nxt is None:
                    nxt = len(goto)
                    goto[node][byte] = nxt
                    goto.append({})
                    out.append(0)
                node = nxt
            out[node] |= 1 << pid
        fail = [0] * len(goto)
        # Breadth-first: a state's fail link is always shallower, so parents
        # are finalized before children and output masks propagate in one pass.
        queue: list[int] = list(goto[0].values())
        head = 0
        while head < len(queue):
            state = queue[head]
            head += 1
            for byte, child in goto[state].items():
                queue.append(child)
                f = fail[state]
                while byte not in goto[f] and f:
                    f = fail[f]
                fail[child] = goto[f].get(byte, 0) if goto[f].get(byte, 0) != child else 0
                out[child] |= out[fail[child]]
        self.goto = goto
        self.fail = fail
        self.out = out

    def _build_block_regex(self) -> None:
        """The bulk executor: a zero-width-lookahead alternation.

        Of all patterns occurring at one text position, the longest captures
        and every other is necessarily a prefix of it, so crediting the
        prefix closure of the captured alternative recovers exact
        per-pattern substring semantics in a single C-speed pass.
        """
        if not self.patterns:
            self._regex = None
            self._closure_masks = []
            return
        order = sorted(range(len(self.patterns)), key=lambda i: -len(self.patterns[i]))
        alternation = b"|".join(b"(" + re.escape(self.patterns[i]) + b")" for i in order)
        self._regex = re.compile(b"(?=" + alternation + b")")
        self._closure_masks = []
        for i in order:
            captured = self.patterns[i]
            mask = 0
            for j, p in enumerate(self.patterns):
                if captured.startswith(p):
                    mask |= 1 << j
            self._closure_masks.append(mask)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def advance(self, node: int, data: Buffer) -> tuple[int, int]:
        """Feed *data* through the automaton from *node*.

        Returns ``(final node, hit mask)`` — bit *i* set iff pattern *i*
        ends somewhere within the fed bytes (given the stream prefix the
        node encodes).
        """
        goto = self.goto
        fail = self.fail
        out = self.out
        mask = 0
        for byte in bytes(data):
            g = goto[node].get(byte)
            while g is None and node:
                node = fail[node]
                g = goto[node].get(byte)
            node = g if g is not None else 0
            m = out[node]
            if m:
                mask |= m
        return node, mask

    def advance_counted(
        self, node: int, data: Buffer, recorder: "obs_coverage.CoverageRecorder"
    ) -> tuple[int, int]:
        """:meth:`advance` with per-state/edge visit accounting.

        The coverage executor: semantically identical to :meth:`advance`
        (same loop, same tables), but it records every state reached and
        every goto-edge traversed into *recorder*.  Fail-link hops are not
        counted — they revisit already-counted states without consuming
        input.  Scans take this path instead of the bulk regex whenever
        coverage is enabled, so each stream byte is walked (and counted)
        exactly once.
        """
        recorder.register_automaton(self.digest, self.states, len(self.patterns))
        goto = self.goto
        fail = self.fail
        out = self.out
        mask = 0
        nodes: list[int] = []
        edges = 0
        for byte in bytes(data):
            g = goto[node].get(byte)
            while g is None and node:
                node = fail[node]
                g = goto[node].get(byte)
            if g is not None:
                node = g
                edges += 1
            else:
                node = 0
            nodes.append(node)
            m = out[node]
            if m:
                mask |= m
        recorder.automaton_walk(self.digest, nodes, edges)
        return node, mask

    def resume_node(self, buffer: Buffer, end: int) -> int:
        """The automaton state after ``buffer[:end]``, recomputed from its tail.

        Every trie path is at most ``max_len`` deep, so the state — the
        longest suffix of the stream that is a trie path — is fully
        determined by the last ``max_len`` bytes.
        """
        start = end - self.max_len
        tail = memoryview(buffer)[start if start > 0 else 0 : end]
        return self.advance(0, tail)[0]

    def scan_mask(self, buffer: Buffer, start: int = 0, end: int | None = None) -> int:
        """Bitmask of patterns occurring anywhere in ``buffer[start:end]``."""
        regex = self._regex
        if regex is None:
            return 0
        if end is None:
            end = len(buffer)
        coverage = obs.COVERAGE
        if coverage is not None:
            # A window scan from the root is the automaton's own definition
            # of "occurs within the window" (the differential suites pin
            # regex == advance); the counted walk keeps state/edge tallies.
            return self.advance_counted(
                0, memoryview(buffer)[start:end], coverage
            )[1]
        mask = 0
        closure = self._closure_masks
        all_mask = self.all_mask
        for match in regex.finditer(buffer, start, end):
            mask |= closure[match.lastindex - 1]
            if mask == all_mask:
                break
        return mask


class StreamScan:
    """Per-flow, per-direction resumable scan state.

    ``watermark`` counts stream bytes already fed through the automaton,
    ``node`` is the automaton state those bytes reached, and ``mask``
    accumulates every pattern seen so far.  Stream buffers only grow by
    appends (the byte limit truncates the tail, never the head), so a
    pattern occurs in the current buffer iff some feed saw it — appended
    bytes are visited exactly once, with no overlap-window re-scan.
    """

    __slots__ = ("watermark", "node", "mask")

    def __init__(self) -> None:
        self.watermark = 0
        self.node = 0
        self.mask = 0

    @property
    def seen(self) -> set[int]:
        """The accumulated hits as a set of pattern ids."""
        return mask_to_ids(self.mask)

    def feed(self, scanner, buffer: Buffer) -> set[int]:
        """Scan bytes appended since the last feed; return all patterns seen.

        The historical set-returning call shape: *scanner* may be a
        :class:`PatternAutomaton` or anything carrying one under an
        ``automaton`` attribute (``ruleindex.MultiPatternScanner``).  Hot
        paths use :meth:`feed_mask` directly.
        """
        automaton = getattr(scanner, "automaton", scanner)
        return mask_to_ids(self.feed_mask(automaton, buffer))

    def feed_mask(self, automaton: PatternAutomaton, buffer: Buffer) -> int:
        """Feed bytes appended since the last call; return the full hit mask."""
        end = len(buffer)
        wm = self.watermark
        if end <= wm:
            return self.mask
        max_len = automaton.max_len
        if max_len == 0:
            self.watermark = end
            return self.mask
        coverage = obs.COVERAGE
        if coverage is not None:
            # Counted walk: each appended byte visits the automaton exactly
            # once, so state/edge tallies are exact per stream byte.  The
            # hybrid path below would re-walk boundary bytes and tail bytes
            # (resume_node), inflating the counts nondeterministically with
            # chunking.
            self.node, hits = automaton.advance_counted(
                self.node, memoryview(buffer)[wm:end], coverage
            )
            self.mask |= hits
        elif end - wm <= max_len * _INLINE_FACTOR:
            # Small append: walk it directly from the carried node.
            self.node, hits = automaton.advance(self.node, memoryview(buffer)[wm:end])
            self.mask |= hits
        else:
            # Hybrid: matches fully inside the new region come from the bulk
            # regex; matches spanning the boundary end within the first
            # max_len-1 new bytes and fall out of the carried-node walk.
            if wm and max_len > 1:
                head_end = wm + max_len - 1
                if head_end > end:
                    head_end = end
                _, hits = automaton.advance(self.node, memoryview(buffer)[wm:head_end])
                self.mask |= hits
            self.mask |= automaton.scan_mask(buffer, wm, end)
            self.node = automaton.resume_node(buffer, end)
        self.watermark = end
        return self.mask


# ----------------------------------------------------------------------
# interning
# ----------------------------------------------------------------------
#: Bound on the automaton intern memo: at the bound the oldest entry is
#: dropped.  Generous enough that the full Table 3 matrix never drops one,
#: while hypothesis-style churn (thousands of throwaway pattern sets) stays
#: bounded.
INTERN_LIMIT = 4096

#: Compiled automata by pattern tuple.  Dropping an entry strands nothing:
#: every view holds its own automaton.
_INTERNED: dict[tuple[bytes, ...], PatternAutomaton] = {}


def automaton_for(patterns: Iterable[bytes]) -> PatternAutomaton:
    """The shared automaton for *patterns* (built once per process)."""
    metrics = obs.METRICS
    if metrics is not None:
        # Unlike builds (memoized, so whether one happens depends on intern
        # state), lookups fire on every compiled-view construction — the
        # deterministic ``mbx.automaton.*`` series headlined by the dashboard.
        metrics.inc("mbx.automaton.lookups")
    key = tuple(patterns)
    automaton = _INTERNED.get(key)
    if automaton is None:
        if len(_INTERNED) >= INTERN_LIMIT:
            _INTERNED.pop(next(iter(_INTERNED)), None)  # racing threads may both evict
        automaton = _INTERNED[key] = PatternAutomaton(key)
    return automaton


def _record_build(automaton: PatternAutomaton, seconds: float) -> None:
    """Build telemetry (``mbx.automaton.*``).

    Builds are a per-process, memoized event — which process compiles what
    depends on worker scheduling and intern-cache state — so these metrics
    are process-local facts, excluded from the cross-process snapshot
    identity contract (see ``tests/test_obs_live.py``).  The build time is
    wall clock, so it lives under ``ops.``: out of every deterministic
    snapshot, shown by ``/statusz``.
    """
    metrics = obs.METRICS
    if metrics is None:
        return
    metrics.inc("mbx.automaton.builds")
    metrics.inc("mbx.automaton.states", automaton.states)
    metrics.inc("mbx.automaton.patterns", len(automaton.patterns))
    metrics.inc("ops.mbx.automaton.build_seconds", round(seconds, 6))
    metrics.observe("ops.mbx.automaton.build_us", seconds * 1e6)
