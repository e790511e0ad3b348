"""Rule and automaton coverage: which parts of the rule set a run exercised.

The flow tracer says what happened to one packet; the metrics registry says
how much of everything happened.  This recorder answers a third question —
*which compiled rules and automaton states did the workload actually touch* —
the observability substrate for the paper's rule-exposure loop: a rule that
no probe ever exercises is a rule we have not exposed.

Three families of counters, all cheap dict/array bumps:

``rule_hits``
    verdict-winning rule matches, keyed ``"scope/rule-name"`` where *scope*
    names the rule universe (an environment's DPI element).  Scopes are
    registered up front via :meth:`CoverageRecorder.register_rules` so dead
    rules — registered but never hit — are first-class reportable facts.

``automata``
    per-automaton state/edge visit arrays, keyed by a stable digest of the
    pattern list (automata are interned per pattern set, so the digest is
    the cross-process identity).  When coverage is enabled the automaton
    takes its counted byte-walk path instead of the bulk regex scan — the
    differential suite guarantees the two are semantically identical.

``cells``
    the (env × technique) coverage matrix: while an experiment pins a cell
    context via :meth:`cell_context`, rule hits are *also* attributed to
    that cell, giving the dashboard its coverage matrix.

Like every obs recorder the :data:`repro.obs.COVERAGE` slot is ``None`` by
default and instrumented sites guard with one ``is not None`` check.  The
recorder is shared across worker threads (a lock keeps concurrent bumps
exact and the cell context is thread-local so parallel env columns do not
cross-attribute); process workers record into a fresh recorder and ship a
:meth:`dump` home for :meth:`merge_dump`, mirroring the metrics registry.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

#: Schema version stamped into every snapshot so downstream consumers can
#: reject snapshots produced by an incompatible recorder.
COVERAGE_SCHEMA_VERSION = 1


def ruleset_scope(rule_names: Iterable[str]) -> str:
    """A stable scope label for a rule list, from its names in order.

    Rule universes are identified by content, not object identity: engines
    built from the same catalog in different processes must land their hits
    in the same scope for :meth:`CoverageRecorder.merge_dump` to sum them.
    """
    import hashlib  # only coverage and tracing hash: untraced runs skip OpenSSL

    h = hashlib.sha256()
    for name in rule_names:
        encoded = name.encode("utf-8")
        h.update(len(encoded).to_bytes(4, "big"))
        h.update(encoded)
    return f"ruleset:{h.hexdigest()[:12]}"


def automaton_digest(patterns: Iterable[bytes]) -> str:
    """A short stable identity for an interned automaton's pattern set.

    sha256 over the sorted patterns (the interning key), truncated: stable
    across processes and platforms, unlike ``id()`` or ``hash()``.
    """
    import hashlib  # only coverage and tracing hash: untraced runs skip OpenSSL

    h = hashlib.sha256()
    for pattern in sorted(patterns):
        h.update(len(pattern).to_bytes(4, "big"))
        h.update(pattern)
    return h.hexdigest()[:16]


class CoverageRecorder:
    """Per-rule and per-automaton-state/edge hit counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # scope -> tuple of rule names (the registered universe)
        self.universe: dict[str, tuple[str, ...]] = {}
        # "scope/rule" -> hit count
        self.rule_hits: dict[str, int] = {}
        # digest -> {"states": int, "patterns": int,
        #            "state_hits": [int]*states, "edge_hits": [int]*states}
        self.automata: dict[str, dict] = {}
        # (env, technique) -> {"scope/rule": hits}
        self.cells: dict[tuple[str, str], dict[str, int]] = {}

    # ------------------------------------------------------------------
    # registration (idempotent; engines call this when COVERAGE is live)
    # ------------------------------------------------------------------
    def register_rules(self, scope: str, rule_names: Iterable[str]) -> None:
        """Declare *scope*'s rule universe so dead rules are reportable."""
        names = tuple(rule_names)
        with self._lock:
            self.universe[scope] = names
            for name in names:
                self.rule_hits.setdefault(f"{scope}/{name}", 0)

    def register_automaton(self, digest: str, states: int, patterns: int) -> None:
        """Declare an automaton's state space (idempotent per digest)."""
        with self._lock:
            if digest not in self.automata:
                self.automata[digest] = {
                    "states": states,
                    "patterns": patterns,
                    "state_hits": [0] * states,
                    "edge_hits": [0] * states,
                }

    # ------------------------------------------------------------------
    # recording (called only behind an ``is not None`` guard)
    # ------------------------------------------------------------------
    def rule_hit(self, scope: str, rule_name: str) -> None:
        """Count one verdict-winning match of *rule_name* in *scope*."""
        key = f"{scope}/{rule_name}"
        cell = getattr(self._local, "cell", None)
        with self._lock:
            self.rule_hits[key] = self.rule_hits.get(key, 0) + 1
            if cell is not None:
                bucket = self.cells.setdefault(cell, {})
                bucket[key] = bucket.get(key, 0) + 1

    def automaton_walk(self, digest: str, nodes: list[int], edges: int) -> None:
        """Fold one counted byte-walk into automaton *digest*'s arrays.

        *nodes* lists every state visited (including revisits); *edges*
        counts goto-edge traversals (fail-link hops excluded: they revisit
        already-counted states without consuming input).
        """
        with self._lock:
            entry = self.automata.get(digest)
            if entry is None:  # walk on an unregistered automaton: ignore
                return
            state_hits = entry["state_hits"]
            for node in nodes:
                state_hits[node] += 1
            entry["edges_walked"] = entry.get("edges_walked", 0) + edges

    # ------------------------------------------------------------------
    # cell context (thread-local: parallel env columns stay separate)
    # ------------------------------------------------------------------
    @contextmanager
    def cell_context(self, env: str, technique: str) -> Iterator[None]:
        """Attribute rule hits inside the block to the (env, technique) cell."""
        previous = getattr(self._local, "cell", None)
        self._local.cell = (env, technique)
        try:
            yield
        finally:
            self._local.cell = previous

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def exercised(self, scope: str) -> tuple[str, ...]:
        """Rules in *scope* with at least one hit, in registered order."""
        return tuple(
            name
            for name in self.universe.get(scope, ())
            if self.rule_hits.get(f"{scope}/{name}", 0) > 0
        )

    def dead(self, scope: str) -> tuple[str, ...]:
        """Registered rules in *scope* that were never hit."""
        return tuple(
            name
            for name in self.universe.get(scope, ())
            if self.rule_hits.get(f"{scope}/{name}", 0) == 0
        )

    def snapshot(self) -> dict:
        """Everything, as one sorted JSON-ready dict (the ``coverage.json``
        artifact and the dashboard's coverage model)."""
        with self._lock:
            scopes = {}
            for scope in sorted(self.universe):
                names = self.universe[scope]
                hits = {
                    name: self.rule_hits.get(f"{scope}/{name}", 0)
                    for name in names
                }
                scopes[scope] = {
                    "rules": len(names),
                    "exercised": sum(1 for n in names if hits[n] > 0),
                    "dead": sorted(n for n in names if hits[n] == 0),
                    "hits": dict(sorted(hits.items())),
                }
            automata = {}
            for digest in sorted(self.automata):
                entry = self.automata[digest]
                state_hits = entry["state_hits"]
                automata[digest] = {
                    "states": entry["states"],
                    "patterns": entry["patterns"],
                    "states_visited": sum(1 for n in state_hits if n > 0),
                    "state_visits": sum(state_hits),
                    "edges_walked": entry.get("edges_walked", 0),
                }
            matrix = {}
            for (env, technique) in sorted(self.cells):
                bucket = self.cells[(env, technique)]
                matrix[f"{env}×{technique}"] = {
                    "env": env,
                    "technique": technique,
                    "rule_hits": sum(bucket.values()),
                    "rules": dict(sorted(bucket.items())),
                }
            return {
                "schema": COVERAGE_SCHEMA_VERSION,
                "scopes": scopes,
                "automata": automata,
                "matrix": matrix,
                "total_rule_hits": sum(
                    self.rule_hits.get(f"{scope}/{name}", 0)
                    for scope, names in self.universe.items()
                    for name in names
                ),
            }

    def render(self) -> str:
        """Human-readable coverage report (the ``obs coverage`` output)."""
        return format_snapshot(self.snapshot())

    def reset(self) -> None:
        """Zero every counter but keep registered universes."""
        with self._lock:
            for key in self.rule_hits:
                self.rule_hits[key] = 0
            for entry in self.automata.values():
                entry["state_hits"] = [0] * entry["states"]
                entry["edge_hits"] = [0] * entry["states"]
                entry.pop("edges_walked", None)
            self.cells.clear()

    # ------------------------------------------------------------------
    # cross-process merging (the worker-pool snapshot path)
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """A lossless, picklable export (what process workers ship home)."""
        with self._lock:
            return {
                "universe": {k: list(v) for k, v in self.universe.items()},
                "rule_hits": dict(self.rule_hits),
                "automata": {
                    digest: {
                        "states": entry["states"],
                        "patterns": entry["patterns"],
                        "state_hits": list(entry["state_hits"]),
                        "edges_walked": entry.get("edges_walked", 0),
                    }
                    for digest, entry in self.automata.items()
                },
                "cells": {
                    f"{env}\t{technique}": dict(bucket)
                    for (env, technique), bucket in self.cells.items()
                },
            }

    def merge_dump(self, dump: dict) -> None:
        """Fold one worker's :meth:`dump` into this recorder.

        Universes union (idempotent registration), counters add — merged
        in sorted key order so the result is deterministic and, for a
        clean run, identical to a serial run's recorder.
        """
        with self._lock:
            for scope, names in sorted(dump.get("universe", {}).items()):
                self.universe.setdefault(scope, tuple(names))
            for key, hits in sorted(dump.get("rule_hits", {}).items()):
                self.rule_hits[key] = self.rule_hits.get(key, 0) + hits
            for digest, entry in sorted(dump.get("automata", {}).items()):
                mine = self.automata.get(digest)
                if mine is None:
                    mine = self.automata[digest] = {
                        "states": entry["states"],
                        "patterns": entry["patterns"],
                        "state_hits": [0] * entry["states"],
                        "edge_hits": [0] * entry["states"],
                    }
                for index, n in enumerate(entry["state_hits"]):
                    mine["state_hits"][index] += n
                mine["edges_walked"] = (
                    mine.get("edges_walked", 0) + entry.get("edges_walked", 0)
                )
            for key, bucket in sorted(dump.get("cells", {}).items()):
                env, technique = key.split("\t", 1)
                mine_bucket = self.cells.setdefault((env, technique), {})
                for rule, hits in sorted(bucket.items()):
                    mine_bucket[rule] = mine_bucket.get(rule, 0) + hits


def load_snapshot(path: str) -> dict:
    """Read a ``coverage.json`` snapshot, validating its schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        snap = json.load(handle)
    schema = snap.get("schema")
    if schema != COVERAGE_SCHEMA_VERSION:
        raise ValueError(
            f"coverage snapshot schema {schema!r} != supported "
            f"{COVERAGE_SCHEMA_VERSION}"
        )
    return snap


def format_snapshot(snap: dict) -> str:
    """Render a loaded snapshot the same way a live recorder would."""
    lines = [f"rule coverage (schema v{snap['schema']})"]
    for scope, info in snap.get("scopes", {}).items():
        lines.append(
            f"  {scope}: {info['exercised']}/{info['rules']} rules exercised"
        )
        for name, hits in info.get("hits", {}).items():
            marker = " " if hits else "!"
            lines.append(f"    {marker} {name:32s} {hits}")
    for digest, info in snap.get("automata", {}).items():
        lines.append(
            f"  automaton {digest}: {info['states_visited']}/{info['states']} "
            f"states visited, {info['state_visits']} visits, "
            f"{info['edges_walked']} edges walked"
        )
    if snap.get("matrix"):
        lines.append("  coverage matrix (env × technique):")
        for key, cell in snap["matrix"].items():
            lines.append(f"    {key:44s} {cell['rule_hits']} rule hits")
    if len(lines) == 1:
        lines.append("  (no coverage recorded)")
    return "\n".join(lines)
