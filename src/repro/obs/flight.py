"""The flight recorder: always-on sampled evidence for live anomalies.

Full tracing is an opt-in, experiment-grade facility — too heavy to leave
on while serving.  The flight recorder is the serving-grade complement: a
bounded ring of **sampled** per-connection records (1-in-N, byte-budgeted)
that costs almost nothing while things are healthy, and auto-dumps itself
to canonical JSONL the moment something degrades — ladder step-down,
circuit-breaker trip, shed-watermark crossing, p99 SLO breach — so the
evidence for "what just happened" survives without full-trace overhead.

Dump mechanics:

* Dumps fire **once per anomaly episode**.  A trip names an *episode* key
  (e.g. ``"overload"``); further trips on the same key are suppressed
  until :meth:`FlightRecorder.recover` closes it.  A 10 000-flow shed
  storm yields one dump, not 10 000.
* Dump files are trace-shaped JSONL: a ``trace.header`` line followed by
  one canonical-JSON record per line, so the existing analyze machinery
  (:class:`repro.obs.analyze.TraceIndex`, ``liberate obs query``/``diff``
  and the new ``liberate obs flight``) reads them unmodified.

Like every other obs recorder it is off by default: the
:data:`repro.obs.FLIGHT` slot is ``None`` and instrumented sites guard with one
``is not None`` check.  ``liberate serve`` turns it on (it is cheap enough
to be always-on *there* — that is the point).
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path

from repro.obs.eventlog import canonical_json

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """A bounded, sampled ring of records that dumps itself on anomalies.

    Args:
        out_dir: directory dump files are written into.
        capacity: maximum records kept in the ring.
        sample_every: keep 1 record in N offered to :meth:`note` (the
            first offer is always kept; trips are never sampled away).
        byte_budget: maximum serialized bytes the ring may hold; oldest
            records are evicted first when over budget.
        name: dump filename stem (``<name>-<NNN>-<reason>.jsonl``).
    """

    def __init__(
        self,
        out_dir: str | Path = ".",
        capacity: int = 512,
        sample_every: int = 16,
        byte_budget: int = 64 * 1024,
        name: str = "flight",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if byte_budget < 256:
            raise ValueError(f"byte_budget must be >= 256, got {byte_budget}")
        self.out_dir = Path(out_dir)
        self.capacity = capacity
        self.sample_every = sample_every
        self.byte_budget = byte_budget
        self.name = name
        self._ring: deque[str] = deque()
        self._ring_bytes = 0
        self._offered = 0
        self._sampled = 0
        self._evicted = 0
        self._seq = 0
        self._dumps = 0
        self._suppressed_trips = 0
        self._open_episodes: set[str] = set()
        self._dump_paths: list[str] = []

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def note(self, kind: str, time_s: float = -1.0, **fields) -> bool:
        """Offer one record to the ring; kept 1-in-``sample_every``.

        Returns True when the record was sampled in.  *time_s* defaults to
        the wall clock — pass an explicit value for deterministic tests.
        """
        offer = self._offered
        self._offered += 1
        if offer % self.sample_every:
            return False
        self._append(kind, time_s, fields)
        self._sampled += 1
        return True

    def _append(self, kind: str, time_s: float, fields: dict) -> None:
        self._seq += 1
        record = dict(fields)
        record["seq"] = self._seq
        record["time"] = round(time.time() if time_s < 0 else time_s, 6)
        record["kind"] = kind
        line = canonical_json(record)
        self._ring.append(line)
        self._ring_bytes += len(line) + 1
        while len(self._ring) > 1 and (
            len(self._ring) > self.capacity or self._ring_bytes > self.byte_budget
        ):
            dropped = self._ring.popleft()
            self._ring_bytes -= len(dropped) + 1
            self._evicted += 1

    # ------------------------------------------------------------------
    # anomaly episodes
    # ------------------------------------------------------------------
    def trip(
        self,
        reason: str,
        episode: str | None = None,
        time_s: float = -1.0,
        **fields,
    ) -> Path | None:
        """Dump the ring for *reason*, once per open *episode*.

        *episode* defaults to *reason*; while that episode stays open
        (until :meth:`recover`) further trips on it are counted but do not
        dump again.  Returns the dump path, or None when suppressed.
        """
        key = reason if episode is None else episode
        if key in self._open_episodes:
            self._suppressed_trips += 1
            return None
        self._open_episodes.add(key)
        self._append("flight.trip", time_s, {"reason": reason, "episode": key, **fields})
        return self._dump(reason)

    def recover(self, episode: str | None = None) -> None:
        """Close *episode* (or every open episode), re-arming its trigger."""
        if episode is None:
            self._open_episodes.clear()
        else:
            self._open_episodes.discard(episode)

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------
    def _dump(self, reason: str) -> Path:
        slug = "".join(c if c.isalnum() else "-" for c in reason).strip("-") or "trip"
        self._dumps += 1
        path = self.out_dir / f"{self.name}-{self._dumps:03d}-{slug}.jsonl"
        header = canonical_json(
            {
                "kind": "trace.header",
                "schema": 1,
                "events": len(self._ring),
                "dropped": self._evicted,
                "flight": {
                    "reason": reason,
                    "offered": self._offered,
                    "sampled": self._sampled,
                    "sample_every": self.sample_every,
                },
            }
        )
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header + "\n")
            for line in self._ring:
                handle.write(line + "\n")
        self._dump_paths.append(str(path))
        return path

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready recorder state for ``/statusz`` and selfcheck."""
        return {
            "offered": self._offered,
            "sampled": self._sampled,
            "evicted": self._evicted,
            "ring_records": len(self._ring),
            "ring_bytes": self._ring_bytes,
            "sample_every": self.sample_every,
            "dumps": self._dumps,
            "suppressed_trips": self._suppressed_trips,
            "open_episodes": sorted(self._open_episodes),
            "dump_paths": list(self._dump_paths),
        }
