"""Layer ledger: spans around the public entry points of each repro layer.

The benchmark's traced run calls :meth:`Ledger.install` before any
environment, engine or server is built, so methods that hot loops look up on
instances (or that objects bind at construction) already route through the
wrappers.  Nothing inside ``src/`` is edited, and the program's own
observability globals (``METRICS``, ``TRACER``, ``BUS``, ``PROFILER``,
``COVERAGE``) stay off: turning them on switches hot paths (per-packet
encoding instead of batched, hop-by-hop propagation, counted automaton
walks).

Each wrapper records one span: id, parent span id, layer name, start, end
and the current cell or flow id.  A layer's self time is its spans' duration minus the
time their child spans cover, accumulated as the spans close; the first
``SPAN_CAP`` spans of the measured window are also kept in memory and
written out as JSON lines at the end.

Counts that the program keeps anyway (fault losses, retransmissions,
scheduler events, engine evictions and matches) are read from the objects
the layers construct; the ledger only remembers those objects.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

SPAN_CAP = 100_000

#: (layer, module, attribute path, bytes-of-call or None).  Functions
#: imported by name elsewhere are replaced in every module that holds them.
TARGETS: tuple[tuple[str, str, str, object], ...] = (
    ("packets.encode", "repro.packets.ip", "IPPacket.to_bytes", None),
    ("packets.encode", "repro.packets.tcp", "TCPSegment.to_bytes", None),
    ("packets.encode", "repro.packets.udp", "UDPDatagram.to_bytes", None),
    ("packets.encode", "repro.packets.icmp", "ICMPMessage.to_bytes", None),
    ("packets.encode", "repro.packets.batch", "serialize_batch", None),
    ("packets.build", "repro.packets.ip", "IPPacket.__init__", None),
    ("packets.build", "repro.packets.tcp", "TCPSegment.__init__", None),
    ("packets.build", "repro.packets.udp", "UDPDatagram.__init__", None),
    ("packets.parse", "repro.packets.ip", "IPPacket.from_bytes", None),
    ("packets.parse", "repro.packets.tcp", "TCPSegment.from_bytes", None),
    ("packets.parse", "repro.packets.udp", "UDPDatagram.from_bytes", None),
    ("packets.parse", "repro.packets.icmp", "ICMPMessage.from_bytes", None),
    ("netsim.send", "repro.netsim.path", "Path.send_from_client", None),
    ("netsim.send", "repro.netsim.path", "Path.send_from_server", None),
    ("netsim.send", "repro.netsim.path", "Path.send_batch_from_client", None),
    ("netsim.send", "repro.netsim.path", "Path.run", None),
    ("middlebox.scan", "repro.middlebox.automaton", "PatternAutomaton.scan_mask",
     lambda args, kwargs: _scanned(*args[1:])),
    ("middlebox.scan", "repro.middlebox.automaton", "PatternAutomaton.advance",
     lambda args, kwargs: len(args[2])),
    ("middlebox.scan", "repro.middlebox.automaton", "StreamScan.feed_mask",
     lambda args, kwargs: len(args[2])),
    ("replay", "repro.replay.session", "ReplaySession.run", None),
    ("core.detect", "repro.core.detection", "detect_differentiation", None),
    ("core.characterize", "repro.core.characterization", "Characterizer.run", None),
    ("core.localize", "repro.core.localization", "locate_middlebox", None),
    ("core.evaluate", "repro.core.evaluation", "EvasionEvaluator.run", None),
    ("core.judge", "repro.core.deployment", "FallbackLadder.run_flow", None),
    ("runtime.map", "repro.runtime.pool", "WorkerPool.map", None),
    ("experiments", "repro.experiments.table3", "_measure_env_column", None),
    ("experiments", "repro.experiments.table3", "run_os_matrix", None),
    ("experiments", "repro.experiments.scale", "run_scale", None),
)

#: Classes whose instances the ledger remembers to read their counters.
TRACKED = (
    ("faults", "repro.netsim.faults", "FaultElement"),
    ("sched", "repro.netsim.scheduler", "EventScheduler"),
    ("engines", "repro.middlebox.engine", "DPIMiddlebox"),
    ("raw", "repro.endpoint.rawclient", "RawTCPClient"),
    ("raw", "repro.endpoint.rawclient", "RawUDPClient"),
)

#: Modules whose classes define the endpoint stacks' ``receive``.
ENDPOINT_MODULES = (
    "repro.endpoint.apps",
    "repro.endpoint.rawclient",
    "repro.endpoint.tcpstack",
    "repro.endpoint.udpstack",
)

#: A replay span under this layer also counts as one of its runs.
NESTED_COUNT = ("replay", "core.characterize")


def _scanned(buffer, start=0, end=None) -> int:
    return (len(buffer) if end is None else end) - start


class Ledger:
    """Per-layer self time, call counts and bytes, plus bounded span storage."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.recording = False
        self.tag: object = None
        self.flows_peak = 0
        self.objects: dict[str, list] = {key: [] for key, _, _ in TRACKED}
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn, nbytes=None, after=None):
        """*fn* with a span around every call; *after(args)* runs on exit."""
        stack = self._stack
        self_s, calls, counted, spans = self.self_s, self.calls, self.bytes, self.spans
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)
        nested = f"{layer}@{NESTED_COUNT[1]}" if layer == NESTED_COUNT[0] else None
        if nested:
            calls.setdefault(nested, 0)
        if nbytes is not None:
            counted.setdefault(layer, 0)
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if nbytes is not None:
                    counted[layer] += nbytes(args, kwargs)
                if after is not None:
                    after(args)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                    if nested and any(f[0] == NESTED_COUNT[1] for f in stack):
                        calls[nested] += 1
                if self.recording and len(spans) < SPAN_CAP:
                    spans.append(
                        (frame[2], parent[2] if parent else None, layer, start, end, self.tag)
                    )

        return traced

    def replace(self, layer: str, owner, name: str, nbytes=None, after=None) -> None:
        """Wrap ``owner.name`` (a function, method or classmethod) in place."""
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, name, type(raw)(self.wrap(layer, raw.__func__, nbytes, after)))
        else:
            setattr(owner, name, self.wrap(layer, raw, nbytes, after))

    def install(self) -> "Ledger":
        """Wrap every layer entry point; call before anything is built."""
        for module_name in ("repro.cli.main", "repro.envs", "repro.experiments.table3",
                            "repro.experiments.scale", "repro.core.proxy_server"):
            importlib.import_module(module_name)
        for layer, module_name, path, nbytes in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, name = path.rpartition(".")
            if owner_path:
                self.replace(layer, getattr(module, owner_path), name, nbytes)
                continue
            original = getattr(module, name)
            wrapped = self.wrap(layer, original, nbytes)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, name, None) is original
                ):
                    setattr(loaded, name, wrapped)
        self._install_elements()
        for module_name in ENDPOINT_MODULES:
            module = importlib.import_module(module_name)
            for cls in vars(module).values():
                if (
                    inspect.isclass(cls)
                    and cls.__module__ == module_name
                    and "receive" in cls.__dict__
                ):
                    self.replace("endpoint.receive", cls, "receive")
        for key, module_name, class_name in TRACKED:
            self._track(key, getattr(importlib.import_module(module_name), class_name))
        return self

    def _install_elements(self) -> None:
        from repro.netsim.element import NetworkElement

        pending, seen = [NetworkElement], []
        while pending:
            for sub in pending.pop().__subclasses__():
                if sub not in seen:
                    seen.append(sub)
                    pending.append(sub)
        for cls in seen:
            if "process" not in cls.__dict__ or not cls.__module__.startswith("repro."):
                continue
            if cls.__name__ == "FaultElement":
                self.replace("netsim.faults", cls, "process")
            elif cls.__module__.startswith("repro.middlebox"):
                self.replace("middlebox.process", cls, "process", after=self._note_flows)
            else:
                self.replace("netsim.element", cls, "process")

    def _note_flows(self, args) -> None:
        flows = getattr(args[0], "_flows", None)
        if flows is not None and len(flows) > self.flows_peak:
            self.flows_peak = len(flows)

    def _track(self, key: str, cls: type) -> None:
        original = cls.__init__
        registry = self.objects[key]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            registry.append(obj)

        cls.__init__ = init

    def install_event_loop(self) -> None:
        """Spans for the asyncio loop: callbacks run, and selector waits.

        Used in the ``liberate serve`` child: every callback the loop runs
        (accepts, socket reads and writes, connection-handler steps) goes
        through ``Handle._run``, and the loop idles inside ``select``.
        """
        import asyncio.events
        import selectors

        self.replace("core.proxy.loop", asyncio.events.Handle, "_run")
        self.replace("core.proxy.wait", selectors.DefaultSelector, "select")

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Counters read from the objects the layers constructed."""
        objects = self.objects
        return {
            "netsim.faults.lost": sum(f.stats.lost + f.stats.burst_lost for f in objects["faults"]),
            "netsim.sched.events": sum(s.fired for s in objects["sched"]),
            "middlebox.evictions": sum(e.evictions for e in objects["engines"]),
            "middlebox.matches": sum(e.matches_logged for e in objects["engines"]),
            "endpoint.retransmits": sum(c.retransmissions for c in objects["raw"]),
        }

    def snapshot(self) -> dict:
        """Cumulative totals; a window is the difference of two snapshots."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "bytes": dict(self.bytes),
            "counters": self.counters(),
        }

    def forget_objects(self) -> None:
        """Drop remembered objects, so counters restart from the next build."""
        for registry in self.objects.values():
            registry.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, start, end, tag in self.spans:
                record = {"id": span_id, "parent": parent, "name": layer,
                          "start": start, "end": end, "flow": tag}
                handle.write(json.dumps(record, default=str) + "\n")


def window(before: dict, after: dict) -> dict:
    """The totals accumulated between two :meth:`Ledger.snapshot` calls."""
    return {
        key: {n: after[key].get(n, 0) - before[key].get(n, 0) for n in after[key]}
        for key in ("self_s", "calls", "bytes", "counters")
    }


def add(total: dict | None, part: dict) -> dict:
    """Sum two windows."""
    if total is None:
        return part
    return {
        key: {n: total[key].get(n, 0) + part[key].get(n, 0) for n in set(total[key]) | set(part[key])}
        for key in part
    }
