"""Path composition: endpoints connected through an ordered element chain.

Packet propagation is event-driven: every unit of work — "this packet is at
element *i*" — is an explicit agenda item that one frame loop consumes in
depth-first order: an element's extra outputs and an endpoint's responses
complete before anything stacked earlier (the golden traces pin this
order).  An element may inject packets back toward the sender (ICMP Time
Exceeded, censor RSTs) or forward toward the destination; injected packets
traverse the remaining elements exactly as real ones would.

The loop walks a per-direction plan compiled from ``Path.elements``: each
element's bound ``process`` and the length of the router run it starts, so
a run of routers a pristine packet cannot expire in costs one TTL
subtraction.  The plan is rebuilt when the chain changes.  The walk is the
same whether or not a tracer or metrics registry is live; observers only
record what it does.

The synchronous API (:meth:`Path.send_from_client`) runs a frame to
completion on the spot.  :meth:`Path.schedule_from_client` instead defers a
frame to a future virtual time on the path's
:class:`~repro.netsim.scheduler.EventScheduler`, so thousands of flows
interleave in ``(deadline, seq)`` order — congestion scenarios a synchronous
send cannot express.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Protocol

from repro import obs
from repro.netsim.clock import VirtualClock
from repro.netsim.element import NetworkElement
from repro.netsim.hop import RouterHop
from repro.netsim.scheduler import EventScheduler
from repro.obs import trace as obs_trace
from repro.packets.batch import serialize_batch
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket

#: Process-wide count of packet propagations across every simulated path.
#: Monotonically increasing, never reset — benchmarks take deltas around the
#: measured section to report packets/second.  Counts frames (a packet
#: entering the chain or an endpoint response), not per-element steps: an
#: agenda continuation item (the same packet resuming mid-chain after its
#: element's extra outputs) does not re-count.
_packets_propagated_total = 0


def packets_propagated() -> int:
    """Total packets propagated across all paths since process start."""
    return _packets_propagated_total


class Endpoint(Protocol):
    """Anything that can terminate a path (client or server stack)."""

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        """Accept a packet; return response packets to send back."""


class _SinkEndpoint:
    """Default endpoint that silently swallows packets."""

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        return []


class Path:
    """A bidirectional chain: client endpoint ⇄ elements ⇄ server endpoint.

    Elements are ordered from the client side to the server side.  The
    endpoints are attached after construction (they usually need the path's
    clock).

    Args:
        clock: shared virtual clock.
        elements: processing stages, client side first.
        max_depth: recursion guard against response loops.

    Attributes:
        scheduler: the event scheduler for deferred frames; ``None`` until
            :meth:`bind_scheduler` or the first :meth:`schedule_from_client`.
    """

    def __init__(
        self,
        clock: VirtualClock,
        elements: list[NetworkElement],
        max_depth: int = 50,
    ) -> None:
        self.clock = clock
        self.elements = list(elements)
        self.client_endpoint: Endpoint = _SinkEndpoint()
        self.server_endpoint: Endpoint = _SinkEndpoint()
        self.max_depth = max_depth
        self.scheduler: EventScheduler | None = None
        self._planned: tuple[NetworkElement, ...] = ()
        self._plans: tuple[list[_Step], list[_Step]] = ([], [])

    # ------------------------------------------------------------------
    # public API — synchronous sends
    # ------------------------------------------------------------------
    def bind_scheduler(self, scheduler: EventScheduler) -> EventScheduler:
        """Attach *scheduler* for deferred frames."""
        self.scheduler = scheduler
        return scheduler

    def send_from_client(self, packet: IPPacket) -> None:
        """Inject *packet* at the client edge, traveling toward the server."""
        self._propagate(packet, Direction.CLIENT_TO_SERVER, 0)

    def send_from_server(self, packet: IPPacket) -> None:
        """Inject *packet* at the server edge, traveling toward the client."""
        self._propagate(packet, Direction.SERVER_TO_CLIENT)

    def send_batch_from_client(self, packets: list[IPPacket]) -> None:
        """Inject *packets* at the client edge in order, pre-encoding the batch.

        Wire encoding is vectorized across the whole batch up front (sharing
        per-(src, dst) pseudo-header work and warming every wire memo) so
        downstream taps, DPI byte scans and replay observation serialize by
        cache hit.  Delivery is otherwise identical to calling
        :meth:`send_from_client` once per packet.
        """
        serialize_batch(packets, lenient=True)
        for packet in packets:
            self.send_from_client(packet)

    # ------------------------------------------------------------------
    # public API — deferred (scheduled) sends
    # ------------------------------------------------------------------
    def schedule_from_client(
        self, packet: IPPacket, delay: float = 0.0, at: float | None = None
    ) -> None:
        """Schedule a client-edge frame for a future virtual time.

        Unlike :meth:`send_from_client`, the frame does **not** run now; it
        fires when :meth:`run` (or the scheduler) drains past its deadline,
        interleaving with every other scheduled flow in ``(deadline, seq)``
        order.
        """
        sched = self._require_scheduler()
        deadline = at if at is not None else sched.now + delay
        sched.at(deadline, self._propagate, packet, Direction.CLIENT_TO_SERVER, 0)

    def run(self, until: float | None = None) -> int:
        """Drain scheduled frames in virtual-time order; returns events fired."""
        return self._require_scheduler().run(until=until)

    def _require_scheduler(self) -> EventScheduler:
        if self.scheduler is None:
            self.scheduler = EventScheduler(self.clock)
        return self.scheduler

    # ------------------------------------------------------------------
    # chain management
    # ------------------------------------------------------------------
    def insert_element(self, element: NetworkElement, index: int = 0) -> None:
        """Insert *element* into the chain at *index* (0 = client edge)."""
        self.elements.insert(index, element)

    def reset(self) -> None:
        """Reset every element's per-flow state (between independent replays)."""
        for element in self.elements:
            element.reset()

    # ------------------------------------------------------------------
    # propagation machinery
    # ------------------------------------------------------------------
    def _compile(self) -> tuple[list[_Step], list[_Step]]:
        """Resolve the chain into one plan per direction; remember the chain.

        Entry *i* of a plan is ``(process, element, run, run_end)``: the
        element's bound ``process``, the element, the length of the run of
        consecutive routers starting at *i* in that direction
        (0 when element *i* is not a router) and the index just past that
        run.  Methods are bound here, so a class-level wrapper installed
        before the path was built is what the walk calls.
        """
        elements = self.elements
        up: list[_Step] = []
        run = 0
        for i in range(len(elements) - 1, -1, -1):
            element = elements[i]
            run = run + 1 if type(element) is RouterHop else 0
            up.append((element.process, element, run, i + run))
        up.reverse()
        down: list[_Step] = []
        run = 0
        for i, element in enumerate(elements):
            run = run + 1 if type(element) is RouterHop else 0
            down.append((element.process, element, run, i - run))
        self._planned = tuple(elements)
        self._plans = (up, down)
        return self._plans

    def _propagate(
        self, packet: IPPacket, direction: Direction, index: int | None = None, depth: int = 0
    ) -> None:
        """Run one frame to completion via an explicit event agenda.

        ``index=None`` starts at the sending edge, resolved now (so an
        element added at that edge after a frame was scheduled is walked).
        Agenda items are ``(packet, direction, index, depth, counted)``
        tuples consumed LIFO, which gives the depth-first order contract:
        an element's extra outputs complete before its last output
        continues, and endpoint responses run before anything that was
        stacked earlier.  ``counted`` is False for continuation items (the
        same packet resuming mid-chain) so the process-wide propagation
        counter counts each frame once.

        The plan is checked against ``self.elements`` once per frame and
        rebuilt on any difference, so in-place edits of the public list take
        effect from the next frame.  Injections via the transit context
        (:class:`_FrameContext`) are synchronous re-entrant calls — they
        finish before the injecting element's ``process`` returns.
        """
        global _packets_propagated_total
        elements = self.elements
        if len(elements) == len(self._planned) and all(map(is_, elements, self._planned)):
            up, down = self._plans
        else:
            up, down = self._compile()
        count = len(elements)
        clock = self.clock
        events = obs.EVENTS
        if events is not None and not (
            events.reaches("hop.traverse") or events.reaches("endpoint.deliver")
        ):
            events = None  # e.g. metrics alone: no per-hop fields to build
        metrics = obs.METRICS
        max_depth = self.max_depth
        to_server = Direction.CLIENT_TO_SERVER
        if index is None:
            index = 0 if direction is to_server else count - 1
        # One mutable context serves the whole frame: injections only happen
        # synchronously inside ``process``, when its fields are current.
        ctx = _FrameContext(self)
        agenda: list[tuple[IPPacket, Direction, int, int, bool]] = [
            (packet, direction, index, depth, True)
        ]
        push = agenda.append
        while agenda:
            current, direction, i, depth, counted = agenda.pop()
            if counted:
                _packets_propagated_total += 1
            if depth > max_depth:
                raise RuntimeError("packet propagation exceeded max depth (response loop?)")
            if counted and metrics is not None:
                metrics.inc("netsim.packets.propagated")
            step, plan = (1, up) if direction is to_server else (-1, down)
            ctx.direction = direction
            ctx.depth = depth
            ctx.step = step
            while 0 <= i < count:
                process, element, run, run_end = plan[i]
                if (
                    run
                    and current.version == 4
                    and current.ihl is None
                    and current.total_length is None
                    and current.checksum is None
                    and current.ttl > run
                ):
                    # k routers on a pristine packet with TTL > k are exactly
                    # k TTL decrements: auto-computed headers stay valid and
                    # the TTL cannot expire mid-run, so one clone is
                    # byte-identical to hop-by-hop.  Otherwise the run's
                    # first router processes the packet like any element.
                    if events is not None:
                        # The run's per-hop events: each router saw the
                        # packet one TTL lower than the one before it.
                        fields = obs_trace.packet_fields(current)
                        now = clock.now
                        for hop in range(run):
                            fields["ttl"] = current.ttl - hop
                            events.emit(
                                "hop.traverse", now, element=plan[i + hop * step][1].name,
                                dir=direction.value, out=1, **fields,
                            )
                    if metrics is not None:
                        metrics.inc("netsim.hop.forwarded", run)
                    current = current.decremented(run)
                    i = run_end
                    continue
                ctx.index = i
                outputs = process(current, direction, ctx)
                if events is not None:
                    events.emit(
                        "hop.traverse", clock.now, element=element.name, dir=direction.value,
                        out=len(outputs), **obs_trace.packet_fields(current),
                    )
                if not outputs:
                    if metrics is not None:
                        metrics.inc("netsim.hop.absorbed")
                        metrics.inc(f"netsim.hop.absorbed.{element.name}")
                    break
                if metrics is not None:
                    metrics.inc("netsim.hop.forwarded")
                if len(outputs) > 1:
                    # An element may emit several packets (e.g. reassembly
                    # flushes); extras propagate to completion before the
                    # last output continues, so the continuation is stacked
                    # first (LIFO) and the extras above it in order.
                    push((outputs[-1], direction, i + step, depth, False))
                    for extra in reversed(outputs[:-1]):
                        push((extra, direction, i + step, depth + 1, True))
                    break
                current = outputs[0]
                i += step
            else:
                # Past the last element: hand the packet to its endpoint and
                # stack the responses in reverse, so they pop in order, each
                # running to completion before any earlier-stacked work.
                if events is not None:
                    events.emit(
                        "endpoint.deliver", clock.now,
                        endpoint="server" if step == 1 else "client", dir=direction.value,
                        **obs_trace.packet_fields(current),
                    )
                if metrics is not None:
                    metrics.inc("netsim.packets.delivered")
                if step == 1:
                    responses = self.server_endpoint.receive(current)
                    back = Direction.SERVER_TO_CLIENT
                    start = count - 1
                else:
                    responses = self.client_endpoint.receive(current)
                    back = to_server
                    start = 0
                for response in reversed(responses):
                    push((response, back, start, depth + 1, True))


#: One plan entry: bound ``process``, element, router-run length, run end.
_Step = tuple[Callable[..., list[IPPacket]], NetworkElement, int, int]


class _FrameContext:
    """The propagation loop's transit context: one per frame, not per hop.

    Duck-typed stand-in for :class:`TransitContext` (same ``clock`` /
    ``inject_back`` / ``inject_forward`` surface).  The
    owning frame sets ``direction``, ``depth``, ``step`` and ``index`` as it
    takes agenda items and advances; elements only inject synchronously from
    ``process``, so they are current when read, and each injection runs
    as a frame with its own context.
    """

    __slots__ = ("clock", "index", "direction", "depth", "step", "_path")

    def __init__(self, path: Path) -> None:
        self.clock = path.clock
        self._path = path

    def inject_back(self, injected: IPPacket) -> None:
        self._path._propagate(
            injected, self.direction.reversed, self.index - self.step, self.depth + 1
        )

    def inject_forward(self, injected: IPPacket) -> None:
        self._path._propagate(injected, self.direction, self.index + self.step, self.depth + 1)
