"""Path composition: endpoints connected through an ordered element chain.

Packet propagation is event-driven: every unit of work — "this packet is at
element *i*" — is an explicit agenda item that the frame loop consumes in
depth-first order: an element's extra outputs and an endpoint's responses
complete before anything stacked earlier (the golden traces pin this
order).  An element may inject packets back toward the sender (ICMP Time
Exceeded, censor RSTs) or forward toward the destination; injected packets
traverse the remaining elements exactly as real ones would.  The walk is
the same whether or not a tracer or metrics registry is live; observers
only record what it does.

The synchronous API (:meth:`Path.send_from_client`) runs a frame to
completion on the spot.  :meth:`Path.schedule_from_client` instead defers a
frame to a future virtual time on the path's
:class:`~repro.netsim.scheduler.EventScheduler`, so thousands of flows
interleave in ``(deadline, seq)`` order — congestion scenarios a synchronous
send cannot express.  While a scheduler is bound, elements arm their timers
(fragment-reassembly expiry) on it.
"""

from __future__ import annotations

from typing import Protocol

from repro.netsim.clock import VirtualClock
from repro.netsim.element import NetworkElement
from repro.netsim.hop import RouterHop
from repro.netsim.scheduler import EventScheduler
from repro.obs import metrics as obs_metrics
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
        scheduler: an event scheduler for deferred frames and element
            timers.  ``None`` until :meth:`bind_scheduler` or the first
            :meth:`schedule_from_client` call.
    """

    def __init__(
        self,
        clock: VirtualClock,
        elements: list[NetworkElement],
        max_depth: int = 50,
        scheduler: EventScheduler | None = None,
    ) -> None:
        self.clock = clock
        self.elements = list(elements)
        self.client_endpoint: Endpoint = _SinkEndpoint()
        self.server_endpoint: Endpoint = _SinkEndpoint()
        self.max_depth = max_depth
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # public API — synchronous sends
    # ------------------------------------------------------------------
    def bind_scheduler(self, scheduler: EventScheduler) -> EventScheduler:
        """Attach *scheduler* for deferred frames and element timers."""
        self.scheduler = scheduler
        return scheduler

    def send_from_client(self, packet: IPPacket) -> None:
        """Inject *packet* at the client edge, traveling toward the server."""
        self._propagate(packet, Direction.CLIENT_TO_SERVER, index=0, depth=0)

    def send_from_server(self, packet: IPPacket) -> None:
        """Inject *packet* at the server edge, traveling toward the client."""
        self._propagate(
            packet, Direction.SERVER_TO_CLIENT, index=len(self.elements) - 1, depth=0
        )

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
    ) -> int:
        """Schedule a client-edge frame for a future virtual time.

        Unlike :meth:`send_from_client`, the frame does **not** run now; it
        fires when :meth:`run` (or the scheduler) drains past its deadline,
        interleaving with every other scheduled flow in ``(deadline, seq)``
        order.  Returns the scheduler event id (cancellable).
        """
        sched = self._require_scheduler()
        deadline = at if at is not None else sched.now + delay
        return sched.at(deadline, self._propagate, packet, Direction.CLIENT_TO_SERVER, 0, 0)

    def schedule_from_server(
        self, packet: IPPacket, delay: float = 0.0, at: float | None = None
    ) -> int:
        """Schedule a server-edge frame for a future virtual time."""
        sched = self._require_scheduler()
        deadline = at if at is not None else sched.now + delay
        return sched.at(
            deadline, self._propagate, packet, Direction.SERVER_TO_CLIENT,
            len(self.elements) - 1, 0,
        )

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

    def element_named(self, name: str) -> NetworkElement:
        """Look an element up by name (raises KeyError when absent)."""
        for element in self.elements:
            if element.name == name:
                return element
        raise KeyError(name)

    def reset(self) -> None:
        """Reset every element's per-flow state (between independent replays)."""
        for element in self.elements:
            element.reset()

    # ------------------------------------------------------------------
    # propagation machinery
    # ------------------------------------------------------------------
    def _propagate(self, packet: IPPacket, direction: Direction, index: int, depth: int) -> None:
        """Run one frame to completion via an explicit event agenda.

        Agenda items are ``(packet, direction, index, depth, counted)``
        tuples consumed LIFO, which gives the depth-first order contract:
        an element's extra outputs complete before its last output
        continues, and endpoint responses run before anything that was
        stacked earlier.  ``counted`` is False for continuation items (the
        same packet resuming mid-chain) so the process-wide propagation
        counter counts each frame once.

        Injections via the transit context (:class:`_FrameContext`) are
        synchronous re-entrant calls — they finish before the injecting
        element's ``process`` returns.
        """
        agenda: list[tuple[IPPacket, Direction, int, int, bool]] = [
            (packet, direction, index, depth, True)
        ]
        while agenda:
            pkt, item_direction, i, item_depth, counted = agenda.pop()
            self._walk(agenda, pkt, item_direction, i, item_depth, counted)

    def _walk(
        self,
        agenda: list[tuple[IPPacket, Direction, int, int, bool]],
        packet: IPPacket,
        direction: Direction,
        index: int,
        depth: int,
        counted: bool,
    ) -> None:
        global _packets_propagated_total
        if counted:
            _packets_propagated_total += 1
        if depth > self.max_depth:
            raise RuntimeError("packet propagation exceeded max depth (response loop?)")
        tracer = obs_trace.TRACER
        metrics = obs_metrics.METRICS
        if counted and metrics is not None:
            metrics.inc("netsim.packets.propagated")
        step = 1 if direction is Direction.CLIENT_TO_SERVER else -1
        elements = self.elements
        count = len(elements)
        # One mutable context serves the whole walk: injections only happen
        # synchronously inside element.process, when ``index`` is current.
        ctx = _FrameContext(self, direction, depth, step)
        current = packet
        i = index
        while 0 <= i < count:
            element = elements[i]
            if type(element) is RouterHop and (
                current.version == 4
                and current.ihl is None
                and current.total_length is None
                and current.checksum is None
            ):
                # Walk the maximal run of consecutive routers.  A run of k
                # routers applied to a pristine packet with TTL > k is
                # exactly k TTL decrements: headers stay valid at every hop
                # (auto-computed fields are self-consistent) and the TTL
                # cannot expire mid-run, so no drops, no ICMP, and the single
                # clone below is byte-identical to hop-by-hop.  Otherwise the
                # run's first router processes the packet like any element.
                j = i + step
                run = 1
                while 0 <= j < count and type(elements[j]) is RouterHop:
                    run += 1
                    j += step
                if current.ttl > run:
                    if tracer is not None:
                        # The run's per-hop events: each router saw the
                        # packet one TTL lower than the one before it.
                        fields = obs_trace.packet_fields(current)
                        now = self.clock.now
                        for hop in range(run):
                            fields["ttl"] = current.ttl - hop
                            tracer.emit(
                                "hop.traverse",
                                now,
                                element=elements[i + hop * step].name,
                                dir=direction.value,
                                out=1,
                                **fields,
                            )
                    if metrics is not None:
                        metrics.inc("netsim.hop.forwarded", run)
                    current = current.decremented(run)
                    i = j
                    continue
            ctx.index = i
            outputs = element.process(current, direction, ctx)
            if tracer is not None:
                tracer.emit(
                    "hop.traverse",
                    self.clock.now,
                    element=element.name,
                    dir=direction.value,
                    out=len(outputs),
                    **obs_trace.packet_fields(current),
                )
            if not outputs:
                if metrics is not None:
                    metrics.inc("netsim.hop.absorbed")
                    metrics.inc(f"netsim.hop.absorbed.{element.name}")
                return
            if metrics is not None:
                metrics.inc("netsim.hop.forwarded")
            if len(outputs) > 1:
                # An element may emit several packets (e.g. reassembly
                # flushes); extras propagate to completion before the last
                # output continues, so the continuation is stacked first
                # (LIFO) and the extras above it in order.
                agenda.append((outputs[-1], direction, i + step, depth, False))
                for extra in reversed(outputs[:-1]):
                    agenda.append((extra, direction, i + step, depth + 1, True))
                return
            current = outputs[-1]
            i += step
        if tracer is not None:
            tracer.emit(
                "endpoint.deliver",
                self.clock.now,
                endpoint="server" if direction is Direction.CLIENT_TO_SERVER else "client",
                dir=direction.value,
                **obs_trace.packet_fields(current),
            )
        if metrics is not None:
            metrics.inc("netsim.packets.delivered")
        self._deliver_to_endpoint(agenda, current, direction, depth)

    def _deliver_to_endpoint(
        self,
        agenda: list[tuple[IPPacket, Direction, int, int, bool]],
        packet: IPPacket,
        direction: Direction,
        depth: int,
    ) -> None:
        """Hand the frame's packet to its endpoint; stack the responses.

        Responses are pushed in reverse so they pop in order, each running
        to completion before any earlier-stacked work.
        """
        if direction is Direction.CLIENT_TO_SERVER:
            responses = self.server_endpoint.receive(packet)
            back = Direction.SERVER_TO_CLIENT
            start = len(self.elements) - 1
        else:
            responses = self.client_endpoint.receive(packet)
            back = Direction.CLIENT_TO_SERVER
            start = 0
        for response in reversed(responses):
            agenda.append((response, back, start, depth + 1, True))


class _FrameContext:
    """The propagation loop's transit context: one per frame, not per hop.

    Duck-typed stand-in for :class:`TransitContext` (same ``clock`` /
    ``inject_back`` / ``inject_forward`` / ``scheduler`` surface).  The
    owning frame updates ``index`` as the walk advances; elements only
    inject synchronously from ``process``, so the position is always
    current when it is read.
    """

    __slots__ = ("clock", "scheduler", "index", "_path", "_direction", "_depth", "_step")

    def __init__(self, path: Path, direction: Direction, depth: int, step: int) -> None:
        self.clock = path.clock
        self.scheduler = path.scheduler
        self.index = 0
        self._path = path
        self._direction = direction
        self._depth = depth
        self._step = step

    def inject_back(self, injected: IPPacket) -> None:
        self._path._propagate(
            injected, self._direction.reversed, self.index - self._step, self._depth + 1
        )

    def inject_forward(self, injected: IPPacket) -> None:
        self._path._propagate(
            injected, self._direction, self.index + self._step, self._depth + 1
        )
