"""Congestion: many flows interleaved on one path in virtual-time order.

Figure 4 measures one flow at a time — the nested-call driver could not do
anything else, because a send ran its whole frame (and every response) to
completion before the next send could start.  With the event-scheduler
core, flows are *scheduled*: each packet is an event with a virtual-time
deadline, and the drain interleaves thousands of flows exactly as their
arrival times dictate.  This experiment is the first workload written
natively against that API: N staggered flows share one environment's path,
every packet scheduled via :meth:`~repro.netsim.path.Path.schedule_from_client`,
and the drain delivers them in global ``(deadline, seq)`` order.

The headline metric is the *interleaving ratio*: the fraction of adjacent
server-side deliveries that belong to different flows.  The per-packet
driver is structurally stuck at ~0 (one flow fully delivered, then the
next); a scheduled run with overlapping schedules approaches 1.  The
report also carries per-flow completion spread and the scheduler's own
counters, so regressions in drain fairness are visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.scheduler import EventScheduler
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment

__all__ = [
    "CongestionConfig",
    "CongestionResult",
    "run_congestion",
    "format_congestion",
]


@dataclass(frozen=True)
class CongestionConfig:
    """Shape of the interleaved-flow workload.

    Attributes:
        flows: concurrent client flows sharing the path.
        packets_per_flow: payload packets each flow sends.
        payload_bytes: padding appended to every request (drives shapers).
        spacing: virtual seconds between one flow's consecutive packets.
        stagger: arrival offset between consecutive flows' first packets.
            ``stagger < spacing`` forces flows to overlap in time.
        env_name: environment to congest (its classifier/shaper apply).
        host: hostname carried in every request (classified hosts exercise
            the throttle path on THROUGHPUT-signal environments).
    """

    flows: int = 50
    packets_per_flow: int = 4
    payload_bytes: int = 400
    spacing: float = 0.004
    stagger: float = 0.001
    env_name: str = "tmobile"
    host: str = "video.example.com"

    def __post_init__(self) -> None:
        if self.flows < 1 or self.packets_per_flow < 1:
            raise ValueError("need at least one flow and one packet per flow")
        if self.spacing < 0 or self.stagger < 0:
            raise ValueError("spacing and stagger cannot be negative")


@dataclass
class CongestionResult:
    """What one congestion run observed."""

    config: CongestionConfig
    packets_scheduled: int = 0
    packets_delivered: int = 0
    flows_completed: int = 0
    interleavings: int = 0
    virtual_duration: float = 0.0
    first_completion: float = 0.0
    last_completion: float = 0.0
    scheduler_fired: int = 0
    scheduler_max_pending: int = 0
    per_flow_delivered: dict[int, int] = field(default_factory=dict)

    @property
    def interleave_ratio(self) -> float:
        """Adjacent server deliveries from *different* flows, 0..1."""
        if self.packets_delivered < 2:
            return 0.0
        return self.interleavings / (self.packets_delivered - 1)

    def as_dict(self) -> dict[str, object]:
        return {
            "flows": self.config.flows,
            "packets_per_flow": self.config.packets_per_flow,
            "env": self.config.env_name,
            "packets_scheduled": self.packets_scheduled,
            "packets_delivered": self.packets_delivered,
            "flows_completed": self.flows_completed,
            "interleave_ratio": round(self.interleave_ratio, 4),
            "virtual_duration": round(self.virtual_duration, 6),
            "completion_spread": round(self.last_completion - self.first_completion, 6),
            "scheduler_fired": self.scheduler_fired,
            "scheduler_max_pending": self.scheduler_max_pending,
        }


class _FlowJournal:
    """Server endpoint recording (flow, time) per delivery, keeping no payloads."""

    def __init__(self, scheduler: EventScheduler) -> None:
        self.scheduler = scheduler
        self.deliveries: list[tuple[int, float]] = []

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        sport = packet.tcp.sport if packet.tcp is not None else 0
        self.deliveries.append((sport, self.scheduler.now))
        return []


def _request(flow_port: int, seq: int, config: CongestionConfig, client: str, server: str) -> IPPacket:
    body = (
        f"GET /chunk{seq} HTTP/1.1\r\nHost: {config.host}\r\n\r\n".encode("ascii")
        + b"x" * config.payload_bytes
    )
    return IPPacket(
        src=client,
        dst=server,
        transport=TCPSegment(sport=flow_port, dport=80, payload=body),
    )


def run_congestion(config: CongestionConfig | None = None) -> CongestionResult:
    """Schedule every flow's packets at staggered virtual times and drain.

    Deterministic end to end: the schedule is a pure function of the
    config, and the drain order is the scheduler's ``(deadline, seq)``
    contract — reruns produce identical results.
    """
    from repro.envs import ENVIRONMENT_FACTORIES

    config = config or CongestionConfig()
    env = ENVIRONMENT_FACTORIES[config.env_name]()
    scheduler = env.path.bind_scheduler(EventScheduler(env.clock))
    journal = _FlowJournal(scheduler)
    env.path.server_endpoint = journal

    result = CongestionResult(config=config)
    start = scheduler.now
    for flow in range(config.flows):
        flow_port = env.next_sport()
        result.per_flow_delivered[flow_port] = 0
        arrival = start + flow * config.stagger
        for seq in range(config.packets_per_flow):
            env.path.schedule_from_client(
                _request(flow_port, seq, config, env.client_addr, env.server_addr),
                at=arrival + seq * config.spacing,
            )
            result.packets_scheduled += 1
    env.path.run()

    previous_flow: int | None = None
    for flow_port, when in journal.deliveries:
        result.packets_delivered += 1
        if flow_port in result.per_flow_delivered:
            result.per_flow_delivered[flow_port] += 1
        if previous_flow is not None and flow_port != previous_flow:
            result.interleavings += 1
        previous_flow = flow_port
    result.flows_completed = sum(
        1
        for count in result.per_flow_delivered.values()
        if count == config.packets_per_flow
    )
    if journal.deliveries:
        times = [when for _flow, when in journal.deliveries]
        result.first_completion = min(times)
        result.last_completion = max(times)
    result.virtual_duration = scheduler.now - start
    result.scheduler_fired = scheduler.fired
    result.scheduler_max_pending = scheduler.max_pending
    return result


def format_congestion(result: CongestionResult) -> str:
    """Human-readable congestion report."""
    summary = result.as_dict()
    lines = [
        f"congestion: {summary['flows']} flows x {summary['packets_per_flow']} packets "
        f"through {summary['env']}",
        f"  delivered        {summary['packets_delivered']}/{summary['packets_scheduled']} "
        f"({summary['flows_completed']} flows complete)",
        f"  interleave ratio {summary['interleave_ratio']} "
        "(0 = flows serialized, 1 = fully interleaved)",
        f"  virtual duration {summary['virtual_duration']}s "
        f"(completion spread {summary['completion_spread']}s)",
        f"  scheduler        {summary['scheduler_fired']} events fired, "
        f"max {summary['scheduler_max_pending']} pending",
    ]
    return "\n".join(lines)
