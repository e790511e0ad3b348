"""Million-flow churn workload: bounded flow-state under sustained load.

Figure 4's busy-hour flushing is the paper's visible symptom of classifier
resource pressure ("classification results being flushed due to scarce
resources").  This experiment drives that regime directly: a seeded
generator churns far more flows through a :class:`DPIMiddlebox` than its
flow table can hold, so every bounded-state mechanism runs hot —

* LRU capacity eviction off the expiry lanes' heads (``max_flows``),
* byte-budget shedding (``flow_byte_budget``),
* batch idle expiry (flows aged past their flush timeout, off the expiry lanes),
* admission load-shedding (an :class:`OverloadPolicy`, when enabled).

Everything is deterministic: flow endpoints derive from the flow index,
match/no-match alternation from a seeded hash, and time from a
:class:`VirtualClock`.  The same config always produces the same counters.

The module doubles as a standalone script so memory-flatness checks can run
each configuration in its *own process*::

    PYTHONPATH=src python -m repro.experiments.scale --flows 200000 --json

Peak RSS (``ru_maxrss``) is process-lifetime-monotonic, so "RSS stays flat
when flows grow 10x" is only measurable across separate processes; the
JSON output exists for exactly that comparison (see the scale-smoke CI job
and ``tests/test_scale.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from dataclasses import asdict, dataclass

from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.overload import OverloadPolicy
from repro.middlebox.policy import RulePolicy
from repro.middlebox.rules import MatchRule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.obs import profiling as obs_profiling
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

SERVER = "203.0.113.50"
SERVER_PORT = 80

#: The keyword carried by matching flows (same shape as the testbed rule).
MATCH_KEYWORD = b"video.example.com"

#: Matching flows send this request head; the keyword sits mid-payload as
#: an HTTP Host header would.
MATCH_PAYLOAD = b"GET /stream HTTP/1.1\r\nHost: " + MATCH_KEYWORD + b"\r\n\r\n"
NEUTRAL_PAYLOAD = b"GET /other HTTP/1.1\r\nHost: cdn.example.net\r\n\r\n"


@dataclass(frozen=True)
class ScaleConfig:
    """One churn run, fully determined by its fields.

    Attributes:
        flows: distinct flows pushed through the engine.
        packets_per_flow: payload packets per flow after its SYN.
        filler_bytes: extra payload padding per data packet (drives the
            byte budget when one is set).
        match_every: one flow in this many carries :data:`MATCH_KEYWORD`.
        revisit_window: after creating flow *i*, flow ``i - window`` gets
            one more packet — keeps the recency order genuinely reordered
            instead of pure FIFO.
        max_flows: engine flow-table capacity.
        flow_byte_budget: optional scan-buffer byte bound across flows.
        shed: enable the engine's :class:`OverloadPolicy` admission shedding.
        shed_seed: deterministic coin seed for the shedder.
        pre_match_timeout / post_match_timeout: engine flush timeouts.
        packet_interval: virtual seconds between packets.
        idle_every / idle_seconds: every *idle_every* flows the clock jumps
            *idle_seconds* forward, batch-expiring everything idle past its
            timeout in one walk of the expiry lanes (a busy/quiet rhythm).
    """

    flows: int = 100_000
    packets_per_flow: int = 2
    filler_bytes: int = 0
    match_every: int = 8
    revisit_window: int = 64
    max_flows: int = 8_192
    flow_byte_budget: int | None = None
    shed: bool = False
    shed_seed: int = 0x5EED
    pre_match_timeout: float = 30.0
    post_match_timeout: float = 60.0
    packet_interval: float = 0.0005
    idle_every: int = 50_000
    idle_seconds: float = 120.0


@dataclass
class ScaleResult:
    """Counters from one churn run (all seeded-deterministic but RSS)."""

    config: ScaleConfig
    packets: int
    flows_offered: int
    flows_admitted: int
    matches: int
    evictions: int
    sheds: int
    expired: int
    peak_tracked_flows: int
    tracked_flows_end: int
    virtual_seconds: float
    peak_rss_kb: int | None

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["config"] = asdict(self.config)
        return payload


def _flow_endpoint(index: int) -> tuple[str, int]:
    """The (src, sport) for flow *index* — unique across 2**26 flows."""
    third = (index >> 9) & 0xFF
    second = (index >> 17) & 0xFF
    host = 2 + (index & 0x1FF) % 250
    sport = 10_000 + (index * 7) % 50_000
    return f"10.{second}.{third}.{host}", sport


def _is_match_flow(index: int, every: int) -> bool:
    """Seeded decision: does flow *index* carry the keyword?"""
    if every <= 0:
        return False
    return zlib.crc32(index.to_bytes(8, "big")) % every == 0


def build_engine(config: ScaleConfig) -> tuple[DPIMiddlebox, PolicyState]:
    """The engine under test, configured from *config*."""
    policy = PolicyState()
    overload = (
        OverloadPolicy(seed=config.shed_seed) if config.shed else None
    )
    engine = DPIMiddlebox(
        name="scale-dpi",
        rules=[
            MatchRule(
                name="video",
                keywords=[MATCH_KEYWORD],
                policy=RulePolicy.throttle(1_500_000),
            )
        ],
        policy_state=policy,
        validation=MiddleboxValidation.lax(),
        reassembly=ReassemblyMode.PER_PACKET,
        inspect_packet_limit=4,
        match_and_forget=True,
        require_protocol_anchor=True,
        track_flows=True,
        pre_match_timeout=config.pre_match_timeout,
        post_match_timeout=config.post_match_timeout,
        max_flows=config.max_flows,
        flow_byte_budget=config.flow_byte_budget,
        overload=overload,
    )
    return engine, policy


def run_scale(config: ScaleConfig) -> ScaleResult:
    """Run the churn workload; returns the deterministic counter summary."""
    engine, _policy = build_engine(config)
    # Diagnostics stay bounded too: the match log becomes a fixed-size ring
    # (old entries fall off) while `matches_logged` keeps the exact total.
    engine.bound_flow_state(config.max_flows, match_log_bound=4_096)
    clock = VirtualClock()
    sink: list[IPPacket] = []
    ctx = TransitContext(clock=clock, inject_back=sink.append, inject_forward=sink.append)

    packets = 0
    expired_base = 0
    peak_tracked = 0
    data_flags = TCPFlags.ACK | TCPFlags.PSH
    filler = b"x" * config.filler_bytes

    def send(src: str, sport: int, seq: int, flags: TCPFlags, payload: bytes = b"") -> None:
        nonlocal packets
        segment = TCPSegment(
            sport=sport, dport=SERVER_PORT, seq=seq, ack=1, flags=flags, payload=payload
        )
        clock.advance(config.packet_interval)
        engine.process(
            IPPacket(src=src, dst=SERVER, transport=segment), Direction.CLIENT_TO_SERVER, ctx
        )
        packets += 1
        sink.clear()

    with obs_profiling.stage("scale.churn"):
        for index in range(config.flows):
            src, sport = _flow_endpoint(index)
            payload = (
                MATCH_PAYLOAD if _is_match_flow(index, config.match_every) else NEUTRAL_PAYLOAD
            )
            if filler:
                payload = payload + filler
            send(src, sport, 1_000, TCPFlags.SYN)
            for step in range(config.packets_per_flow):
                send(src, sport, 1_001 + step * len(payload), data_flags, payload)
            if config.revisit_window and index >= config.revisit_window:
                back_src, back_sport = _flow_endpoint(index - config.revisit_window)
                send(back_src, back_sport, 5_000_000, data_flags, b"tail")
            tracked = len(engine._flows)
            if tracked > peak_tracked:
                peak_tracked = tracked
            if config.idle_every and (index + 1) % config.idle_every == 0:
                before = len(engine._flows)
                clock.advance(config.idle_seconds)
                send(*_flow_endpoint(index + config.flows), 1_000, TCPFlags.SYN)
                expired_base += max(0, before - len(engine._flows) + 1)

    matches = engine.matches_logged

    return ScaleResult(
        config=config,
        packets=packets,
        flows_offered=config.flows,
        flows_admitted=config.flows - engine.sheds,
        matches=matches,
        evictions=engine.evictions,
        sheds=engine.sheds,
        expired=expired_base,
        peak_tracked_flows=peak_tracked,
        tracked_flows_end=len(engine._flows),
        virtual_seconds=round(clock.now, 6),
        peak_rss_kb=obs_profiling.peak_rss_kb(),
    )


def format_scale(result: ScaleResult) -> str:
    """A terminal summary table of one churn run."""
    cfg = result.config
    lines = [
        "scale: bounded flow-state churn",
        f"  flows offered     {result.flows_offered:>12,}",
        f"  flows admitted    {result.flows_admitted:>12,}",
        f"  packets           {result.packets:>12,}",
        f"  matches           {result.matches:>12,}",
        f"  evictions         {result.evictions:>12,}",
        f"  sheds             {result.sheds:>12,}",
        f"  batch-expired     {result.expired:>12,}",
        f"  peak tracked      {result.peak_tracked_flows:>12,}  (capacity {cfg.max_flows:,})",
        f"  tracked at end    {result.tracked_flows_end:>12,}",
        f"  virtual time      {result.virtual_seconds:>12,.1f}s",
    ]
    if result.peak_rss_kb is not None:
        lines.append(f"  peak RSS          {result.peak_rss_kb:>12,} KiB")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point for per-process memory measurements."""
    parser = argparse.ArgumentParser(
        prog="scale", description="bounded flow-state churn workload"
    )
    parser.add_argument("--flows", type=int, default=ScaleConfig.flows)
    parser.add_argument("--packets-per-flow", type=int, default=ScaleConfig.packets_per_flow)
    parser.add_argument("--filler-bytes", type=int, default=ScaleConfig.filler_bytes)
    parser.add_argument("--max-flows", type=int, default=ScaleConfig.max_flows)
    parser.add_argument("--byte-budget", type=int, default=None)
    parser.add_argument("--shed", action="store_true")
    parser.add_argument("--seed", type=int, default=ScaleConfig.shed_seed)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)
    config = ScaleConfig(
        flows=args.flows,
        packets_per_flow=args.packets_per_flow,
        filler_bytes=args.filler_bytes,
        max_flows=args.max_flows,
        flow_byte_budget=args.byte_budget,
        shed=args.shed,
        shed_seed=args.seed,
    )
    result = run_scale(config)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_scale(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
