"""Bandwidth modeling: a base link plus policy-driven throttling.

Differentiation policies like AT&T Stream Saver (1.5 Mbps for classified
video) are enforced here: the DPI middlebox marks a flow for throttling in a
shared :class:`PolicyState`, and this shaper applies a token bucket to marked
flows.  Unmarked flows see only the base link rate.  Transmission time is
charged to the shared virtual clock, so measured goodput over virtual time is
the differentiation signal the detection phase reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.clock import VirtualClock
from repro.netsim.element import NetworkElement, TransitContext
from repro.packets.flow import Direction, FiveTuple
from repro.packets.ip import IPPacket


@dataclass
class TokenBucket:
    """A token bucket charging transmission delay to a virtual clock.

    Attributes:
        rate_bps: sustained rate in bits per second.
        burst_bytes: bucket depth in bytes.
    """

    rate_bps: float
    burst_bytes: float = 16_000.0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate must be positive")
        self._tokens = self.burst_bytes
        self._last = 0.0

    def consume(self, size_bytes: int, clock: VirtualClock) -> float:
        """Charge *size_bytes*; advance the clock if the bucket must refill.

        Returns the delay (seconds) that was charged.
        """
        rate_bytes = self.rate_bps / 8.0
        now = clock.now
        elapsed = now - self._last
        tokens = self._tokens + elapsed * rate_bytes if elapsed > 0.0 else self._tokens
        if tokens > self.burst_bytes:
            tokens = self.burst_bytes
        self._last = now
        if tokens >= size_bytes:
            self._tokens = tokens - size_bytes
            return 0.0
        self._tokens = tokens
        deficit = size_bytes - tokens
        delay = deficit / rate_bytes
        clock.advance(delay)
        now = clock.now
        elapsed = now - self._last
        if elapsed > 0.0:
            tokens = min(self.burst_bytes, tokens + elapsed * rate_bytes)
        self._last = now
        self._tokens = max(tokens - size_bytes, 0.0)
        return delay

    def reset(self) -> None:
        """Restore a full bucket."""
        self._tokens = self.burst_bytes
        self._last = 0.0


@dataclass
class PolicyState:
    """Shared marks the middlebox sets and path elements act upon.

    Attributes:
        throttled_flows: normalized flow keys → throttle rate in bps.
        zero_rated_flows: normalized flow keys exempt from the data quota.
        blocked_endpoints: (server_ip, server_port) pairs under residual
            blocking (the GFC's server:port blocking behaviour, §6.5).
    """

    throttled_flows: dict[FiveTuple, float] = field(default_factory=dict)
    zero_rated_flows: set[FiveTuple] = field(default_factory=set)
    blocked_endpoints: set[tuple[str, int]] = field(default_factory=set)

    def throttle(self, key: FiveTuple, rate_bps: float) -> None:
        """Mark *key* (normalized) for throttling at *rate_bps*."""
        self.throttled_flows[key.normalized()] = rate_bps

    def zero_rate(self, key: FiveTuple) -> None:
        """Mark *key* (normalized) as zero-rated."""
        self.zero_rated_flows.add(key.normalized())

    def throttle_rate_for(self, key: FiveTuple | None) -> float | None:
        """The throttle rate for a flow, or None when unmarked."""
        if key is None:
            return None
        return self.throttled_flows.get(key.normalized())

    def is_zero_rated(self, key: FiveTuple | None) -> bool:
        """True when the flow is marked zero-rated."""
        return key is not None and key.normalized() in self.zero_rated_flows

    def reset(self) -> None:
        """Clear all marks."""
        self.throttled_flows.clear()
        self.zero_rated_flows.clear()
        self.blocked_endpoints.clear()


class TokenBucketShaper(NetworkElement):
    """Applies base-link and per-flow throttle rates to passing traffic."""

    def __init__(
        self,
        policy_state: PolicyState,
        base_rate_bps: float = 12_000_000.0,
        name: str = "shaper",
    ) -> None:
        self.name = name
        self.policy_state = policy_state
        self.base_bucket = TokenBucket(rate_bps=base_rate_bps, burst_bytes=64_000.0)
        self._flow_buckets: dict[FiveTuple, TokenBucket] = {}

    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Charge the packet's transmission time, throttled when marked."""
        size = packet.wire_length()
        # Flow keys are only needed to look up throttle marks; with none
        # set (the common case) every packet takes the base link.
        throttled = self.policy_state.throttled_flows
        if throttled:
            key = FiveTuple.of(packet)
            normalized = None if key is None else key.normalized()
            rate = None if normalized is None else throttled.get(normalized)
            if rate is not None:
                bucket = self._flow_buckets.get(normalized)
                if bucket is None or bucket.rate_bps != rate:
                    bucket = TokenBucket(rate_bps=rate, burst_bytes=8_000.0)
                    bucket._last = ctx.clock.now
                    self._flow_buckets[normalized] = bucket
                bucket.consume(size, ctx.clock)
                return [packet]
        # Inlined base bucket (TokenBucket.consume, same float operations in
        # the same order): the base link saturates on most packets of a
        # server response, so both the refill and the delay run here.
        bucket = self.base_bucket
        rate_bytes = bucket.rate_bps / 8.0
        clock = ctx.clock
        now = clock.now
        elapsed = now - bucket._last
        tokens = bucket._tokens
        if elapsed > 0.0:
            tokens += elapsed * rate_bytes
            if tokens > bucket.burst_bytes:
                tokens = bucket.burst_bytes
        if tokens >= size:
            bucket._last = now
            bucket._tokens = tokens - size
            return [packet]
        clock.advance((size - tokens) / rate_bytes)
        later = clock.now
        elapsed = later - now
        if elapsed > 0.0:
            tokens = min(bucket.burst_bytes, tokens + elapsed * rate_bytes)
        bucket._last = later
        bucket._tokens = max(tokens - size, 0.0)
        return [packet]

    def reset(self) -> None:
        """Drop per-flow buckets and refill the base bucket."""
        self._flow_buckets.clear()
        self.base_bucket.reset()
