"""Deterministic fault injection for the network simulator.

The paper's methodology only works on real, lossy networks because lib·erate
repeats trials and tolerates noise.  This module makes the simulator lossy on
demand: a :class:`FaultElement` placed at the client edge of a path injects
packet loss (iid and Gilbert–Elliott bursts), duplication, payload/header
corruption, reorder jitter, link flaps, and mid-flow middlebox restarts.

Every random decision is drawn from a per-flow RNG seeded with
:func:`repro.runtime.derive_seed`, so a run with a given
:class:`FaultProfile` is bit-reproducible: the same flow sees the same fault
sequence regardless of what other flows exist or which worker replays it.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field, replace

from repro import obs
from repro.netsim.element import NetworkElement, TransitContext
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.runtime import derive_seed


@dataclass(frozen=True)
class FaultProfile:
    """One configuration of the fault injector.

    All rates are per-packet probabilities in [0, 1].  A profile with every
    rate at zero and no flap/restart schedule is a no-op: environments built
    with such a profile (or with ``faults=None``) take exactly the fault-free
    code path.

    Attributes:
        seed: base seed for the per-flow RNGs.
        loss_rate: iid packet loss.
        burst_loss_rate: extra loss applied while the Gilbert–Elliott chain
            is in its bad state.
        burst_enter / burst_exit: per-packet transition probabilities of the
            Gilbert–Elliott chain (good→bad and bad→good).
        duplicate_rate: probability a packet is emitted twice.
        corrupt_rate: probability one payload bit is flipped; the transport
            checksum is frozen at its pre-corruption value so validating
            receivers detect (and drop) the damage, as on a real link.
        header_corrupt_rate: probability the IP header checksum is frozen at
            a wrong value (header-validating routers drop the packet).
        reorder_rate: probability a packet is held back and emitted after the
            next packet (adjacent swap jitter).
        flap_period / flap_duration: when set, the link is down for
            *flap_duration* seconds at the start of every *flap_period*
            seconds of virtual time (every packet in the window is lost).
        restart_interval: when set, the configured restart targets (usually
            the middlebox) have their state wiped every *restart_interval*
            seconds of virtual time — a mid-flow middlebox restart.
    """

    seed: int = 0
    loss_rate: float = 0.0
    burst_loss_rate: float = 0.0
    burst_enter: float = 0.0
    burst_exit: float = 0.3
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    header_corrupt_rate: float = 0.0
    reorder_rate: float = 0.0
    flap_period: float | None = None
    flap_duration: float = 0.0
    restart_interval: float | None = None

    def is_zero(self) -> bool:
        """True when the profile injects nothing at all."""
        return (
            self.loss_rate == 0.0
            and (self.burst_loss_rate == 0.0 or self.burst_enter == 0.0)
            and self.duplicate_rate == 0.0
            and self.corrupt_rate == 0.0
            and self.header_corrupt_rate == 0.0
            and self.reorder_rate == 0.0
            and self.flap_period is None
            and self.restart_interval is None
        )

    def with_seed(self, seed: int) -> "FaultProfile":
        """The same profile reseeded (for multi-seed chaos sweeps)."""
        return replace(self, seed=seed)


def lossy_profile(seed: int = 0) -> FaultProfile:
    """The acceptance profile: 5% iid loss plus 2% duplication."""
    return FaultProfile(seed=seed, loss_rate=0.05, duplicate_rate=0.02)


def bursty_profile(seed: int = 0) -> FaultProfile:
    """Gilbert–Elliott burst loss on top of light iid loss."""
    return FaultProfile(
        seed=seed,
        loss_rate=0.01,
        burst_loss_rate=0.35,
        burst_enter=0.02,
        burst_exit=0.25,
        duplicate_rate=0.01,
    )


def chaos_profile(seed: int = 0) -> FaultProfile:
    """Every fault class at once, mildly — for degradation testing."""
    return FaultProfile(
        seed=seed,
        loss_rate=0.03,
        burst_loss_rate=0.25,
        burst_enter=0.01,
        burst_exit=0.3,
        duplicate_rate=0.02,
        corrupt_rate=0.01,
        header_corrupt_rate=0.01,
        reorder_rate=0.02,
        flap_period=300.0,
        flap_duration=0.5,
        restart_interval=600.0,
    )


#: Named profiles selectable from the CLI (`--faults lossy`).
FAULT_PROFILES = {
    "lossy": lossy_profile,
    "bursty": bursty_profile,
    "chaos": chaos_profile,
}


@dataclass
class FaultStats:
    """Counters of every fault the element injected (diagnostics)."""

    processed: int = 0
    lost: int = 0
    burst_lost: int = 0
    duplicated: int = 0
    corrupted: int = 0
    header_corrupted: int = 0
    reordered: int = 0
    flap_dropped: int = 0
    restarts: int = 0

    def total_injected(self) -> int:
        """Total fault events across all classes."""
        return (
            self.lost
            + self.burst_lost
            + self.duplicated
            + self.corrupted
            + self.header_corrupted
            + self.reordered
            + self.flap_dropped
            + self.restarts
        )


_FlowKey = tuple[str, str, int, int, int]


class FaultElement(NetworkElement):
    """A path element that injects the faults of a :class:`FaultProfile`.

    Placed at the client edge (index 0) it models an unreliable access link:
    client→server packets are damaged before any middlebox sees them, and
    server→client packets are damaged after every middlebox processed them.

    Args:
        profile: the fault configuration.
        restart_targets: elements whose state is wiped on each scheduled
            middlebox restart (usually the environment's classifier).
    """

    name = "fault-injector"

    def __init__(self, profile: FaultProfile, restart_targets: tuple = ()) -> None:
        self.profile = profile
        self.restart_targets = list(restart_targets)
        self.stats = FaultStats()
        self._flow_rngs: dict[_FlowKey, random.Random] = {}
        self._burst_bad: dict[_FlowKey, bool] = {}
        self._held: tuple[IPPacket, Direction] | None = None
        self._restart_epoch = 0

    # ------------------------------------------------------------------
    # element interface
    # ------------------------------------------------------------------
    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Apply the profile's faults to one packet."""
        profile = self.profile
        self.stats.processed += 1
        self._maybe_restart(ctx)
        # Each fault decision is recorded as it happens; ``fault.drop``
        # events are the injector's ledger: the property tests assert their
        # count equals ``stats.lost + burst_lost + flap_dropped``.
        events = obs.EVENTS

        if self._link_down(ctx):
            self.stats.flap_dropped += 1
            if events is not None:
                events.emit(
                    "fault.drop", ctx.clock.now, element=self.name, reason="flap",
                    **obs_trace.packet_fields(packet),
                )
            return []

        rng = self._rng_for(packet)
        loss_cause = self._lose(packet, rng)
        if loss_cause is not None:
            if events is not None:
                events.emit(
                    "fault.drop", ctx.clock.now, element=self.name, reason=loss_cause,
                    **obs_trace.packet_fields(packet),
                )
            return self._release_held()

        if profile.corrupt_rate and rng.random() < profile.corrupt_rate:
            corrupted = _corrupt_payload(packet, rng)
            if corrupted is not None:
                packet = corrupted
                self.stats.corrupted += 1
                if events is not None:
                    events.emit(
                        "fault.corrupt", ctx.clock.now, element=self.name, reason="payload-bit",
                        **obs_trace.packet_fields(packet),
                    )
        if profile.header_corrupt_rate and rng.random() < profile.header_corrupt_rate:
            packet = _corrupt_header(packet, rng)
            self.stats.header_corrupted += 1
            if events is not None:
                events.emit(
                    "fault.corrupt", ctx.clock.now, element=self.name, reason="ip-header",
                    **obs_trace.packet_fields(packet),
                )

        outputs = [packet]
        if profile.duplicate_rate and rng.random() < profile.duplicate_rate:
            outputs.append(packet.copy())
            self.stats.duplicated += 1
            if events is not None:
                events.emit(
                    "fault.duplicate", ctx.clock.now, element=self.name, reason="duplicate",
                    **obs_trace.packet_fields(packet),
                )

        if (
            profile.reorder_rate
            and self._held is None
            and len(outputs) == 1
            and rng.random() < profile.reorder_rate
        ):
            # Hold this packet back; it is emitted after the next packet.
            self._held = (packet, direction)
            self.stats.reordered += 1
            if events is not None:
                events.emit(
                    "fault.reorder", ctx.clock.now, element=self.name, reason="held-back",
                    **obs_trace.packet_fields(packet),
                )
            return []
        return self._release_held(direction) + outputs

    def reset(self) -> None:
        """Drop transient flow state (RNG streams, burst state, held packet).

        Stats and the restart schedule are time-based and survive resets so
        diagnostics cover a whole experiment.
        """
        self._flow_rngs.clear()
        self._burst_bad.clear()
        self._held = None

    # ------------------------------------------------------------------
    # fault mechanics
    # ------------------------------------------------------------------
    def _rng_for(self, packet: IPPacket) -> random.Random:
        key = _flow_key(packet)
        rng = self._flow_rngs.get(key)
        if rng is None:
            rng = random.Random(derive_seed(self.profile.seed, "fault", *key))
            self._flow_rngs[key] = rng
        return rng

    def _lose(self, packet: IPPacket, rng: random.Random) -> str | None:
        """Loss decision for one packet: "loss", "burst-loss", or None (kept)."""
        profile = self.profile
        if profile.loss_rate and rng.random() < profile.loss_rate:
            self.stats.lost += 1
            return "loss"
        if profile.burst_loss_rate and profile.burst_enter:
            key = _flow_key(packet)
            bad = self._burst_bad.get(key, False)
            lost = bad and rng.random() < profile.burst_loss_rate
            if bad:
                if rng.random() < profile.burst_exit:
                    bad = False
            elif rng.random() < profile.burst_enter:
                bad = True
            self._burst_bad[key] = bad
            if lost:
                self.stats.burst_lost += 1
                return "burst-loss"
        return None

    def _link_down(self, ctx: TransitContext) -> bool:
        profile = self.profile
        if profile.flap_period is None or profile.flap_duration <= 0.0:
            return False
        return (ctx.clock.now % profile.flap_period) < profile.flap_duration

    def _maybe_restart(self, ctx: TransitContext) -> None:
        interval = self.profile.restart_interval
        if interval is None or not self.restart_targets:
            return
        epoch = int(ctx.clock.now // interval)
        if epoch > self._restart_epoch:
            self._restart_epoch = epoch
            for target in self.restart_targets:
                target.reset()
            self.stats.restarts += 1
            if obs.EVENTS is not None:
                obs.EVENTS.emit(
                    "fault.restart", ctx.clock.now, element=self.name,
                    targets=[t.name for t in self.restart_targets],
                )

    def _release_held(self, direction: Direction | None = None) -> list[IPPacket]:
        """Flush a held (reordered) packet.

        A held packet traveling the *opposite* direction cannot simply be
        prepended to this packet's output list (it would traverse the wrong
        way), so it is only released onto same-direction traffic; reset()
        discards leftovers.
        """
        if self._held is None:
            return []
        held, held_direction = self._held
        if direction is None or held_direction is not direction:
            return []
        self._held = None
        return [held]


def _flow_key(packet: IPPacket) -> _FlowKey:
    sport, dport = 0, 0
    tcp = packet.tcp
    udp = packet.udp
    if tcp is not None:
        sport, dport = tcp.sport, tcp.dport
    elif udp is not None:
        sport, dport = udp.sport, udp.dport
    elif packet.is_fragment:
        # Fragments carry raw transport bytes; key them by datagram identity.
        sport = packet.identification
    return (packet.src, packet.dst, packet.effective_protocol, sport, dport)


def _corrupt_payload(packet: IPPacket, rng: random.Random) -> IPPacket | None:
    """Flip one payload bit, freezing the transport checksum at its old value.

    Real link corruption damages bits *after* the checksum was computed, so
    the receiver sees a mismatch and (if it validates) drops the segment.
    Returns None when the packet has nothing corruptible.
    """
    tcp = packet.tcp
    udp = packet.udp
    if tcp is not None and tcp.payload:
        wire = tcp.to_bytes(packet.src, packet.dst)
        stale = struct.unpack("!H", wire[16:18])[0]
        flipped = _flip_bit(tcp.payload, rng)
        return packet.copy(transport=tcp.copy(payload=flipped, checksum=stale), checksum=None)
    if udp is not None and udp.payload:
        wire = udp.to_bytes(packet.src, packet.dst)
        stale = struct.unpack("!H", wire[6:8])[0]
        flipped = _flip_bit(udp.payload, rng)
        return packet.copy(transport=udp.copy(payload=flipped, checksum=stale), checksum=None)
    if isinstance(packet.transport, bytes) and packet.transport:
        return packet.copy(transport=_flip_bit(packet.transport, rng), checksum=None)
    return None


def _corrupt_header(packet: IPPacket, rng: random.Random) -> IPPacket:
    """Freeze the IP header checksum at a (deterministically) wrong value."""
    wrong = rng.randrange(1, 0xFFFF)
    if packet.checksum is not None and wrong == packet.checksum:
        wrong = (wrong + 1) & 0xFFFF or 1
    return packet.copy(checksum=wrong)


def _flip_bit(data: bytes, rng: random.Random) -> bytes:
    index = rng.randrange(len(data))
    bit = 1 << rng.randrange(8)
    corrupted = bytearray(data)
    corrupted[index] ^= bit
    return bytes(corrupted)
