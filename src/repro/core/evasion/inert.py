"""Inert packet insertion (Table 3, upper block).

Each technique injects packet(s) carrying innocuous payload immediately
before the matching packet.  A middlebox that processes the inert packet
either locks onto the wrong content (match-and-forget), fails its protocol
anchor, or desynchronizes its stream tracking — while the server never
accepts the inert bytes, so end-to-end integrity is preserved.
"""

from __future__ import annotations

from repro.core.evasion.base import EvasionContext, EvasionTechnique, Overhead, ctx_of
from repro.endpoint.rawclient import SegmentPlan
from repro.packets.options import deprecated_ip_option, invalid_ip_option
from repro.packets.tcp import TCPFlags
from repro.replay.runner import ReplayRunner

INERT_PAYLOAD_SIZE = 64


class InertTCPTechnique(EvasionTechnique):
    """Base class: inject inert TCP packets before the matching message."""

    category = "inert-insertion"
    protocol = "tcp"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:
        """Subclasses mutate *plan* to make the packet inert."""
        raise NotImplementedError

    def apply(self, runner: ReplayRunner) -> None:
        """Send the trace with inert packets inserted before the match."""
        ctx = ctx_of(runner)
        target = ctx.target_message_index()
        for index, message in enumerate(runner.client_messages):
            if index == target:
                for _ in range(max(ctx.inert_packet_count, 1)):
                    plan = SegmentPlan(payload=runner.inert_payload(INERT_PAYLOAD_SIZE, self.name))
                    self.plan_overrides(ctx, plan)
                    runner.send_inert(plan)
            runner.send_message(message)

    def estimated_overhead(self, ctx: EvasionContext) -> Overhead:
        """k inert packets per flow."""
        k = max(ctx.inert_packet_count, 1)
        return Overhead(packets=k, bytes=k * (INERT_PAYLOAD_SIZE + 40))


class LowTTLInert(InertTCPTechnique):
    """IP: TTL large enough to cross the classifier, too small for the server."""

    name = "ip-low-ttl"
    protocol = "any"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ttl = ctx.ttl_to_reach_classifier()

    def apply(self, runner: ReplayRunner) -> None:
        """TCP and UDP variants share the TTL trick."""
        if runner.trace.protocol == "udp":
            ctx = ctx_of(runner)
            target = ctx.target_message_index()
            for index, message in enumerate(runner.client_messages):
                if index == target:
                    runner.send_inert_datagram(
                        runner.inert_payload(INERT_PAYLOAD_SIZE, self.name),
                        ttl=ctx.ttl_to_reach_classifier(),
                    )
                runner.send_datagram(message)
            return
        super().apply(runner)


class InvalidIPVersion(InertTCPTechnique):
    """IP: version field set to 6 on an IPv4 packet."""

    name = "ip-invalid-version"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_version = 6


class InvalidIPHeaderLength(InertTCPTechnique):
    """IP: IHL below the 20-byte minimum."""

    name = "ip-invalid-ihl"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_ihl = 3


class TotalLengthLong(InertTCPTechnique):
    """IP: total length claims more bytes than are on the wire."""

    name = "ip-length-long"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_total_length_delta = 400


class TotalLengthShort(InertTCPTechnique):
    """IP: total length claims fewer bytes than are on the wire."""

    name = "ip-length-short"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_total_length_delta = -24


class WrongProtocol(InertTCPTechnique):
    """IP: an unassigned protocol number wraps a valid TCP payload."""

    name = "ip-wrong-protocol"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_protocol = 0xFD


class WrongIPChecksum(InertTCPTechnique):
    """IP: corrupted header checksum."""

    name = "ip-wrong-checksum"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_checksum = 0xBEEF


class InvalidIPOptions(InertTCPTechnique):
    """IP: structurally malformed option list."""

    name = "ip-invalid-options"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_options = invalid_ip_option()


class DeprecatedIPOptions(InertTCPTechnique):
    """IP: a valid but RFC-6814-deprecated Stream ID option."""

    name = "ip-deprecated-options"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.ip_options = deprecated_ip_option()


class WrongTCPSequence(InertTCPTechnique):
    """TCP: sequence number far outside the window."""

    name = "tcp-wrong-seq"

    def apply(self, runner: ReplayRunner) -> None:
        """Needs the live connection state, so overrides apply()."""
        ctx = ctx_of(runner)
        target = ctx.target_message_index()
        for index, message in enumerate(runner.client_messages):
            if index == target:
                tcp = runner.client
                wild_seq = (tcp.next_seq + 0x30000000) & 0xFFFFFFFF  # type: ignore[union-attr]
                for _ in range(max(ctx.inert_packet_count, 1)):
                    runner.send_inert(
                        SegmentPlan(
                            payload=runner.inert_payload(INERT_PAYLOAD_SIZE, self.name),
                            seq=wild_seq,
                        )
                    )
            runner.send_message(message)

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        raise AssertionError("apply() is overridden")


class WrongTCPChecksum(InertTCPTechnique):
    """TCP: corrupted transport checksum."""

    name = "tcp-wrong-checksum"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.tcp_checksum = 0xDEAD


class NoACKFlag(InertTCPTechnique):
    """TCP: established-state data without the ACK flag."""

    name = "tcp-no-ack-flag"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.flags = TCPFlags.PSH


class InvalidDataOffset(InertTCPTechnique):
    """TCP: data offset pointing past the real header."""

    name = "tcp-invalid-data-offset"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.data_offset = 15


class InvalidFlagCombination(InertTCPTechnique):
    """TCP: SYN and FIN lit together."""

    name = "tcp-invalid-flags"

    def plan_overrides(self, ctx: EvasionContext, plan: SegmentPlan) -> None:  # noqa: D102
        plan.flags = TCPFlags.SYN | TCPFlags.FIN | TCPFlags.ACK


class InertUDPTechnique(EvasionTechnique):
    """Base class: inject one inert datagram before the matching datagram."""

    category = "inert-insertion"
    protocol = "udp"
    checksum: int | None = None
    length_delta: int | None = None

    def apply(self, runner: ReplayRunner) -> None:
        """Send the trace with an inert datagram before the match."""
        ctx = ctx_of(runner)
        target = ctx.target_message_index()
        for index, message in enumerate(runner.client_messages):
            if index == target:
                runner.send_inert_datagram(
                    runner.inert_payload(INERT_PAYLOAD_SIZE, self.name),
                    checksum=self.checksum,
                    length_delta=self.length_delta,
                )
            runner.send_datagram(message)

    def estimated_overhead(self, ctx: EvasionContext) -> Overhead:
        """One inert datagram per flow."""
        return Overhead(packets=1, bytes=INERT_PAYLOAD_SIZE + 28)


class UDPInvalidChecksum(InertUDPTechnique):
    """UDP: corrupted checksum."""

    name = "udp-invalid-checksum"
    checksum = 0xDEAD


class UDPLengthLong(InertUDPTechnique):
    """UDP: declared length exceeds the payload."""

    name = "udp-length-long"
    length_delta = 32


class UDPLengthShort(InertUDPTechnique):
    """UDP: declared length understates the payload."""

    name = "udp-length-short"
    length_delta = -16
