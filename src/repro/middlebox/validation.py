"""Which anomalous packets a middlebox classifier processes vs. ignores.

The key insight of the paper is that middleboxes have *incomplete*
implementations of the network and transport layers: the testbed device
checked almost nothing, the GFC did extensive validation, T-Mobile and Iran
checked partially.  A check set to True here means "the middlebox validates
this and ignores packets that fail" — the packet is still forwarded, it just
doesn't feed the classifier, which is exactly what makes (or breaks) each
inert-packet evasion technique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram


def ip_structurally_sound(packet: IPPacket) -> bool:
    """The IP checks every classifier needs just to locate the payload:
    version 4, a consistent IHL, and no truncating total length."""
    if packet.version != 4:
        return False
    if packet.ihl is not None and not packet.has_valid_ihl():
        return False
    return packet.total_length is None or not packet.total_length_too_short()


def tcp_structurally_sound(
    packet: IPPacket, segment: TCPSegment, expected_seq: int | None
) -> bool:
    """The TCP check every classifier needs to locate the payload: a data
    offset that matches the header (only an explicit offset can differ)."""
    return segment.data_offset is None or segment.has_valid_data_offset()


@dataclass(frozen=True)
class MiddleboxValidation:
    """Validation checks a middlebox applies before inspecting a packet.

    The structural checks every implementation needs just to find the
    payload (IP version, IHL, truncated total length, TCP data offset) are
    always enforced; the rest are configurable per profile.
    """

    require_valid_ip_checksum: bool = False
    require_length_not_long: bool = False  # ignore packets whose declared length overshoots
    require_wellformed_ip_options: bool = False
    reject_deprecated_ip_options: bool = False
    require_valid_tcp_checksum: bool = False
    require_in_window_seq: bool = False
    require_ack_flag: bool = False
    require_valid_flag_combo: bool = False
    require_valid_udp_checksum: bool = False
    require_valid_udp_length: bool = False

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def ip_inspectable(self, packet: IPPacket) -> bool:
        """Can/will the classifier look inside this IP packet at all?"""
        if not ip_structurally_sound(packet):
            return False
        if self.require_length_not_long and packet.total_length_too_long():
            return False
        if self.require_valid_ip_checksum and not packet.has_valid_checksum():
            return False
        if packet.padded_options:
            if self.require_wellformed_ip_options and not packet.has_wellformed_options():
                return False
            if self.reject_deprecated_ip_options and packet.has_deprecated_options():
                return False
        return True

    def tcp_inspectable(
        self, packet: IPPacket, segment: TCPSegment, expected_seq: int | None
    ) -> bool:
        """Will the classifier feed this TCP segment to its matcher?

        *expected_seq* is the middlebox's view of the flow's next sequence
        number (None when it keeps no stream state).
        """
        if not tcp_structurally_sound(packet, segment, expected_seq):
            return False
        if self.require_valid_tcp_checksum and not segment.verify_checksum(packet.src, packet.dst):
            return False
        if self.require_valid_flag_combo and not segment.flags.is_valid_combination():
            return False
        if self.require_ack_flag:
            established_data = segment.payload and not segment.flags & (
                TCPFlags.SYN | TCPFlags.RST
            )
            if established_data and not segment.flags & TCPFlags.ACK:
                return False
        if self.require_in_window_seq and expected_seq is not None and segment.payload:
            distance = (segment.seq - expected_seq) & 0xFFFFFFFF
            reverse = (expected_seq - segment.seq) & 0xFFFFFFFF
            if min(distance, reverse) > (1 << 20):
                return False
        return True

    def udp_inspectable(self, packet: IPPacket, datagram: UDPDatagram) -> bool:
        """Will the classifier feed this UDP datagram to its matcher?"""
        if self.require_valid_udp_checksum and not datagram.verify_checksum(
            packet.src, packet.dst
        ):
            return False
        if self.require_valid_udp_length and not datagram.has_valid_length():
            return False
        return True

    # ------------------------------------------------------------------
    # the checks a profile actually runs, resolved once per engine
    # ------------------------------------------------------------------
    def ip_check(self) -> Callable[[IPPacket], bool]:
        """:meth:`ip_inspectable`, or only the structural checks when no IP
        knob is set."""
        if (
            self.require_length_not_long
            or self.require_valid_ip_checksum
            or self.require_wellformed_ip_options
            or self.reject_deprecated_ip_options
        ):
            return self.ip_inspectable
        return ip_structurally_sound

    def tcp_check(self) -> Callable[[IPPacket, TCPSegment, int | None], bool]:
        """:meth:`tcp_inspectable`, or only the data-offset check when no TCP
        knob is set."""
        if (
            self.require_valid_tcp_checksum
            or self.require_valid_flag_combo
            or self.require_ack_flag
            or self.require_in_window_seq
        ):
            return self.tcp_inspectable
        return tcp_structurally_sound

    def udp_check(self) -> Callable[[IPPacket, UDPDatagram], bool] | None:
        """:meth:`udp_inspectable`, or None when it accepts every datagram."""
        if self.require_valid_udp_checksum or self.require_valid_udp_length:
            return self.udp_inspectable
        return None

    # ------------------------------------------------------------------
    # canonical profiles (paper §6)
    # ------------------------------------------------------------------
    @classmethod
    def lax(cls) -> "MiddleboxValidation":
        """The testbed device: accepts nearly any malformed packet."""
        return cls()

    @classmethod
    def extensive(cls) -> "MiddleboxValidation":
        """The GFC: validates everything except the TCP checksum and ACK flag."""
        return cls(
            require_valid_ip_checksum=True,
            require_length_not_long=True,
            require_wellformed_ip_options=True,
            reject_deprecated_ip_options=True,
            require_valid_tcp_checksum=False,
            require_in_window_seq=True,
            require_ack_flag=False,
            require_valid_flag_combo=True,
            require_valid_udp_checksum=False,
            require_valid_udp_length=True,
        )

    @classmethod
    def partial_tmobile(cls) -> "MiddleboxValidation":
        """T-Mobile: validates the transport layer but not IP options."""
        return cls(
            require_valid_ip_checksum=True,
            require_length_not_long=True,
            require_wellformed_ip_options=False,
            reject_deprecated_ip_options=False,
            require_valid_tcp_checksum=True,
            require_in_window_seq=True,
            require_ack_flag=True,
            require_valid_flag_combo=True,
            require_valid_udp_checksum=True,
            require_valid_udp_length=True,
        )

    @classmethod
    def partial_iran(cls) -> "MiddleboxValidation":
        """Iran: processes even invalid packets, as long as it can find payload."""
        return cls()
