"""Per-flow classifier state kept by the DPI engine."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.middlebox.ruleindex import CompiledView, StreamScan
from repro.middlebox.rules import MatchRule
from repro.packets.flow import FiveTuple

#: Sentinel verdict: the inspection window was exhausted without a match and
#: the classifier has moved on ("match and forget" of a non-match).
UNCLASSIFIED_FINAL = "unclassified-final"


@dataclass(slots=True)
class FlowState:
    """Everything the classifier remembers about one flow.

    Attributes:
        client_tuple: the five-tuple as seen from the client side (the SYN
            sender, or the first UDP packet's sender).
        normalized: the direction-independent flow-table key.
        protocol / server_port: the flow's inspection context ("tcp" or
            "udp", the server's port); constant for the flow's lifetime.
        created_at / last_packet_time: clock readings; the engine's idle
            expiry compares ``last_packet_time`` with the flow's timeout.
        lane: the engine's idle-expiry lane for the flow's timeout class
            (pre-match, post-match or RST override).
        stamp: the engine's recency stamp, from a counter that rises on
            every tracked packet (set at creation and on each later packet
            of the flow); stamps rise along each lane, so the lane head
            with the smallest stamp is the least recently active flow, the
            capacity and byte-budget eviction victim.
        seq: the stamp the flow was created with; stale flows flush in
            ``seq`` order, the order of the engine's flow table.
        cost: the flow's appraised heap bytes under a ``flow_byte_budget``
            (0 without one); the engine keeps their sum.
        verdict: None while inspecting, a :class:`MatchRule` after a match,
            or :data:`UNCLASSIFIED_FINAL` once the window closed.
        match_time: when the verdict was reached.
        client_packets / server_packets: payload-carrying packets counted in
            each direction (inspection-window accounting).
        client_buffer / server_buffer: the bytes fed to the matcher so far
            (stream modes; the server buffer stays empty while no rule reads
            the server direction).
        expected_seq: stream-tracking position for in-order / full modes.
        ooo_segments: out-of-order segments buffered in FULL mode.
        anchor_ok: None before the anchor check, then its boolean result.
        blocked: True once a blocking policy fired for the flow.
        timeout_override: when set, replaces both flush timeouts (the
            testbed shortens its timeout to 10 s after seeing a RST).
        client_scan / server_scan: incremental multi-pattern scan state over
            the corresponding buffer (stream reassembly modes only; the
            server scan stays None while no rule reads the server direction).
        client_view / server_view: the compiled rule view for each
            direction, resolved on the client's first scan and the server's
            first payload (None until then, and again after the engine's
            rules change).
    """

    client_tuple: FiveTuple
    normalized: FiveTuple
    protocol: str
    server_port: int
    created_at: float
    last_packet_time: float
    lane: OrderedDict[FiveTuple, FlowState]
    stamp: int
    seq: int
    cost: int = 0
    verdict: MatchRule | str | None = None
    match_time: float | None = None
    client_packets: int = 0
    server_packets: int = 0
    client_buffer: bytearray = field(default_factory=bytearray)
    server_buffer: bytearray = field(default_factory=bytearray)
    expected_seq: int | None = None
    ooo_segments: dict[int, bytes] = field(default_factory=dict)
    anchor_ok: bool | None = None
    blocked: bool = False
    timeout_override: float | None = None
    client_scan: StreamScan | None = None
    server_scan: StreamScan | None = None
    client_view: CompiledView | None = None
    server_view: CompiledView | None = None

    @property
    def matched_rule(self) -> MatchRule | None:
        """The matched rule, or None for unclassified / window-closed flows."""
        return self.verdict if isinstance(self.verdict, MatchRule) else None
