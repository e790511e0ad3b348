"""Differential test: observers never change how packets propagate.

``Path._walk`` coalesces runs of consecutive routers into one TTL
subtraction whatever observers are live, and ``send_batch_from_client``
always batch-encodes.  Every case here runs four times — with no observers,
metrics only, tracer only, and both — and must deliver the same wire bytes
to each endpoint, propagate the same number of frames and leave every
router with the same drop reasons.

Chains mix router runs with a :class:`PacketTap` and a
:class:`MalformedPacketFilter`; TTLs sit just below, at and above the first
router run the packet meets (mid-run expiry, ICMP Time Exceeded injection)
and at 64 (the whole run coalesces).  Crafted packets (IHL or checksum
overrides) must go hop by hop.
"""

from __future__ import annotations

from contextlib import ExitStack

import pytest

from repro import obs
from repro.netsim.clock import VirtualClock
from repro.netsim.element import PacketTap
from repro.netsim.filters import FilterPolicy, MalformedPacketFilter
from repro.netsim.hop import RouterHop
from repro.netsim.path import Path, packets_propagated
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

CLIENT = "10.9.0.2"
SERVER = "203.0.113.77"

#: Element layouts, client side first: ``R`` a validating router, ``r`` a
#: router that skips header validation, ``T`` a tap, ``F`` a filter that
#: drops bad IP headers and data segments without ACK.
CHAINS = ["RRRR", "RRTRRR", "TRRFRRRT", "rrFRRTR", "RFR"]

MODES = ["none", "metrics", "tracer", "both"]

ECHO = b"echo"


def _tcp(flags: TCPFlags, payload: bytes, sport: int = 40_000) -> TCPSegment:
    return TCPSegment(sport=sport, dport=80, seq=1000 + sport, ack=1, flags=flags, payload=payload)


def _variants(src: str, dst: str, ttl: int) -> list[IPPacket]:
    """Fresh pristine and crafted packets (fresh: no memo carries over)."""
    ack_psh = TCPFlags.ACK | TCPFlags.PSH

    def ip(ident: int, transport, **header) -> IPPacket:
        return IPPacket(
            src=src, dst=dst, transport=transport, ttl=ttl, identification=ident, **header
        )

    pristine = ip(7, _tcp(ack_psh, b"ok-sum", 40_006))
    valid_checksum = int.from_bytes(pristine.to_bytes()[10:12], "big")
    return [
        ip(1, _tcp(ack_psh, b"plain", 40_001)),
        ip(2, _tcp(TCPFlags.PSH, b"no-ack", 40_002)),
        ip(3, UDPDatagram(sport=5353, dport=53, payload=b"q")),
        ip(4, _tcp(ack_psh, ECHO, 40_003)),
        ip(5, _tcp(ack_psh, b"ihl-5", 40_004), ihl=5),
        ip(6, _tcp(ack_psh, b"ihl-6", 40_005), ihl=6),
        ip(7, _tcp(ack_psh, b"ok-sum", 40_006), checksum=valid_checksum),
        ip(8, _tcp(ack_psh, b"bad-sum", 40_007), checksum=0),
    ]


class _RecordingEndpoint:
    """Records delivered wire bytes; the server side answers ``echo``."""

    def __init__(self, echo: bool) -> None:
        self.echo = echo
        self.wires: list[bytes] = []

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        self.wires.append(packet.to_bytes())
        transport = packet.transport
        if self.echo and type(transport) is TCPSegment and transport.payload == ECHO:
            reply = TCPSegment(
                sport=transport.dport, dport=transport.sport, flags=TCPFlags.ACK, payload=b"pong"
            )
            return [IPPacket(src=packet.dst, dst=packet.src, transport=reply, ttl=64)]
        return []


def _build(chain: str) -> tuple[Path, list[RouterHop]]:
    policy = FilterPolicy(drop_bad_ip_header=True, drop_missing_ack_flag=True)
    elements = []
    for i, kind in enumerate(chain):
        if kind in "Rr":
            elements.append(RouterHop(f"r{i}", validate_ip_header=kind == "R"))
        elif kind == "T":
            elements.append(PacketTap(f"tap{i}"))
        else:
            elements.append(MalformedPacketFilter(policy, name=f"filter{i}"))
    path = Path(VirtualClock(), elements)
    path.client_endpoint = _RecordingEndpoint(echo=False)
    path.server_endpoint = _RecordingEndpoint(echo=True)
    return path, [e for e in elements if type(e) is RouterHop]


def _first_run(chain: str, direction: Direction) -> int:
    """Length of the first router run a packet meets travelling *direction*."""
    layout = chain if direction is Direction.CLIENT_TO_SERVER else chain[::-1]
    start = next(i for i, kind in enumerate(layout) if kind in "Rr")
    run = 0
    while start + run < len(layout) and layout[start + run] in "Rr":
        run += 1
    return run


def _ttl(chain: str, direction: Direction, offset: int | None) -> int:
    return 64 if offset is None else _first_run(chain, direction) + offset


def _run(chain: str, offset: int | None, mode: str):
    path, routers = _build(chain)
    with ExitStack() as stack:
        metrics = tracer = None
        if mode in ("metrics", "both"):
            metrics = obs_metrics.MetricsRegistry()
            stack.enter_context(obs.installed(METRICS=metrics))
        if mode in ("tracer", "both"):
            tracer = obs_trace.FlowTracer()
            stack.enter_context(obs.installed(TRACER=tracer))
        before = packets_propagated()
        up = _ttl(chain, Direction.CLIENT_TO_SERVER, offset)
        path.send_batch_from_client(_variants(CLIENT, SERVER, up))
        down = _ttl(chain, Direction.SERVER_TO_CLIENT, offset)
        for packet in _variants(SERVER, CLIENT, down):
            path.send_from_server(packet)
        propagated = packets_propagated() - before
    outcome = (
        path.server_endpoint.wires,
        path.client_endpoint.wires,
        propagated,
        {router.name: dict(router.drop_reasons) for router in routers},
    )
    return outcome, metrics, tracer


@pytest.mark.parametrize("offset", [-1, 0, 1, None], ids=["run-1", "run", "run+1", "ttl64"])
@pytest.mark.parametrize("chain", CHAINS)
def test_observers_do_not_change_propagation(chain, offset):
    baseline, _, _ = _run(chain, offset, "none")
    runs = {mode: _run(chain, offset, mode) for mode in MODES[1:]}
    for mode, (outcome, _, _) in runs.items():
        assert outcome == baseline, mode
    # Observers do not disturb each other either.
    traced = [(e.kind, e.fields) for e in runs["tracer"][2].events()]
    assert traced == [(e.kind, e.fields) for e in runs["both"][2].events()]
    assert runs["metrics"][1].counters() == runs["both"][1].counters()


def test_cases_reach_expiry_and_time_exceeded():
    """``ttl == run`` expires on the run's last router and answers with ICMP.

    Nothing else gets through: each endpoint only hears Time Exceeded for
    its own packets.  The two bad headers of each direction fall at the
    first router; the six others expire on the last router of the first
    run (``r1`` upstream; ``r7``, a run of one, downstream) — not on the
    first router of the next run.
    """
    (server_wires, client_wires, _, drops), _, _ = _run("RRTRRRTR", 0, "none")
    assert drops == {
        "r0": {"bad-header": 2},
        "r1": {"ttl-expired": 6},
        "r3": {},
        "r4": {},
        "r5": {},
        "r7": {"bad-header": 2, "ttl-expired": 6},
    }
    for wires in (server_wires, client_wires):
        assert wires
        assert all(IPPacket.from_bytes(wire).effective_protocol == 1 for wire in wires)


def test_batch_sent_packets_reach_taps_wire_warm_under_metrics():
    tap = PacketTap("edge")
    path = Path(VirtualClock(), [tap, RouterHop("r0"), RouterHop("r1")])
    with obs.installed(METRICS=obs_metrics.MetricsRegistry()):
        path.send_batch_from_client(_variants(CLIENT, SERVER, 64))
    assert len(tap.records) == 8
    assert all(record.packet._wire_cache is not None for record in tap.records)
