"""The recorded-traffic format lib·erate replays and transforms.

A :class:`Trace` is an application-layer dialogue: a sequence of payloads
with directions and relative timestamps, plus the transport protocol and
server port.  This corresponds to step (1) of the paper's implementation
(Figure 3): application traffic is recorded once, then replayed — verbatim,
bit-inverted, blinded, or transformed by an evasion technique.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace
from pathlib import Path as FilePath

from repro.endpoint.apps import ReplayStep
from repro.packets.flow import Direction

#: ``bytes.translate`` table mapping every byte value to its complement.
_INVERT = bytes(range(255, -1, -1))


def invert_bits(payload: bytes) -> bytes:
    """Invert every bit of *payload*.

    This is lib·erate's "control" transformation (§5.1): deterministic,
    guaranteed to differ from the recorded trace at every bit, and free of
    the accidental keyword matches random payloads can produce.
    """
    return bytes(payload).translate(_INVERT)


@dataclass(slots=True, frozen=True)
class TracePacket:
    """One application payload in a recorded dialogue.

    Frozen: a transformed trace shares every packet it did not change with
    the trace it came from, so a packet is never assigned to in place.

    Attributes:
        direction: who sent it (client→server or server→client).
        payload: the application bytes.
        time: seconds since the start of the dialogue.
    """

    direction: Direction
    payload: bytes
    time: float = 0.0

    def inverted(self) -> "TracePacket":
        """A copy with every payload bit inverted."""
        return replace(self, payload=invert_bits(self.payload))


@dataclass
class Trace:
    """A recorded application dialogue ready for replay.

    Attributes:
        name: human-readable label ("youtube", "economist.com", ...).
        protocol: "tcp" or "udp".
        server_port: the destination port the application used.
        packets: the dialogue, in time order.
        metadata: free-form annotations (e.g. which program zero-rates it).
    """

    name: str
    protocol: str
    server_port: int
    packets: list[TracePacket] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"unsupported protocol {self.protocol!r}")
        if not 0 < self.server_port <= 0xFFFF:
            raise ValueError(f"invalid server port {self.server_port}")

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def client_payloads(self) -> list[bytes]:
        """The client→server payloads, in order."""
        return [
            p.payload for p in self.packets if p.direction is Direction.CLIENT_TO_SERVER
        ]

    def server_payloads(self) -> list[bytes]:
        """The server→client payloads, in order."""
        return [
            p.payload for p in self.packets if p.direction is Direction.SERVER_TO_CLIENT
        ]

    def client_bytes(self) -> bytes:
        """The concatenated client→server byte stream."""
        return b"".join(self.client_payloads())

    def server_bytes(self) -> bytes:
        """The concatenated server→client byte stream."""
        return b"".join(self.server_payloads())

    def total_bytes(self) -> int:
        """Total application bytes in both directions."""
        return sum(len(p.payload) for p in self.packets)

    def replay_steps(self) -> list[ReplayStep]:
        """Derive the server-side script: respond after N client bytes.

        Each server payload fires once the cumulative client byte count
        reaches what the recording saw before that payload — the same
        content-independent trigger the paper's replay servers use.  The
        script holds one step per distinct threshold, whose response is the
        run of server payloads recorded at that count, so thresholds rise
        strictly and a bulk download is a single step.
        """
        steps: list[ReplayStep] = []
        run: list[bytes] = []
        client_total = 0
        for packet in self.packets:
            if packet.direction is Direction.SERVER_TO_CLIENT:
                run.append(packet.payload)
            elif packet.payload:
                if run:
                    steps.append(ReplayStep(client_total, b"".join(run)))
                    run = []
                client_total += len(packet.payload)
        if run:
            steps.append(ReplayStep(client_total, b"".join(run)))
        return steps

    def udp_response_script(self) -> dict[int, list[bytes]]:
        """Derive the UDP server script: responses keyed by client-datagram index."""
        script: dict[int, list[bytes]] = {}
        client_count = 0
        for packet in self.packets:
            if packet.direction is Direction.CLIENT_TO_SERVER:
                client_count += 1
            else:
                script.setdefault(max(client_count - 1, 0), []).append(packet.payload)
        return script

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def inverted(self) -> "Trace":
        """The bit-inverted control trace (both directions inverted)."""
        return replace(
            self,
            name=f"{self.name}:inverted",
            packets=[p.inverted() for p in self.packets],
        )

    def with_client_payloads(self, payloads: list[bytes], name: str | None = None) -> "Trace":
        """A copy whose client→server payloads are replaced positionally.

        Used by the characterization phase to replay blinded variants; the
        number of client payloads must match the original.
        """
        return replace(
            self,
            name=name or f"{self.name}:blinded",
            packets=self._with_payloads(Direction.CLIENT_TO_SERVER, payloads),
        )

    def with_server_payloads(self, payloads: list[bytes], name: str | None = None) -> "Trace":
        """A copy whose server→client payloads are replaced positionally.

        Characterization uses this to blind server-side content — AT&T's
        classifier matches ``Content-Type: video`` in responses (§6.3).
        """
        return replace(
            self,
            name=name or f"{self.name}:server-blinded",
            packets=self._with_payloads(Direction.SERVER_TO_CLIENT, payloads),
        )

    def _with_payloads(self, direction: Direction, payloads: list[bytes]) -> list[TracePacket]:
        """The packets with *direction*'s payloads replaced positionally.

        A packet whose payload object is unchanged is shared, not copied:
        blinding one byte range of a long download rebuilds one packet.
        """
        indices = [i for i, p in enumerate(self.packets) if p.direction is direction]
        if len(payloads) != len(indices):
            raise ValueError("payload count mismatch")
        packets = list(self.packets)
        for index, payload in zip(indices, payloads):
            if payload is not packets[index].payload:
                packets[index] = replace(packets[index], payload=payload)
        return packets

    def with_server_port(self, port: int) -> "Trace":
        """A copy aimed at a different server port (the port-change evasion)."""
        return replace(self, server_port=port)

    def prepend_client_payloads(self, payloads: list[bytes], name: str | None = None) -> "Trace":
        """A copy with extra client payloads inserted before the dialogue.

        This is the §4.2 probe that reveals packet-position-limited
        classifiers and match-and-forget behaviour.
        """
        prefix = [
            TracePacket(direction=Direction.CLIENT_TO_SERVER, payload=p, time=0.0)
            for p in payloads
        ]
        return replace(
            self, name=name or f"{self.name}:prepended", packets=prefix + list(self.packets)
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a JSON document."""
        return json.dumps(
            {
                "name": self.name,
                "protocol": self.protocol,
                "server_port": self.server_port,
                "metadata": self.metadata,
                "packets": [
                    {
                        "direction": str(p.direction),
                        "time": p.time,
                        "payload": base64.b64encode(p.payload).decode("ascii"),
                    }
                    for p in self.packets
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, document: str) -> "Trace":
        """Parse a trace previously produced by :meth:`to_json`."""
        data = json.loads(document)
        return cls(
            name=data["name"],
            protocol=data["protocol"],
            server_port=data["server_port"],
            metadata=data.get("metadata", {}),
            packets=[
                TracePacket(
                    direction=Direction(p["direction"]),
                    time=p.get("time", 0.0),
                    payload=base64.b64decode(p["payload"]),
                )
                for p in data["packets"]
            ],
        )

    def save(self, path: str | FilePath) -> None:
        """Write the trace to *path* as JSON."""
        FilePath(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | FilePath) -> "Trace":
        """Read a trace from a JSON file."""
        return cls.from_json(FilePath(path).read_text())
