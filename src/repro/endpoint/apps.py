"""Server applications that run on top of the endpoint stacks.

The replay applications mirror the paper's replay server: they follow the
*recorded script* — emitting the recorded server-side bytes once the expected
amount of client data has arrived — regardless of the bytes' content, so
bit-inverted control replays behave exactly like the original ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.packets.flow import FiveTuple


class EchoApp:
    """A TCP app that echoes every delivered byte back to the client."""

    def on_connect(self, conn_id: FiveTuple) -> None:
        """No per-connection setup needed."""

    def on_data(self, conn_id: FiveTuple, data: bytes) -> bytes:
        """Echo the data verbatim."""
        return data


@dataclass
class ReplayStep:
    """One step of a recorded TCP dialogue.

    :meth:`~repro.traffic.trace.Trace.replay_steps` emits one step per
    distinct threshold, so a script's thresholds rise strictly.

    Attributes:
        client_bytes_threshold: cumulative client bytes after which the
            response fires.
        response: the server bytes to emit at that point — every server
            payload recorded at that client byte count, joined.
    """

    client_bytes_threshold: int
    response: bytes


class ReplayServerApp:
    """Replays the server side of a recorded TCP trace.

    Responses are triggered by cumulative byte *count*, not content, matching
    the paper's replay servers (which must also serve bit-inverted and
    blinded variants of the trace).

    Args:
        steps: the recorded dialogue.
        ignore_unmatched: when True, extra client bytes beyond the script are
            tolerated (the bilateral "server-side support" deployments where
            dummy prefix data is ignored).
    """

    def __init__(self, steps: list[ReplayStep], ignore_unmatched: bool = True) -> None:
        self.steps = list(steps)
        self.ignore_unmatched = ignore_unmatched
        self._progress: dict[FiveTuple, tuple[int, int]] = {}  # conn -> (bytes, next step)
        self.received: dict[FiveTuple, bytearray] = {}

    def on_connect(self, conn_id: FiveTuple) -> None:
        """Start a fresh script position for the connection."""
        self._progress[conn_id] = (0, 0)
        self.received[conn_id] = bytearray()

    def on_data(self, conn_id: FiveTuple, data: bytes) -> bytes:
        """Advance the script; return the responses of the steps that fire.

        A single fired step's response is returned as it is, not copied.
        """
        total, first = self._progress.get(conn_id, (0, 0))
        self.received.setdefault(conn_id, bytearray()).extend(data)
        total += len(data)
        steps = self.steps
        end = first
        while end < len(steps) and total >= steps[end].client_bytes_threshold:
            end += 1
        self._progress[conn_id] = (total, end)
        if end - first == 1:
            return steps[first].response
        return b"".join([step.response for step in steps[first:end]])

    def stream(self, conn_id: FiveTuple) -> bytes:
        """All client bytes received on one connection."""
        return bytes(self.received.get(conn_id, b""))

    def reset(self) -> None:
        """Forget all connections."""
        self._progress.clear()
        self.received.clear()


class UDPReplayApp:
    """Replays the server side of a recorded UDP trace.

    Each recorded client datagram (by arrival index) may trigger response
    payloads.  Triggering is positional, not content-based, for the same
    reason as :class:`ReplayServerApp`.
    """

    def __init__(self, responses_by_index: dict[int, list[bytes]] | None = None) -> None:
        self.responses_by_index = dict(responses_by_index or {})
        self.received: list[bytes] = []

    def on_datagram(self, src: str, sport: int, dport: int, data: bytes) -> list[bytes]:
        """Record the datagram and emit any scripted responses for its index."""
        index = len(self.received)
        self.received.append(data)
        return list(self.responses_by_index.get(index, []))

    def reset(self) -> None:
        """Forget received datagrams."""
        self.received.clear()


class ReliableUDPReplayApp:
    """Payload-keyed, idempotent variant of :class:`UDPReplayApp`.

    On a lossy path the arrival *index* no longer identifies a datagram
    (losses shift it, duplicates repeat it), so this variant matches each
    arrival against the recorded client payloads instead.  Duplicates replay
    the same scripted responses — a lost response is recovered by the
    sender's duplicate copy.
    """

    def __init__(
        self,
        expected_payloads: list[bytes],
        responses_by_index: dict[int, list[bytes]] | None = None,
    ) -> None:
        self.expected = list(expected_payloads)
        self.responses_by_index = dict(responses_by_index or {})
        self.received: list[bytes] = []
        self._consumed = [False] * len(self.expected)
        self._replayable: dict[bytes, list[bytes]] = {}

    def on_datagram(self, src: str, sport: int, dport: int, data: bytes) -> list[bytes]:
        """Record the datagram; emit responses for its recorded position."""
        self.received.append(data)
        for index, expected in enumerate(self.expected):
            if not self._consumed[index] and expected == data:
                self._consumed[index] = True
                responses = list(self.responses_by_index.get(index, []))
                if responses:
                    self._replayable[data] = responses
                return responses
        return list(self._replayable.get(data, []))

    def reset(self) -> None:
        """Forget received datagrams and script progress."""
        self.received.clear()
        self._consumed = [False] * len(self.expected)
        self._replayable.clear()


@dataclass
class HTTPSite:
    """Static content served for one host."""

    pages: dict[str, tuple[str, bytes]] = field(default_factory=dict)  # path -> (ctype, body)


class HTTPServerApp:
    """A tiny HTTP/1.1 server used by the examples and the AT&T scenario.

    Parses pipelined GET requests from the delivered stream and serves the
    configured sites.  Responses carry a Content-Type header — which the
    AT&T Stream Saver classifier matches on (``Content-Type: video``).
    """

    def __init__(self, sites: dict[str, HTTPSite] | None = None) -> None:
        self.sites = dict(sites or {})
        self._buffers: dict[FiveTuple, bytearray] = {}
        self.requests_served = 0

    def add_page(self, host: str, path: str, content_type: str, body: bytes) -> None:
        """Register a page on *host* at *path*."""
        self.sites.setdefault(host, HTTPSite()).pages[path] = (content_type, body)

    def on_connect(self, conn_id: FiveTuple) -> None:
        """Start a fresh request buffer."""
        self._buffers[conn_id] = bytearray()

    def on_data(self, conn_id: FiveTuple, data: bytes) -> bytes:
        """Parse complete requests out of the buffer; return their responses."""
        buffer = self._buffers.setdefault(conn_id, bytearray())
        buffer.extend(data)
        out = bytearray()
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                break
            request = bytes(buffer[: end + 4])
            del buffer[: end + 4]
            out.extend(self._respond(request))
        return bytes(out)

    def _respond(self, request: bytes) -> bytes:
        try:
            request_line = request.split(b"\r\n", 1)[0].decode("latin-1")
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            return b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
        host = ""
        for line in request.split(b"\r\n")[1:]:
            if line.lower().startswith(b"host:"):
                host = line.split(b":", 1)[1].strip().decode("latin-1")
                break
        site = self.sites.get(host)
        if method != "GET" or site is None or path not in site.pages:
            return b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
        content_type, body = site.pages[path]
        self.requests_served += 1
        header = (
            f"HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        return header + body

    def reset(self) -> None:
        """Forget buffered request fragments."""
        self._buffers.clear()
        self.requests_served = 0
