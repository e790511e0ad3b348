"""One replay of a trace through an environment, with full observation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.endpoint.apps import ReliableUDPReplayApp, ReplayServerApp, ReplayStep, UDPReplayApp
from repro.endpoint.osmodel import OSProfile
from repro.endpoint.rawclient import RawTCPClient, RawUDPClient
from repro.endpoint.tcpstack import TCPServerStack
from repro.endpoint.udpstack import UDPServerStack
from repro.envs.base import Environment, SignalType
from repro.middlebox.engine import DPIMiddlebox
from repro.packets.batch import concat_wire_bytes
from repro.packets.tcp import TCPFlags
from repro.replay.runner import ReplayRunner
from repro.traffic.trace import Trace

#: Server payload (bytes) below which a throughput reading is too noisy to
#: call "throttled" — mirrors the paper's ≥2 MB AT&T test flows.
MIN_THROUGHPUT_SAMPLE_BYTES = 50_000


@dataclass
class ReplayOutcome:
    """Everything observable from one replay."""

    env_name: str
    trace_name: str
    technique: str | None
    delivered_ok: bool
    server_response_ok: bool
    content_modified: bool
    differentiated: bool
    blocked: bool
    rst_count: int
    block_page_received: bool
    zero_rated: bool | None
    classification: str | None
    throughput_bps: float | None
    peak_throughput_bps: float | None
    bytes_used: int
    elapsed: float
    inert_reached_server: bool | None
    payload_reached_server: bool = False
    overhead_packets: int = 0
    overhead_bytes: int = 0
    overhead_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def evaded(self) -> bool:
        """True when the technique both dodged the signal and kept integrity."""
        return not self.differentiated and self.delivered_ok and self.server_response_ok


class ReplaySession:
    """Set up and run a single replay of *trace* over *env*.

    Args:
        env: the environment to replay through.
        trace: the recorded dialogue.
        server_port: override the trace's server port (port-change evasion,
            GFC port rotation).
        tolerate_prefix: the replay server ignores unexpected leading bytes
            (models bilateral deployments with server-side support).
        server_os: override the environment's server OS profile.
    """

    def __init__(
        self,
        env: Environment,
        trace: Trace,
        server_port: int | None = None,
        tolerate_prefix: bool = False,
        server_os: OSProfile | None = None,
    ) -> None:
        self.env = env
        self.trace = trace
        self.server_port = server_port if server_port is not None else trace.server_port
        self.tolerate_prefix = tolerate_prefix
        self.server_os = server_os if server_os is not None else env.server_os
        # On a fault-injected path the endpoints run lightweight ARQ; on a
        # reliable path (the default) the packet sequence is unchanged.
        self.reliable = env.reliable_mode
        self.tcp_stack: TCPServerStack | None = None
        self.udp_stack: UDPServerStack | None = None
        self.client: RawTCPClient | RawUDPClient | None = None
        self.sport = 0

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def run(self, technique: Any = None, context: Any = None) -> ReplayOutcome:
        """Replay the trace, optionally transformed by *technique*.

        *technique* must expose ``apply(runner)``; *context* is the
        :class:`~repro.core.evasion.base.EvasionContext` the technique needs
        (matching fields, middlebox distance, ...).
        """
        self.sport = self.env.next_sport()
        script = self._install_server()
        usage_before = (
            self.env.usage_counter.read() if self.env.usage_counter is not None else None
        )
        t0 = self.env.clock.now
        expected_server = b"".join([step.response for step in script])
        runner = self._make_runner(context)
        runner.technique_name = getattr(technique, "name", None)
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "replay.start", t0, env=self.env.name, trace_name=self.trace.name,
                technique=runner.technique_name, proto_name=self.trace.protocol, sport=self.sport,
                dport=self.server_port,
            )

        connect_refused = False
        if self.trace.protocol == "tcp":
            assert isinstance(self.client, RawTCPClient)
            if not self.client.connect():
                connect_refused = True
        if not connect_refused:
            if technique is not None:
                technique.apply(runner)
            else:
                runner.send_default()
            if self.trace.protocol == "tcp":
                assert isinstance(self.client, RawTCPClient)
                if self.reliable:
                    self._traced_arq("flush-unacked", self.client.flush_unacked)
                    self._traced_arq(
                        "repair-server-stream",
                        lambda: self.client.repair_server_stream(len(expected_server)),
                    )
                self.client.close()
            elif self.reliable:
                # Techniques only add inert datagrams around the plain data
                # datagrams, so replaying the recorded dialogue is a faithful
                # repair for technique replays too (classification windows
                # are long exhausted by this point).
                self._repair_udp()

        return self._observe(runner, t0, usage_before, connect_refused, expected_server)

    def _traced_arq(self, stage: str, repair: Any) -> None:
        """Run one ARQ/repair step, bracketing it with trace events.

        The retransmit machinery lives in the raw client; what the trace
        needs is *when* repair ran and how much traffic it cost, so we
        bracket the call and report the packet delta.
        """
        events = obs.EVENTS
        if events is None:
            repair()
            return
        assert isinstance(self.client, (RawTCPClient, RawUDPClient))
        sent_before = len(self.client.collector.packets)
        events.emit(
            "replay.arq.start", self.env.clock.now, env=self.env.name, stage=stage,
            sport=self.sport,
        )
        repair()
        events.emit(
            "replay.arq.done", self.env.clock.now, env=self.env.name, stage=stage,
            sport=self.sport, packets_seen=len(self.client.collector.packets) - sent_before,
        )

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _install_server(self) -> list[ReplayStep]:
        """Install the replay server and client; return the TCP server's script.

        The script's responses, joined, are the server stream the client
        should receive.  A UDP replay has no such script and returns ``[]``.
        """
        if self.trace.protocol == "tcp":
            if self.tolerate_prefix:
                app = _PrefixTolerantReplayApp(self.trace)
            else:
                app = ReplayServerApp(self.trace.replay_steps(), ignore_unmatched=True)
            self.tcp_stack = TCPServerStack(
                self.env.server_addr,
                os_profile=self.server_os,
                app=app,
                retransmit_enabled=self.reliable,
            )
            self.env.path.server_endpoint = self.tcp_stack
            self.client = RawTCPClient(
                self.env.path,
                self.env.client_addr,
                self.env.server_addr,
                sport=self.sport,
                dport=self.server_port,
                reliable=self.reliable,
            )
            return app.steps
        else:
            if self.reliable:
                app = ReliableUDPReplayApp(
                    self.trace.client_payloads(), self.trace.udp_response_script()
                )
            else:
                app = UDPReplayApp(self.trace.udp_response_script())
            self.udp_stack = UDPServerStack(
                self.env.server_addr, os_profile=self.server_os, app=app
            )
            self.env.path.server_endpoint = self.udp_stack
            self.client = RawUDPClient(
                self.env.path,
                self.env.client_addr,
                self.env.server_addr,
                sport=self.sport,
                dport=self.server_port,
                reliable=self.reliable,
            )
            return []

    def _repair_udp(self) -> None:
        """Re-send the whole UDP dialogue until every payload and response got through.

        UDP has no ACKs, so the only repair is replaying the dialogue; the
        reliable replay app is payload-keyed and idempotent, so repeats
        re-trigger lost responses without perturbing the script.
        """
        assert isinstance(self.client, RawUDPClient) and self.udp_stack is not None
        expected_delivered = set(self.trace.client_payloads())
        expected_responses = set(self.trace.server_payloads())
        for attempt in range(3):
            delivered = set(self.udp_stack.delivered_stream(self.sport, self.server_port))
            responses = set(self.client.responses())
            if expected_delivered <= delivered and expected_responses <= responses:
                break
            if obs.EVENTS is not None:
                obs.EVENTS.emit(
                    "replay.arq.udp_round", self.env.clock.now, env=self.env.name, attempt=attempt,
                    missing_payloads=len(expected_delivered - delivered),
                    missing_responses=len(expected_responses - responses),
                )
            for payload in self.trace.client_payloads():
                self.client.send_datagram(payload)

    def _make_runner(self, context: Any) -> ReplayRunner:
        assert self.client is not None
        return ReplayRunner(
            trace=self.trace,
            client=self.client,
            clock=self.env.clock,
            context=context,
        )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _observe(
        self,
        runner: ReplayRunner,
        t0: float,
        usage_before: int | None,
        connect_refused: bool,
        expected_server: bytes,
    ) -> ReplayOutcome:
        elapsed = self.env.clock.now - t0
        expected_client = self.trace.client_bytes()
        total_bytes = self.trace.total_bytes()

        delivered_ok, server_response_ok = False, False
        content_modified = False
        rst_count, block_page = 0, False
        if connect_refused:
            assert isinstance(self.client, RawTCPClient)
            rst_count = len(self.client.collector.rst_packets())
        elif self.trace.protocol == "tcp":
            assert isinstance(self.client, RawTCPClient) and self.tcp_stack is not None
            delivered = self.tcp_stack.stream_for(
                self.env.client_addr, self.sport, self.server_port
            )
            if self.tolerate_prefix:
                delivered_ok = delivered.endswith(expected_client)
            else:
                delivered_ok = delivered == expected_client
            # In-flight rewriting (one of [32]'s differentiation types): the
            # full response arrived, but the bytes differ from the recording.
            server_response_ok, content_modified = self.client.check_server_stream(
                expected_server
            )
            rst_count = sum(
                1
                for p in self.client.collector.rst_packets()
                if p.tcp is not None and p.tcp.dport == self.sport
            )
            block_page = self.client.collector.block_page_seen()
        else:
            assert isinstance(self.client, RawUDPClient) and self.udp_stack is not None
            delivered_list = self.udp_stack.delivered_stream(self.sport, self.server_port)
            expected_list = self.trace.client_payloads()
            # Datagram applications tolerate reordering by design, so delivery
            # integrity for UDP is multiset equality, not sequence equality.
            # On a lossy path with deliberate duplication it weakens further
            # to set equality (every recorded payload arrived at least once).
            if self.reliable:
                delivered_ok = set(delivered_list) == set(expected_list)
                server_response_ok = set(self.client.responses()) == set(
                    self.trace.server_payloads()
                )
            else:
                delivered_ok = sorted(delivered_list) == sorted(expected_list)
                server_response_ok = sorted(self.client.responses()) == sorted(
                    self.trace.server_payloads()
                )

        throughput, peak = self._throughput(expected_server)
        zero_rated = self._zero_rated(usage_before, total_bytes)
        classification = self._classification()
        differentiated = self._differentiated(
            connect_refused, rst_count, block_page, throughput, zero_rated, classification
        )

        inert_reached = None
        if runner.inert_markers:
            inert_reached = self._markers_reached(runner.inert_markers)
        elif runner.sent_inert_rst:
            inert_reached = self._client_rst_reached()
        payload_reached = self._client_payload_reached()

        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "replay.verdict", self.env.clock.now, env=self.env.name,
                trace_name=self.trace.name, technique=runner.technique_name,
                verdict=classification, differentiated=differentiated, delivered_ok=delivered_ok,
                server_response_ok=server_response_ok,
                blocked=connect_refused or rst_count > 0 or block_page, rst_count=rst_count,
            )
        return ReplayOutcome(
            env_name=self.env.name,
            trace_name=self.trace.name,
            technique=runner.technique_name,
            delivered_ok=delivered_ok,
            server_response_ok=server_response_ok,
            content_modified=content_modified,
            differentiated=differentiated,
            blocked=connect_refused or rst_count > 0 or block_page,
            rst_count=rst_count,
            block_page_received=block_page,
            zero_rated=zero_rated,
            classification=classification,
            throughput_bps=throughput,
            peak_throughput_bps=peak,
            bytes_used=total_bytes,
            elapsed=elapsed,
            inert_reached_server=inert_reached,
            payload_reached_server=payload_reached,
            overhead_packets=runner.overhead_packets,
            overhead_bytes=runner.overhead_bytes,
            overhead_seconds=runner.overhead_seconds,
        )

    def _throughput(self, expected_server: bytes) -> tuple[float | None, float | None]:
        if self.trace.protocol != "tcp" or len(expected_server) < MIN_THROUGHPUT_SAMPLE_BYTES:
            return None, None
        assert isinstance(self.client, RawTCPClient)
        samples = self.client.collector.tcp_data_samples(self.env.server_addr)
        if len(samples) < 2:
            return None, None
        start, end = samples[0][0], samples[-1][0]
        total = sum(size for _t, size in samples)
        if end <= start:
            return None, None
        average = total * 8 / (end - start)
        bins: dict[int, int] = {}
        for t, size in samples:
            bins[int((t - start) / 0.1)] = bins.get(int((t - start) / 0.1), 0) + size
        peak = max(bins.values()) * 8 / 0.1
        return average, peak

    def _zero_rated(self, usage_before: int | None, total_bytes: int) -> bool | None:
        if usage_before is None or self.env.usage_counter is None:
            return None
        delta = self.env.usage_counter.read() - usage_before
        return delta < total_bytes * 0.5

    def _classification(self) -> str | None:
        dpi = self.env.dpi()
        if dpi is None:
            return None
        return dpi.classification_of(
            self.env.client_addr, self.sport, self.env.server_addr, self.server_port
        )

    def _differentiated(
        self,
        connect_refused: bool,
        rst_count: int,
        block_page: bool,
        throughput: float | None,
        zero_rated: bool | None,
        classification: str | None,
    ) -> bool:
        signal = self.env.signal
        if signal is SignalType.CLASSIFICATION:
            return classification is not None and classification != "unclassified-final"
        if signal is SignalType.ZERO_RATING:
            return bool(zero_rated)
        if signal is SignalType.THROUGHPUT:
            return throughput is not None and throughput < self.env.throttle_threshold_bps
        if signal is SignalType.RST_INJECTION:
            return connect_refused or rst_count > 0
        if signal is SignalType.BLOCK_PAGE:
            return connect_refused or block_page or rst_count > 0
        return False

    def _client_payload_reached(self) -> bool:
        """True when any client payload packet physically arrived at the server.

        Fragments count: their payload bytes are raw (unparsed transport),
        but they carry application data all the same.
        """
        stacks = [s for s in (self.tcp_stack, self.udp_stack) if s is not None]
        for stack in stacks:
            for packet in stack.raw_arrivals:
                if packet.src != self.env.client_addr:
                    continue
                if packet.app_payload:
                    return True
                if packet.is_fragment and isinstance(packet.transport, bytes) and packet.transport:
                    return True
        return False

    def _client_rst_reached(self) -> bool:
        """True when *our* TTL-limited RST physically arrived at the server.

        Censors inject RSTs spoofed with the client's address; those arrive
        with a near-full TTL (they originate mid-path), while lib·erate's
        TTL-limited RST would arrive nearly expired.  The TTL distinguishes
        them, just as Weaver et al.'s forged-RST detection does.
        """
        if self.tcp_stack is None:
            return False
        return any(
            p.src == self.env.client_addr
            and p.tcp is not None
            and int(p.tcp.flags) & 0x04  # RST
            and p.ttl < 32
            for p in self.tcp_stack.raw_arrivals
        )

    def _markers_reached(self, markers: list[bytes]) -> bool:
        stacks = [s for s in (self.tcp_stack, self.udp_stack) if s is not None]
        arrival_bytes = b"".join(
            concat_wire_bytes(stack.raw_arrivals) for stack in stacks
        )
        return any(marker in arrival_bytes for marker in markers)


class _PrefixTolerantReplayApp(ReplayServerApp):
    """A replay app whose thresholds shift past any unexpected prefix bytes.

    Models server-side support: the server ignores leading dummy data and
    then follows the recorded script.  Triggering stays count-based, but the
    count starts at the first byte that matches the recorded request.
    """

    def __init__(self, trace: Trace) -> None:
        super().__init__(trace.replay_steps(), ignore_unmatched=True)
        self._expected_first = trace.client_bytes()[:1]

    def on_data(self, conn_id, data: bytes) -> bytes:  # noqa: D102 - see class doc
        buffer = self.received.setdefault(conn_id, bytearray())
        if not buffer and self._expected_first:
            # Drop the dummy prefix: skip until the first expected byte.
            index = data.find(self._expected_first)
            if index > 0:
                data = data[index:]
        return super().on_data(conn_id, data)
