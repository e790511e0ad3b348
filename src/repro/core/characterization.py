"""Phase 2: classifier characterization (§4.2, §5.1).

Two instruments:

* **blinding** — recursive binary search over payload bytes, inverting the
  bits of candidate regions; a region whose blinding removes differentiation
  contains matching-field bytes.  Recursion continues to byte granularity,
  producing the exact matching fields.
* **prepend probing** — insert random payload packets before the matching
  packet: the smallest count that changes classification reveals the
  classifier's position sensitivity; repeating with 1-byte packets instead
  of MTU-sized ones distinguishes packet-count limits from byte limits.
  Never changing within the threshold (10, from §5.1) means the classifier
  inspects every packet (Iran).
"""

from __future__ import annotations

import random

from repro.core.report import CharacterizationReport, MatchingField
from repro.envs.base import Environment
from repro.replay.session import ReplaySession
from repro.traffic.trace import Trace, invert_bits

MTU = 1460

#: §5.1: stop prepending and conclude "inspects all packets" at this count.
DEFAULT_PREPEND_THRESHOLD = 10


class CharacterizationError(RuntimeError):
    """The baseline behaviour is inconsistent (e.g. no differentiation)."""


class Characterizer:
    """Reverse-engineers the classifier rule affecting *trace* in *env*.

    Args:
        env: the environment under test.
        trace: a recorded dialogue known (or suspected) to be differentiated.
        rotate_ports: use a fresh server port for every replay, dodging
            residual server:port blocking (defaults to the environment's
            known requirement; the GFC needs this — §6.5).
        prepend_threshold: give up on position probing after this many
            prepended packets.
        granularity: smallest blinding region (1 = byte-exact fields).
        trials: replay repetition for noisy (fault-injected) networks.  1
            (the default) replays each probe once — the historical
            behaviour.  Greater than 1 repeats each probe until one verdict
            leads by two trials (re-probing inconsistent rounds), so the
            blinding binary search converges under packet loss.
    """

    def __init__(
        self,
        env: Environment,
        trace: Trace,
        rotate_ports: bool | None = None,
        prepend_threshold: int = DEFAULT_PREPEND_THRESHOLD,
        granularity: int = 1,
        blind_mode: str = "invert",
        trials: int = 1,
    ) -> None:
        if blind_mode not in ("invert", "random"):
            raise ValueError(f"unknown blind mode {blind_mode!r}")
        self.env = env
        self.trace = trace
        self.rotate_ports = env.needs_port_rotation if rotate_ports is None else rotate_ports
        self.prepend_threshold = prepend_threshold
        self.granularity = max(granularity, 1)
        self.blind_mode = blind_mode
        self.trials = max(trials, 1)
        self.rounds = 0
        self.bytes_used = 0
        self.inconsistent_rounds = 0
        self._port_counter = trace.server_port
        self._rng = random.Random(0x11BE7A7E)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, include_server_side: bool = True) -> CharacterizationReport:
        """Full characterization: matching fields plus position limits.

        When *include_server_side* is set, server→client payloads are also
        blinded (packet granularity, then bisection) — this is how the
        paper discovered AT&T matching ``Content-Type: video`` in responses.
        """
        fields = self.find_matching_fields()
        report = self.probe_position_limits()
        report.matching_fields = fields
        if include_server_side:
            server_fields = self.find_server_side_fields()
            if server_fields:
                report.notes.append(
                    "server-to-client payloads also used for classification: "
                    + ", ".join(str(f) for f in server_fields)
                )
                report.server_side_fields = server_fields
        report.rounds = self.rounds
        report.bytes_used = self.bytes_used
        report.port_rotation_used = self.rotate_ports
        if self.inconsistent_rounds:
            report.notes.append(
                f"{self.inconsistent_rounds} probe(s) returned inconsistent "
                "verdicts across trials and were re-probed (lossy path)"
            )
        return report

    def find_server_side_fields(self, scan_limit: int = 3) -> list[MatchingField]:
        """Blind server payloads to find response-side matching fields.

        Only the first *scan_limit* server payloads are scanned — response
        headers (the realistic match surface) arrive first, and scanning a
        whole video body would cost hundreds of replays.
        """
        payloads = self.trace.server_payloads()
        fields: list[MatchingField] = []
        for index, payload in enumerate(payloads[:scan_limit]):
            if not payload:
                continue
            if self._replay(server_blind=[(index, 0, len(payload))]):
                continue
            positions = self._bisect(index, 0, len(payload), side="server")
            fields.extend(self._merge(index, payload, positions))
        return fields

    def find_matching_fields(self) -> list[MatchingField]:
        """Binary-search blinding down to byte-exact matching fields."""
        if not self._replay():
            raise CharacterizationError("baseline replay is not differentiated")
        payloads = self.trace.client_payloads()
        if self._replay([(i, 0, len(p)) for i, p in enumerate(payloads) if p]):
            # §5.1 footnote: bit inversion itself can be detected by an
            # adversarial middlebox — fall back to randomized blinding once
            # before giving up.
            if self.blind_mode == "invert":
                self.blind_mode = "random"
                if not self._replay([(i, 0, len(p)) for i, p in enumerate(payloads) if p]):
                    return self.find_matching_fields()
                self.blind_mode = "invert"
            raise CharacterizationError(
                "fully blinded control is still differentiated; trigger is not "
                "client payload content"
            )
        fields: list[MatchingField] = []
        for index, payload in enumerate(payloads):
            if not payload:
                continue
            if self._replay([(index, 0, len(payload))]):
                continue  # blinding this whole packet changes nothing
            positions = self._bisect(index, 0, len(payload))
            fields.extend(self._merge(index, payload, positions))
        if fields:
            # Verification round: blinding exactly the discovered fields must
            # remove differentiation (guards the bisection's AND-semantics
            # assumption; see _bisect).
            if self._replay([(f.packet_index, f.start, f.end) for f in fields]):
                raise CharacterizationError(
                    "discovered fields do not explain classification "
                    "(redundant alternative rules?)"
                )
        return fields

    def probe_position_limits(self) -> CharacterizationReport:
        """Prepend probing: position sensitivity and packet-vs-byte limits."""
        report = CharacterizationReport()
        sensitivity: int | None = None
        for count in range(1, self.prepend_threshold + 1):
            filler = [self._random_payload(MTU) for _ in range(count)]
            if not self._replay(prepend=filler):
                sensitivity = count
                break
        report.prepend_sensitivity = sensitivity
        if sensitivity is None:
            report.inspects_all_packets = True
            report.match_and_forget = False
            report.packet_limit = None
            report.notes.append(
                f"classification unchanged after {self.prepend_threshold} prepended "
                "packets: the classifier inspects every packet"
            )
            return report
        # Distinguish packet-count limits from byte limits (§5.1): replace the
        # MTU-sized filler with 1-byte packets.
        tiny = [self._random_payload(1) for _ in range(sensitivity)]
        if not self._replay(prepend=tiny):
            report.limit_is_packet_based = True
            report.packet_limit = sensitivity
            report.notes.append(f"packet-based inspection limit at {sensitivity} packet(s)")
        else:
            report.limit_is_packet_based = False
            report.packet_limit = sensitivity
            report.notes.append(f"byte-based limit of at most {sensitivity} * MTU bytes")
        report.inspects_all_packets = False
        report.match_and_forget = True
        return report

    # ------------------------------------------------------------------
    # replay plumbing
    # ------------------------------------------------------------------
    def _replay(
        self,
        blind: list[tuple[int, int, int]] | None = None,
        prepend: list[bytes] | None = None,
        server_blind: list[tuple[int, int, int]] | None = None,
    ) -> bool:
        """One characterization probe; returns whether it was differentiated.

        With ``trials`` > 1 the probe repeats until one verdict leads by two
        trials (within a small budget) — a lost probe packet then reads as a
        one-off disagreement that gets re-probed instead of sending the
        binary search down the wrong branch.
        """
        if self.trials <= 1:
            return self._replay_once(blind, prepend, server_blind)
        votes_true = 0
        votes_false = 0
        budget = self.trials + 4
        while votes_true + votes_false < budget:
            if self._replay_once(blind, prepend, server_blind):
                votes_true += 1
            else:
                votes_false += 1
            done = votes_true + votes_false
            if done >= min(self.trials, 2) and abs(votes_true - votes_false) >= 2:
                break
        if votes_true and votes_false:
            self.inconsistent_rounds += 1
        return votes_true > votes_false

    def _replay_once(
        self,
        blind: list[tuple[int, int, int]] | None = None,
        prepend: list[bytes] | None = None,
        server_blind: list[tuple[int, int, int]] | None = None,
    ) -> bool:
        """One characterization round; returns whether it was differentiated."""
        trace = self.trace
        if blind:
            payloads = list(trace.client_payloads())
            for index, start, end in blind:
                payload = payloads[index]
                payloads[index] = (
                    payload[:start] + self._blind_bytes(payload[start:end]) + payload[end:]
                )
            trace = trace.with_client_payloads(payloads)
        if server_blind:
            payloads = list(trace.server_payloads())
            for index, start, end in server_blind:
                payload = payloads[index]
                payloads[index] = (
                    payload[:start] + self._blind_bytes(payload[start:end]) + payload[end:]
                )
            trace = trace.with_server_payloads(payloads)
        if prepend:
            trace = trace.prepend_client_payloads(prepend)
        port = trace.server_port
        if self.rotate_ports:
            self._port_counter += 1
            port = 8000 + (self._port_counter % 20_000)
        outcome = ReplaySession(self.env, trace, server_port=port).run()
        self.rounds += 1
        self.bytes_used += outcome.bytes_used
        return outcome.differentiated

    def _random_payload(self, size: int) -> bytes:
        # ``randrange(256)`` keeps the top 9 bits of a 32-bit word when they
        # are below 256 (top byte < 128).  A word yields at most one byte, so
        # drawing exactly the words still needed gives the same bytes and
        # generator state as ``size`` calls.
        out = b""
        while len(out) < size:
            need = size - len(out)
            words = self._rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            out += bytes(
                hi * 2 + (lo >> 7) for lo, hi in zip(words[2::4], words[3::4]) if hi < 128
            )
        return out

    def _blind_bytes(self, data: bytes) -> bytes:
        """Destroy *data* per the active blinding mode.

        Inversion is deterministic (the default); randomization is the
        fallback when a middlebox detects inverted traffic (§5.1 footnote).
        """
        if self.blind_mode == "random":
            return self._random_payload(len(data))
        return invert_bits(data)

    # ------------------------------------------------------------------
    # bisection
    # ------------------------------------------------------------------
    def _bisect(self, index: int, lo: int, hi: int, side: str = "client") -> list[int]:
        """Byte positions within [lo, hi) whose blinding breaks classification.

        Precondition: blinding the whole of [lo, hi) breaks classification.
        Tests the left half; when it does not break, the right half must
        (saving one replay); when it does, the right half is tested too
        because a field may span the midpoint.
        """
        if hi - lo <= self.granularity:
            return list(range(lo, hi))
        mid = (lo + hi) // 2
        positions: list[int] = []
        left_breaks = not self._blind_replay(side, index, lo, mid)
        if left_breaks:
            positions.extend(self._bisect(index, lo, mid, side))
            right_breaks = not self._blind_replay(side, index, mid, hi)
            if right_breaks:
                positions.extend(self._bisect(index, mid, hi, side))
        else:
            positions.extend(self._bisect(index, mid, hi, side))
        return positions

    def _blind_replay(self, side: str, index: int, lo: int, hi: int) -> bool:
        if side == "server":
            return self._replay(server_blind=[(index, lo, hi)])
        return self._replay([(index, lo, hi)])

    def _merge(self, index: int, payload: bytes, positions: list[int]) -> list[MatchingField]:
        """Coalesce adjacent byte positions into contiguous fields."""
        fields: list[MatchingField] = []
        for position in sorted(set(positions)):
            if fields and fields[-1].end == position:
                last = fields[-1]
                fields[-1] = MatchingField(
                    packet_index=index,
                    start=last.start,
                    end=position + 1,
                    content=payload[last.start : position + 1],
                )
            else:
                fields.append(
                    MatchingField(
                        packet_index=index,
                        start=position,
                        end=position + 1,
                        content=payload[position : position + 1],
                    )
                )
        return fields
