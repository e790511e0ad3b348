"""Differential tests: pattern automaton and batch serializer vs. naive loops.

Two exact-equivalence contracts are checked here against straightforward
reference implementations over randomized inputs:

* :mod:`repro.middlebox.automaton` — every scan shape (one-shot ``advance``,
  bulk ``scan_mask``, resumable ``StreamScan.feed_mask`` across arbitrary
  chunk splits) must report exactly the patterns a per-pattern
  ``pattern in buffer`` loop would, including overlapping, nested and
  chunk-boundary-spanning occurrences, on both the inline small-append walk
  and the hybrid regex bulk path.

* :mod:`repro.packets.batch` — ``serialize_batch`` must be byte-identical
  to per-packet ``to_bytes()`` for every packet shape (plain fast-path
  packets, crafted overrides that fall back, unserializable ones under
  ``lenient``), in any interleaving with per-packet serialization, since
  both write the same wire memos — with metrics live or not.
"""

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.middlebox.automaton import (
    _INLINE_FACTOR,
    PatternAutomaton,
    StreamScan,
    automaton_for,
    mask_to_ids,
)
from repro.middlebox.rules import MatchRule
from repro.middlebox.ruleindex import CompiledRuleSet
from repro.obs import metrics as obs_metrics
from repro.packets.batch import concat_wire_bytes, serialize_batch
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

# A tiny alphabet makes overlaps, shared prefixes and nesting common.
pattern_st = st.lists(st.sampled_from([b"a", b"b", b"c"]), min_size=1, max_size=5).map(b"".join)
patterns_st = st.lists(pattern_st, min_size=0, max_size=8)
# Chunks up to 24 bytes: far beyond max_len * _INLINE_FACTOR (<= 10), so the
# hybrid regex path and the inline walk are both exercised.
chunk_st = st.lists(st.sampled_from([b"a", b"b", b"c", b"x"]), min_size=0, max_size=24).map(
    b"".join
)


def naive_mask(patterns, data: bytes) -> int:
    """Bit *i* set iff ``patterns[i] in data`` — the loop being replaced."""
    mask = 0
    for i, pattern in enumerate(patterns):
        if pattern in data:
            mask |= 1 << i
    return mask


class TestAutomatonDifferential:
    @settings(max_examples=200)
    @given(patterns=patterns_st, data=chunk_st)
    def test_advance_equals_per_pattern_search(self, patterns, data):
        automaton = PatternAutomaton(patterns)
        _node, mask = automaton.advance(0, data)
        assert mask == naive_mask(patterns, data)

    @settings(max_examples=200)
    @given(patterns=patterns_st, data=chunk_st, bounds=st.tuples(st.integers(0, 24), st.integers(0, 24)))
    def test_scan_mask_equals_sliced_search(self, patterns, data, bounds):
        start, end = sorted(bounds)
        automaton = PatternAutomaton(patterns)
        assert automaton.scan_mask(data, start, min(end, len(data))) == naive_mask(
            patterns, data[start:end]
        )

    @settings(max_examples=200)
    @given(patterns=patterns_st, data=chunk_st, end=st.integers(0, 24))
    def test_resume_node_equals_full_walk(self, patterns, data, end):
        automaton = PatternAutomaton(patterns)
        end = min(end, len(data))
        assert automaton.resume_node(data, end) == automaton.advance(0, data[:end])[0]

    def test_overlapping_nested_and_boundary_patterns(self):
        # "aba" overlaps itself in "ababa"; "ab"/"a" are nested prefixes.
        patterns = [b"aba", b"ab", b"a", b"ba", b"caba"]
        automaton = automaton_for(patterns)
        assert mask_to_ids(automaton.scan_mask(b"ababa")) == {0, 1, 2, 3}
        # The only "caba" occurrence spans the chunk boundary; the resumable
        # scan must see it without ever re-feeding the first chunk.
        scan = StreamScan()
        buffer = bytearray(b"xca")
        scan.feed_mask(automaton, buffer)
        buffer.extend(b"ba")
        assert mask_to_ids(scan.feed_mask(automaton, buffer)) == {0, 1, 2, 3, 4}


class TestStreamScanDifferential:
    @settings(max_examples=300)
    @given(patterns=patterns_st, chunks=st.lists(chunk_st, min_size=1, max_size=6))
    def test_chunked_feed_equals_full_rescan(self, patterns, chunks):
        """The resumable scan sees exactly what rescanning the buffer would.

        Chunk sizes straddle the inline/hybrid threshold, so both feed paths
        and the cross-boundary head walk are covered.
        """
        automaton = PatternAutomaton(patterns)
        scan = StreamScan()
        buffer = bytearray()
        for chunk in chunks:
            buffer.extend(chunk)
            mask = scan.feed_mask(automaton, buffer)
            assert mask == naive_mask(patterns, bytes(buffer))
            # The carried node must equal the state a from-scratch walk of
            # the whole stream reaches — that is what makes the next feed's
            # boundary handling exact.
            assert scan.node == automaton.advance(0, bytes(buffer))[0]
            assert scan.watermark == len(buffer)

    @settings(max_examples=100)
    @given(patterns=patterns_st, chunks=st.lists(chunk_st, min_size=1, max_size=6))
    def test_forced_inline_and_forced_bulk_agree(self, patterns, chunks):
        """Feeding byte-by-byte and in maximal chunks yields the same hits."""
        automaton = PatternAutomaton(patterns)
        stream = b"".join(chunks)
        inline_scan = StreamScan()
        buffer = bytearray()
        for offset in range(len(stream)):  # appends of 1: always inline
            buffer.append(stream[offset])
            inline_mask = inline_scan.feed_mask(automaton, buffer)
        bulk_scan = StreamScan()
        bulk_mask = bulk_scan.feed_mask(automaton, stream)  # one append: bulk
        if stream:
            assert inline_mask == bulk_mask == naive_mask(patterns, stream)
        threshold = automaton.max_len * _INLINE_FACTOR
        assert threshold >= 0  # documents what the two paths split on


class TestRuleLoopDifferential:
    """Random rule lists × random chunked streams vs the naive per-rule loop."""

    rule_st = st.builds(
        MatchRule,
        name=st.sampled_from(["r0", "r1", "r2", "r3"]),
        keywords=st.lists(pattern_st, min_size=1, max_size=3),
        require_all=st.booleans(),
    )

    @staticmethod
    def naive_first_match(rules, buffer: bytes):
        for rule in rules:
            if rule.matches_buffer(buffer):
                return rule
        return None

    @settings(max_examples=200)
    @given(
        rules=st.lists(rule_st, min_size=0, max_size=6),
        chunks=st.lists(chunk_st, min_size=1, max_size=6),
    )
    def test_compiled_match_equals_naive_loop(self, rules, chunks):
        view = CompiledRuleSet(rules).view("tcp", 80, "client")
        scan = StreamScan()
        buffer = bytearray()
        for index, chunk in enumerate(chunks):
            buffer.extend(chunk)
            expected = self.naive_first_match(rules, bytes(buffer))
            assert view.match(buffer, chunk, index, scan) is expected


# ----------------------------------------------------------------------
# serialize_batch vs per-packet to_bytes
# ----------------------------------------------------------------------

payload_st = st.binary(max_size=64)
port_st = st.integers(0, 0xFFFF)

plain_tcp_st = st.builds(
    TCPSegment,
    sport=port_st,
    dport=port_st,
    seq=st.integers(0, 0xFFFFFFFF),
    ack=st.integers(0, 0xFFFFFFFF),
    flags=st.sampled_from([TCPFlags.ACK, TCPFlags.SYN, TCPFlags.ACK | TCPFlags.PSH]),
    payload=payload_st,
)
plain_udp_st = st.builds(
    UDPDatagram,
    sport=port_st,
    dport=port_st,
    payload=payload_st,
    # Length overrides stay on the fast path: the wire uses the actual size
    # for the pseudo-header and IP total length either way.
    length=st.sampled_from([None, None, None, 0, 13, 0xFFFF]),
)
crafted_tcp_st = plain_tcp_st.map(
    lambda seg: TCPSegment(
        sport=seg.sport, dport=seg.dport, seq=seg.seq, ack=seg.ack,
        flags=seg.flags, payload=seg.payload, checksum=0xBEEF,
    )
)
address_st = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.1.7", "203.0.113.9"])

packet_st = st.builds(
    IPPacket,
    src=address_st,
    dst=address_st,
    transport=st.one_of(plain_tcp_st, plain_udp_st, crafted_tcp_st, st.just(b"raw-bytes")),
    ttl=st.integers(0, 255),
    tos=st.integers(0, 255),
    identification=st.integers(0, 0x2FFFF),  # past 16 bits: masked on the wire
    df=st.booleans(),
    mf=st.booleans(),
    frag_offset=st.integers(0, 0x1FFF),
    # Header overrides knock packets off the fast path; the batch must fall
    # back to to_bytes() and still agree byte-for-byte.
    total_length=st.sampled_from([None, None, None, 10, 2000]),
    checksum=st.sampled_from([None, None, None, 0]),
    options=st.sampled_from([b"", b"", b"\x01\x01"]),
)


def reference_wires(packets):
    """Per-packet serialization on independent clones (no shared memos)."""
    wires = []
    for packet in packets:
        try:
            wires.append(packet.copy().to_bytes())
        except (ValueError, OverflowError):
            wires.append(None)
    return wires


class TestSerializeBatchDifferential:
    @settings(max_examples=150)
    @given(packets=st.lists(packet_st, max_size=10), live_metrics=st.booleans())
    def test_batch_equals_per_packet_to_bytes(self, packets, live_metrics):
        expected = reference_wires(packets)
        with obs.installed(METRICS=obs_metrics.MetricsRegistry()) if live_metrics else nullcontext():
            assert serialize_batch(packets, lenient=True) == expected

    @settings(max_examples=50)
    @given(transports=st.lists(st.one_of(plain_tcp_st, plain_udp_st), min_size=1, max_size=8))
    def test_live_metrics_count_batch_encodes_as_misses(self, transports):
        """k cold plain packets: k misses from the batch, then k to_bytes() hits."""
        packets = [IPPacket(src="10.0.0.1", dst="10.0.0.2", transport=t) for t in transports]
        k = len(packets)
        metrics = obs_metrics.MetricsRegistry()
        with obs.installed(METRICS=metrics):
            serialize_batch(packets)
            assert metrics.counter("wirecache.misses") == k
            assert metrics.counter("wirecache.hits") == 0
            for packet in packets:
                packet.to_bytes()
            assert metrics.counter("wirecache.hits") == k
            assert metrics.counter("wirecache.misses") == k

    @settings(max_examples=100)
    @given(packets=st.lists(packet_st, max_size=8), interleave=st.lists(st.booleans(), max_size=8))
    def test_memo_warming_is_consistent(self, packets, interleave):
        """to_bytes() before or after the batch never changes any byte."""
        expected = reference_wires(packets)
        # Warm some packets' memos via the per-packet path first...
        for packet, pre_serialize in zip(packets, interleave):
            if pre_serialize:
                try:
                    packet.to_bytes()
                except (ValueError, OverflowError):
                    pass
        # ...then batch, then serialize per-packet again off the warm memos.
        assert serialize_batch(packets, lenient=True) == expected
        for packet, wire in zip(packets, expected):
            if wire is not None:
                assert packet.to_bytes() == wire

    @settings(max_examples=50)
    @given(packets=st.lists(packet_st, max_size=6))
    def test_concat_equals_joined_serializable_wires(self, packets):
        expected = b"".join(w for w in reference_wires(packets) if w)
        assert concat_wire_bytes(packets) == expected

    def test_strict_mode_raises_where_to_bytes_raises(self):
        import pytest

        good = IPPacket(src="10.0.0.1", dst="10.0.0.2", transport=TCPSegment())
        bad = IPPacket(src="not-an-address", dst="10.0.0.2", transport=TCPSegment())
        assert serialize_batch([good, bad], lenient=True) == [good.copy().to_bytes(), None]
        with pytest.raises(ValueError):
            serialize_batch([good, bad])

    def test_identification_past_16_bits_encodes_like_to_bytes(self):
        packet = IPPacket(
            "10.0.0.1", "10.0.0.2", TCPSegment(sport=1, dport=2), identification=70000
        )
        wire = packet.copy().to_bytes()
        assert len(wire) == 40
        assert serialize_batch([packet], lenient=True) == [wire]
        assert serialize_batch([packet.copy()]) == [wire]
        # A header field that does not fit fails to_bytes(): lenient is None.
        unfit = packet.copy(tos=300)
        assert serialize_batch([unfit, packet], lenient=True) == [None, wire]

    def test_shared_pair_state_does_not_leak_across_pairs(self):
        # Alternating endpoint pairs force the per-pair pseudo-header prefix
        # to be recomputed; every wire must still match its own packet.
        packets = []
        for i in range(6):
            src = "10.0.0.1" if i % 2 else "10.0.0.3"
            packets.append(
                IPPacket(
                    src=src, dst="10.0.0.2",
                    transport=TCPSegment(sport=1000 + i, dport=80, payload=b"x" * i),
                )
            )
        assert serialize_batch(packets) == reference_wires(packets)
