"""Virtual-clock network simulator.

A :class:`~repro.netsim.path.Path` connects a client endpoint to a server
endpoint through an ordered list of :class:`~repro.netsim.element.NetworkElement`
instances — router hops, malformed-packet filters, DPI middleboxes and
token-bucket shapers.  Packets are processed synchronously; time only moves
when an element (or the replay driver) advances the shared
:class:`~repro.netsim.clock.VirtualClock`.
"""

from repro.netsim.clock import VirtualClock
from repro.netsim.element import NetworkElement, TransitContext
from repro.netsim.filters import FilterPolicy, MalformedPacketFilter, TCPChecksumNormalizer
from repro.netsim.hop import RouterHop
from repro.netsim.latency import LatencyElement
from repro.netsim.path import Path
from repro.netsim.reassembler import FragmentReassembler
from repro.netsim.scheduler import EventScheduler
from repro.netsim.shaper import PolicyState, TokenBucket, TokenBucketShaper

__all__ = [
    "VirtualClock",
    "NetworkElement",
    "TransitContext",
    "EventScheduler",
    "FilterPolicy",
    "MalformedPacketFilter",
    "TCPChecksumNormalizer",
    "RouterHop",
    "LatencyElement",
    "Path",
    "FragmentReassembler",
    "PolicyState",
    "TokenBucket",
    "TokenBucketShaper",
]
