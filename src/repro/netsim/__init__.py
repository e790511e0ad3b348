"""Virtual-clock network simulator.

A :class:`~repro.netsim.path.Path` connects a client endpoint to a server
endpoint through an ordered list of :class:`~repro.netsim.element.NetworkElement`
instances — router hops, malformed-packet filters, DPI middleboxes and
token-bucket shapers.  Packets are processed synchronously; time only moves
when an element (or the replay driver) advances the shared
:class:`~repro.netsim.clock.VirtualClock`.
"""
