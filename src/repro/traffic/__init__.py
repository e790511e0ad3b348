"""Application traffic generation and the trace record/replay format.

The classifiers in the paper key on HTTP Host headers, TLS Server Name
Indication, and STUN message attributes; the generators here produce
wire-accurate bytes for all three, wrapped in :class:`~repro.traffic.trace.Trace`
objects that the replay machinery and lib·erate itself consume.
"""

_LAZY_EXPORTS = {
    "http_get_trace": "repro.traffic.http",
    "http_request": "repro.traffic.http",
    "http_response": "repro.traffic.http",
    "stun_binding_request": "repro.traffic.stun",
    "stun_binding_response": "repro.traffic.stun",
    "stun_trace": "repro.traffic.stun",
    "client_hello": "repro.traffic.tls",
    "extract_sni": "repro.traffic.tls",
    "tls_trace": "repro.traffic.tls",
    "Trace": "repro.traffic.trace",
    "TracePacket": "repro.traffic.trace",
    "invert_bits": "repro.traffic.trace",
    "video_stream_trace": "repro.traffic.video",
    "read_pcap": "repro.traffic.pcap",
    "tap_to_pcap": "repro.traffic.pcap",
    "write_pcap": "repro.traffic.pcap",
    "TraceRecorder": "repro.traffic.recorder",
    "quic_initial": "repro.traffic.quic",
    "quic_video_trace": "repro.traffic.quic",
}

__all__ = list(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Lazily resolve the public names so importing one generator loads only its module."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.traffic' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
