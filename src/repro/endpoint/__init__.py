"""Endpoint stacks: per-OS packet validation, TCP/UDP state machines, apps.

The paper's Table 3 "Server Response" columns show that Linux, macOS and
Windows handle lib·erate's crafted packets differently (e.g. Windows answers
an invalid TCP flag combination with a RST, Linux and macOS silently drop
it; only Windows drops packets carrying malformed IP options).  Those
differences decide whether an inert-packet technique is safe to deploy
unilaterally, so they are modeled explicitly in :mod:`repro.endpoint.osmodel`.
"""
