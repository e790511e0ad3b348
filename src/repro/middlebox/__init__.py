"""A configurable DPI middlebox engine and per-environment profiles.

The engine (:mod:`repro.middlebox.engine`) implements the mechanisms the
paper reverse-engineered from operational classifiers: keyword rules over
HTTP payloads / SNI fields / STUN attributes, per-packet vs. stream
reassembly, packet-count inspection windows, match-and-forget semantics,
incomplete header validation, classification flushing, and policy actions
(throttling, zero-rating, RST/block-page censorship).

The environments in :mod:`repro.envs` configure the engine to behave like
each middlebox the paper evaluated.
"""
