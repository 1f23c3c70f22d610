"""Network serving daemon: asyncio ingestion over the serve runtime.

``repro daemon`` exposes the in-process
:class:`~repro.serve.runtime.AffectServer` over real sockets with zero
third-party dependencies: a newline-delimited JSON TCP ingest protocol
(:mod:`repro.daemon.protocol`), an asyncio server with admission gates
and LRU session preemption (:mod:`repro.daemon.server`), a hand-rolled
HTTP admin plane serving ``/healthz`` / ``/metrics`` /
``/bundles/<id>`` (:mod:`repro.daemon.admin`).

Load, latency and capacity of the daemon over real sockets are measured
by ``perfbench/`` (its ``wire_fresh`` workload); the socket-level gates
(one reply per window, chaos aborts reaped, LRU preemption, admin plane
under load) are held by ``tests/test_daemon.py``.
"""

from repro.daemon.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    decode_signal,
    encode_frame,
    encode_signal,
    hello_frame,
    parse_hello,
    parse_window,
    result_frame,
    window_frame,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "decode_signal",
    "encode_frame",
    "encode_signal",
    "hello_frame",
    "parse_hello",
    "parse_window",
    "result_frame",
    "window_frame",
    "DaemonConfig",
    "ReproDaemon",
]


def __getattr__(name: str):
    # The server pulls in the serve stack (numpy-heavy); keep the
    # protocol importable without it.
    if name in ("DaemonConfig", "ReproDaemon"):
        from repro.daemon import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
