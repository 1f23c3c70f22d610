"""The asyncio serving daemon: real sockets in front of ``AffectServer``.

``repro daemon`` turns the in-process serving runtime into a network
service without adding a single third-party dependency: an
``asyncio.start_server`` ingest listener speaks the newline-delimited
JSON protocol of :mod:`repro.daemon.protocol`, and a second hand-rolled
HTTP listener (:mod:`repro.daemon.admin`) serves ``/healthz``,
``/metrics`` and ``/bundles/<id>``.

Architecture — one event loop, one worker thread, one clock:

- **The daemon owns the clock.**  The serve stack runs on caller-
  supplied workload time; here workload time is defined as
  ``time.monotonic() - t0`` so wall time and workload time advance in
  lockstep and the idle-TTL / deadline-flush machinery just works.
- **Async/thread bridge.**  ``AffectServer`` is thread-safe but
  blocking (DSP + model flushes), so every ``submit``/``poll``/
  ``drain`` call crosses into a single-worker
  :class:`~concurrent.futures.ThreadPoolExecutor` via
  ``loop.run_in_executor``.  One worker is a feature, not a limit: it
  serialises server calls, so the daemon adds no concurrency under the
  serve stack.  Reply routing does not depend on it: every accepted
  window gets a daemon-wide id that ``submit`` carries through to its
  result, and :meth:`ReproDaemon._dispatch` looks the connection and the
  client's seq up by that id.  BLAS runs on that worker too:
  ``AffectServer`` pins OpenBLAS to its caller (:mod:`repro.blas`), so
  no native pool spins beside it; ``/healthz`` reports the count.
- **Admission gates.**  A connection cap with LRU preemption (the
  evicted peer gets an explicit ``preempted`` frame before close — the
  serve layer's never-silent-drop contract extended to connections)
  and a per-session in-flight cap that sheds excess windows with an
  immediate degraded ``result`` frame rather than queueing them.
- **Reap, don't leak.**  Any connection teardown — clean ``bye``,
  abrupt reset, preemption — evicts the session through
  :meth:`~repro.serve.sessions.SessionManager.evict`; results still in
  flight for it complete against a detached stand-in and are counted
  ``daemon.replies.unroutable``, never resurrecting state.  A closed
  socket whose peer never reads is aborted after ``CLOSE_GRACE_S``, so
  it cannot pin its fd and queued reply bytes.
- **Monitoring.**  The poll loop drives the same
  :func:`~repro.obs.monitor.make_monitor` stack as ``repro monitor``:
  burn-rate alert rules sampled every tick, with the flight recorder
  dumping an incident bundle (served by the admin plane) when a page
  fires — and, since the profiler landed, a profile snapshot captured
  into that same bundle.
- **Profiling.**  A resident :class:`~repro.obs.prof.StackSampler`
  (100 Hz) runs for the daemon's lifetime; ``/debug/prof/cpu`` serves
  its cumulative collapsed-stack profile (or a fresh window), and
  ``/debug/prof/heap`` lazily starts allocation tracking.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.daemon import protocol
from repro.errors import ProtocolError
from repro.obs import get_registry, labeled
from repro.obs.monitor import make_monitor
from repro.obs.prof import HeapProfiler, ProfileRecorder, StackSampler
from repro.serve.runtime import AffectServer, ServeResult

#: Wall period of the poll loop (deadline flushes, idle eviction, alert
#: sampling).
POLL_PERIOD_S = 0.02
#: A connection must complete its hello within this budget.
HELLO_TIMEOUT_S = 5.0
#: Bytes asked of the socket per ingest read.
CHUNK_BYTES = 65536

#: Per-connection bound on reply bytes waiting in the transport for a
#: client that is not reading.  A reply that would take the buffer past
#: it is not queued: the connection gets one explicit ``error`` frame
#: instead and is closed, reaping its session.  A client that reads its
#: replies never comes near it (``max_inflight`` result frames are a few
#: kB).
MAX_REPLY_BUFFER_BYTES = 256 * 1024
_REPLY_OVERFLOW_FRAME = protocol.encode_frame({
    "type": "error",
    "error": f"reply buffer over {MAX_REPLY_BUFFER_BYTES} bytes: "
             "client is not reading its replies",
})
#: A closed connection's transport keeps its fd and queued bytes until
#: the peer reads them; past this grace it is aborted instead.
CLOSE_GRACE_S = 1.0


@dataclass(frozen=True)
class DaemonConfig:
    """Tuning knobs for one :class:`ReproDaemon`."""

    host: str = "127.0.0.1"
    #: Ingest TCP port; ``0`` binds an ephemeral port (read it back from
    #: :attr:`ReproDaemon.port` after :meth:`ReproDaemon.start`).
    port: int = 0
    #: Admin HTTP port; ``0`` binds an ephemeral port.
    admin_port: int = 0
    #: Connection-cap admission gate: at capacity, a new hello preempts
    #: the least-recently-active connection.
    max_connections: int = 64
    #: Per-session in-flight gate: windows submitted but unanswered
    #: beyond this are shed at the daemon with a degraded reply.
    max_inflight: int = 8
    #: Attach the burn-rate alerting + flight-recorder stack.
    monitor: bool = True
    bundle_dir: str = "incidents"
    #: Attach the resident continuous profiler (stack sampler at
    #: :data:`~repro.obs.prof.DEFAULT_INTERVAL_S` + the admin plane's
    #: ``/debug/prof/*`` endpoints).
    profile: bool = True

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")


class _Connection:
    """One admitted ingest connection (post-hello)."""

    __slots__ = ("writer", "session_id", "opened_at", "last_active",
                 "inflight", "windows", "shed", "closing")

    def __init__(self, writer: asyncio.StreamWriter, session_id: str,
                 opened_at: float) -> None:
        self.writer = writer
        self.session_id = session_id
        self.opened_at = opened_at
        self.last_active = opened_at
        #: Windows submitted but not yet answered (the in-flight gate).
        self.inflight = 0
        self.windows = 0
        self.shed = 0
        self.closing = False


class ReproDaemon:
    """Serve one :class:`~repro.serve.runtime.AffectServer` over TCP."""

    def __init__(self, server: AffectServer,
                 config: DaemonConfig | None = None) -> None:
        self.server = server
        self.config = config or DaemonConfig()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._routes: dict[str, _Connection] = {}
        #: Request id -> (connection, client seq) of every window the
        #: server holds; results are routed by this, nothing else.
        self._inflight: dict[int, tuple[_Connection, int]] = {}
        self._request_ids = itertools.count()
        self._ingest: asyncio.base_events.Server | None = None
        self._admin: asyncio.base_events.Server | None = None
        self._poll_task: asyncio.Task | None = None
        self._t0 = time.monotonic()
        self.port: int | None = None
        self.admin_port: int | None = None
        self.preemptions = 0
        self.daemon_shed = 0
        self.unroutable = 0
        self.protocol_errors = 0
        self.reply_overflows = 0
        if self.config.monitor:
            self.manager, self.recorder = make_monitor(
                bundle_dir=self.config.bundle_dir
            )
        else:
            self.manager, self.recorder = None, None
        #: Resident stack sampler; the heap profiler starts lazily on
        #: the first ``/debug/prof/heap`` hit (tracemalloc is too heavy
        #: to keep always-on).
        self.profiler: StackSampler | None = (
            StackSampler() if self.config.profile else None
        )
        self._heap: HeapProfiler | None = None
        self.profile_recorder: ProfileRecorder | None = None
        if self.manager is not None and self.profiler is not None:
            # Appended after the flight recorder (make_monitor put it in
            # sinks first), so by the time this sink sees a page the
            # incident bundle directory exists and the profile snapshot
            # lands inside it.
            self.profile_recorder = ProfileRecorder(
                self.profiler, recorder=self.recorder,
                profile_dir=self.config.bundle_dir,
            )
            self.manager.sinks.append(self.profile_recorder)

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        """Workload time: seconds since the daemon started."""
        return time.monotonic() - self._t0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners and start the poll loop."""
        self._t0 = time.monotonic()
        cfg = self.config
        self._ingest = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port
        )
        self.port = self._ingest.sockets[0].getsockname()[1]
        from repro.daemon.admin import handle_admin

        self._admin = await asyncio.start_server(
            lambda r, w: handle_admin(self, r, w), cfg.host, cfg.admin_port
        )
        self.admin_port = self._admin.sockets[0].getsockname()[1]
        if self.profiler is not None:
            self.profiler.start()
        self._poll_task = asyncio.create_task(self._poll_loop())

    async def serve_forever(self) -> None:
        assert self._ingest is not None, "start() first"
        await self._ingest.serve_forever()

    async def stop(self) -> None:
        """Drain pending windows, answer them, and tear everything down."""
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
            self._poll_task = None
        # Every accepted window is answered, even across shutdown.
        self._dispatch(await self._run(self.server.drain, self.now()))
        for conn in list(self._routes.values()):
            self._close_conn(conn, reason="shutdown")
        for listener in (self._ingest, self._admin):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        self._ingest = self._admin = None
        self._executor.shutdown(wait=True)
        if self.profiler is not None:
            self.profiler.stop()
        if self._heap is not None:
            self._heap.stop()
            self._heap = None

    def heap_profiler(self) -> HeapProfiler:
        """The allocation profiler, started on first use.

        Lazy on purpose: ``tracemalloc`` instruments every allocation
        and costs far more than stack sampling, so the daemon only pays
        for it once an operator actually asks ``/debug/prof/heap``.
        Once live it is attached to the resident sampler (periodic
        gauge refresh) and to the profile-capture alert sink.
        """
        if self._heap is None:
            self._heap = HeapProfiler()
            self._heap.start()
            if self.profiler is not None:
                self.profiler.heap = self._heap
            if self.profile_recorder is not None:
                self.profile_recorder.heap = self._heap
        return self._heap

    def _run(self, fn, *args):
        """Run one blocking server call on the single worker thread."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._executor, lambda: fn(*args))

    # -- introspection -----------------------------------------------------

    @property
    def connections(self) -> int:
        return len(self._routes)

    def route_ids(self) -> list[str]:
        """Session ids with a live connection."""
        return list(self._routes)

    def health(self) -> dict[str, object]:
        """The ``/healthz`` payload."""
        stats = self.server.stats()
        return {
            "ok": bool(stats["healthy"]),
            "uptime_s": self.now(),
            "connections": len(self._routes),
            "sessions_active": len(self.server.sessions),
            "preemptions": self.preemptions,
            "daemon_shed": self.daemon_shed,
            "unroutable": self.unroutable,
            "protocol_errors": self.protocol_errors,
            "reply_overflows": self.reply_overflows,
            "max_connections": self.config.max_connections,
            "max_inflight": self.config.max_inflight,
            "blas_threads": self.server.blas_threads,
            "server": stats,
        }

    # -- ingest ------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        obs = get_registry()
        decoder = protocol.FrameDecoder()
        queued: deque[dict] = deque()

        async def next_frame() -> dict | None:
            while not queued:
                data = await reader.read(CHUNK_BYTES)
                if not data:
                    return None
                queued.extend(decoder.feed(data))
            return queued.popleft()

        conn: _Connection | None = None
        reason = "disconnect"
        try:
            hello = await asyncio.wait_for(next_frame(), HELLO_TIMEOUT_S)
            if hello is None:
                return
            session_id = protocol.parse_hello(hello)
            conn = self._admit(session_id, writer)
            self._send(conn, {
                "type": "welcome", "session": session_id,
                "proto": protocol.PROTOCOL_VERSION,
                "max_inflight": self.config.max_inflight,
            })
            obs.set_gauge("daemon.connections", len(self._routes))
            while True:
                frame = await next_frame()
                if frame is None or conn.closing:
                    return
                if await self._handle_frame(conn, frame):
                    reason = "bye"
                    return
        except asyncio.TimeoutError:
            self._send_to(writer, {"type": "error",
                                   "error": "hello timeout"})
        except ProtocolError as exc:
            self.protocol_errors += 1
            obs.inc("daemon.protocol_errors")
            self._send_to(writer, {"type": "error", "error": str(exc)})
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            if conn is not None:
                self._close_conn(conn, reason=reason)
                obs.set_gauge("daemon.connections", len(self._routes))
                obs.set_gauge("daemon.sessions.active",
                              len(self.server.sessions))
            else:
                self._close_writer(writer)

    async def _handle_frame(self, conn: _Connection, frame: dict) -> bool:
        """One post-hello frame; ``True`` means the client said bye."""
        kind = frame.get("type")
        if kind == "window":
            await self._handle_window(conn, frame)
            return False
        if kind == "ping":
            self._send(conn, {"type": "pong", "t": frame.get("t")})
            return False
        if kind == "bye":
            self._send(conn, {"type": "goodbye"})
            return True
        raise ProtocolError(f"unexpected frame type {kind!r}")

    async def _handle_window(self, conn: _Connection, frame: dict) -> None:
        seq, signal = protocol.parse_window(frame)
        now = self.now()
        conn.last_active = now
        conn.windows += 1
        obs = get_registry()
        if conn.inflight >= self.config.max_inflight:
            # In-flight gate: answer *now* with the session's degraded
            # fallback instead of queueing — shed, never silently drop.
            conn.shed += 1
            self.daemon_shed += 1
            obs.inc(labeled("daemon.shed", gate="inflight"))
            session = self.server.sessions.peek(conn.session_id)
            label = (session.fallback_label if session is not None
                     else self.server.neutral_label)
            self._send(conn, {
                "type": "result", "seq": seq, "outcome": "shed",
                "label": label, "emotion": None, "mode": None,
                "shed": True, "degraded": True, "cached": False,
                "tier": None, "latency_s": 0.0,
            })
            return
        request_id = next(self._request_ids)
        self._inflight[request_id] = (conn, seq)
        conn.inflight += 1
        self._dispatch(await self._run(
            self.server.submit, conn.session_id, signal, now, request_id
        ))

    # -- admission / preemption --------------------------------------------

    def _admit(self, session_id: str,
               writer: asyncio.StreamWriter) -> _Connection:
        """Admission gate: make room if needed, register the connection."""
        existing = self._routes.get(session_id)
        if existing is not None:
            # Same-session takeover: the newest connection wins; the old
            # one is preempted and its session state dropped, so the new
            # connection starts from a clean (unpoisoned) session.
            self._preempt(existing, reason="takeover")
        while len(self._routes) >= self.config.max_connections:
            victim = min(self._routes.values(),
                         key=lambda c: c.last_active)
            self._preempt(victim, reason="capacity")
        conn = _Connection(writer, session_id, self.now())
        self._routes[session_id] = conn
        return conn

    def _preempt(self, conn: _Connection, reason: str) -> None:
        """Explicitly close one connection to make room (never silent)."""
        self.preemptions += 1
        get_registry().inc(labeled("daemon.preemptions", reason=reason))
        self._send(conn, {"type": "preempted", "reason": reason,
                          "session": conn.session_id})
        self._close_conn(
            conn, reason="takeover" if reason == "takeover" else "preempted"
        )

    def _close_conn(self, conn: _Connection, reason: str) -> None:
        """Idempotent teardown: unroute, reap the session, close the pipe."""
        if conn.closing:
            return
        conn.closing = True
        if self._routes.get(conn.session_id) is conn:
            del self._routes[conn.session_id]
        # Reap, don't leak: the session dies with its connection.  Any
        # in-flight window completes against a detached stand-in (see
        # AffectServer._finish) and is counted unroutable here.
        self.server.sessions.evict(conn.session_id, reason=reason)
        self._close_writer(conn.writer)

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except (ConnectionError, RuntimeError, OSError):
            pass
        # A peer that never reads would otherwise hold the socket open.
        asyncio.get_running_loop().call_later(
            CLOSE_GRACE_S, writer.transport.abort
        )

    # -- replies -----------------------------------------------------------

    def _dispatch(self, results: list[ServeResult]) -> None:
        """Send each result to the connection its request id names.

        A result whose connection has closed since it was submitted is
        counted unroutable instead.
        """
        for result in results:
            conn, client_seq = self._inflight.pop(result.seq)
            conn.inflight -= 1
            if conn.closing:
                self.unroutable += 1
                get_registry().inc("daemon.replies.unroutable")
                continue
            frame = protocol.result_frame(result)
            frame["seq"] = client_seq
            self._send(conn, frame)

    def _send(self, conn: _Connection, frame: dict) -> None:
        if conn.closing:
            return
        data = protocol.encode_frame(frame)
        buffered = conn.writer.transport.get_write_buffer_size()
        if (buffered + len(data) + len(_REPLY_OVERFLOW_FRAME)
                > MAX_REPLY_BUFFER_BYTES):
            # Bounded reply memory: a client that stops reading is told
            # why and closed, not buffered for without limit.
            self.reply_overflows += 1
            get_registry().inc("daemon.reply_overflows")
            self._write(conn.writer, _REPLY_OVERFLOW_FRAME)
            self._close_conn(conn, reason="reply_overflow")
            return
        self._write(conn.writer, data)

    def _send_to(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        self._write(writer, protocol.encode_frame(frame))

    def _write(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        try:
            writer.write(data)
        except (ConnectionError, RuntimeError, OSError):
            pass

    # -- poll loop ---------------------------------------------------------

    async def _poll_loop(self) -> None:
        """Deadline flushes, idle eviction, gauges, alert sampling."""
        obs = get_registry()
        while True:
            await asyncio.sleep(POLL_PERIOD_S)
            now = self.now()
            try:
                results = await self._run(self.server.poll, now)
            except Exception:
                obs.inc("daemon.poll_errors")
                continue
            self._dispatch(results)
            obs.set_gauge("daemon.connections", len(self._routes))
            obs.set_gauge("daemon.sessions.active",
                          len(self.server.sessions))
            obs.set_gauge("daemon.uptime_s", now)
            if self.manager is not None:
                # Both are internally rate-limited, so per-tick calls
                # cost one comparison in the common case.
                self.manager.observe(obs, now)
                self.recorder.record(obs, now)
