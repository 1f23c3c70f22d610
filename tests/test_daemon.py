"""The network daemon: handshake, gates, preemption, reaping, admin plane."""

from __future__ import annotations

import asyncio
import json
import socket
from collections import Counter

import numpy as np
import pytest

from repro.affect.pipeline import AffectClassifierPipeline
from repro.daemon import protocol
from repro.daemon.server import (
    CLOSE_GRACE_S,
    MAX_REPLY_BUFFER_BYTES,
    DaemonConfig,
    ReproDaemon,
)
from repro.datasets import emovo_like
from repro.datasets.speech import synthesize_utterance
from repro.obs import get_registry, labeled
from repro.serve import AffectServer, ServeConfig


@pytest.fixture(scope="module")
def pipeline():
    corpus = emovo_like(n_per_class=4, seed=0)
    p = AffectClassifierPipeline("mlp", seed=0)
    p.train(corpus, epochs=3)
    return p


@pytest.fixture(scope="module")
def wave(pipeline):
    return synthesize_utterance(pipeline.classifier.label_names[0],
                                actor=0, sentence=0, take=0)


@pytest.fixture(scope="module")
def other_wave(pipeline):
    """A window the pipeline labels differently from ``wave``."""
    return synthesize_utterance(pipeline.classifier.label_names[1],
                                actor=0, sentence=0, take=0)


def served_alone(pipeline, signal) -> str:
    """The label ``signal`` gets from a fresh server, on its own."""
    server = AffectServer(pipeline)
    results = server.submit("alone", signal, 0.0) + server.drain(0.0)
    return results[0].label


async def _http_get(host: str, port: int, path: str,
                    timeout: float = 5.0) -> tuple[int, bytes]:
    """Minimal HTTP GET over asyncio streams (no blocking urllib)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(None, 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, body


def make_daemon(pipeline, tmp_path, *, serve: dict | None = None,
                **daemon_kwargs) -> ReproDaemon:
    server = AffectServer(pipeline, ServeConfig(**(serve or {})))
    daemon_kwargs.setdefault("port", 0)
    daemon_kwargs.setdefault("admin_port", 0)
    daemon_kwargs.setdefault("bundle_dir", str(tmp_path / "incidents"))
    return ReproDaemon(server, DaemonConfig(**daemon_kwargs))


class Client:
    """Minimal test client over a real loopback socket."""

    def __init__(self) -> None:
        self.decoder = protocol.FrameDecoder()
        self.frames: list[dict] = []

    async def connect(self, daemon: ReproDaemon, session_id: str) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            daemon.config.host, daemon.port
        )
        self.send(protocol.hello_frame(session_id))
        welcome = await self.expect("welcome")
        assert welcome["session"] == session_id

    def send(self, frame: dict) -> None:
        self.writer.write(protocol.encode_frame(frame))

    async def recv(self, timeout: float = 5.0) -> dict | None:
        while not self.frames:
            data = await asyncio.wait_for(self.reader.read(65536), timeout)
            if not data:
                return None
            self.frames.extend(self.decoder.feed(data))
        return self.frames.pop(0)

    async def expect(self, kind: str, timeout: float = 5.0) -> dict:
        frame = await self.recv(timeout)
        assert frame is not None, f"connection closed awaiting {kind!r}"
        assert frame["type"] == kind, frame
        return frame

    def close(self) -> None:
        try:
            self.writer.close()
        except (ConnectionError, RuntimeError, OSError):
            pass


class TestIngest:
    def test_window_round_trip(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-1")
                client.send(protocol.window_frame(0, wave))
                result = await client.expect("result")
                assert result["seq"] == 0
                assert result["outcome"] in (
                    "completed", "cached", "absorbed", "shed"
                )
                assert result["label"] in pipeline.classifier.label_names
                client.send({"type": "ping", "t": 1.0})
                pong = await client.expect("pong")
                assert pong["t"] == 1.0
                client.send({"type": "bye"})
                await client.expect("goodbye")
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_seq_mapping_across_pipelined_windows(self, pipeline, wave,
                                                  other_wave, tmp_path):
        # Client-chosen seqs (not 0..n) must come back on the replies
        # even when windows pend across deadline flushes.
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 serve={"max_batch": 64, "max_wait_s": 0.05})
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-seq")
                seqs = [7, 3, 99]
                for seq in seqs:
                    client.send(protocol.window_frame(seq, wave))
                got = []
                for _ in seqs:
                    got.append((await client.expect("result"))["seq"])
                assert got == seqs
                # A fresh window pends in the batcher while a cached one
                # sent after it is answered at once: the replies cross,
                # and each must still carry its own seq.
                client.send(protocol.window_frame(40, other_wave))
                client.send(protocol.window_frame(41, wave))
                replies = {}
                for _ in range(2):
                    reply = await client.expect("result")
                    replies[reply["seq"]] = reply
                assert sorted(replies) == [40, 41]
                assert replies[41]["outcome"] == "cached"
                assert replies[41]["label"] == served_alone(pipeline, wave)
                assert replies[40]["outcome"] == "completed"
                assert replies[40]["label"] == served_alone(pipeline,
                                                            other_wave)
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_inflight_gate_sheds_explicitly(self, pipeline, wave, tmp_path):
        async def run():
            # A huge deadline keeps the first window pending, so the
            # second trips the in-flight gate and must be answered NOW.
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False, max_inflight=1,
                serve={"max_batch": 64, "max_wait_s": 60.0},
            )
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-gate")
                client.send(protocol.window_frame(0, wave))
                client.send(protocol.window_frame(1, wave))
                shed = await client.expect("result")
                assert shed["seq"] == 1
                assert shed["outcome"] == "shed"
                assert shed["shed"] is True
                assert daemon.daemon_shed == 1
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_malformed_frame_gets_error_and_close(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-bad")
                client.writer.write(b"this is not json\n")
                error = await client.expect("error")
                assert "frame" in error["error"] or "error" in error
                assert await client.recv() is None  # closed after error
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())


class TestAdmissionAndReaping:
    def test_capacity_preemption_is_explicit_lru(self, pipeline, wave,
                                                 tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 max_connections=1)
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-old")
                first.send(protocol.window_frame(0, wave))
                await first.expect("result")
                assert "u-old" in daemon.server.sessions

                second = Client()
                await second.connect(daemon, "u-new")
                bounced = await first.expect("preempted")
                assert bounced["reason"] == "capacity"
                # The preempted peer's session is reaped with it.
                assert "u-old" not in daemon.server.sessions
                assert daemon.route_ids() == ["u-new"]
                preempted = get_registry().counter(
                    labeled("serve.sessions.preempted", reason="preempted")
                )
                assert preempted.value >= 1
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_same_session_takeover(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-dup")
                second = Client()
                await second.connect(daemon, "u-dup")
                bounced = await first.expect("preempted")
                assert bounced["reason"] == "takeover"
                assert daemon.route_ids() == ["u-dup"]
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_takeover_with_window_pending_routes_replies_by_id(
            self, pipeline, wave, other_wave, tmp_path):
        # A's window is still in the batcher when B takes the session
        # over.  B's second window fills the batch, so one flush answers
        # A's window and both of B's: each reply must reach the
        # connection whose window it answers, not whichever connection
        # holds the session id now.
        label_b = served_alone(pipeline, other_wave)
        assert label_b != served_alone(pipeline, wave)

        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 serve={"max_batch": 3, "max_wait_s": 60.0})
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-dup")
                first.send(protocol.window_frame(0, wave))
                for _ in range(100):
                    if daemon.server.pending:
                        break
                    await asyncio.sleep(0.01)
                assert daemon.server.pending == 1

                second = Client()
                await second.connect(daemon, "u-dup")
                await first.expect("preempted")
                second.send(protocol.window_frame(0, other_wave))
                second.send(protocol.window_frame(1, other_wave))
                replies = [await second.expect("result") for _ in range(2)]
                assert sorted(r["seq"] for r in replies) == [0, 1]
                assert [r["label"] for r in replies] == [label_b, label_b]
                assert daemon.unroutable == 1  # A's, whose socket closed
                assert daemon.server.dropped == 0
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_abrupt_disconnect_reaps_session(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-gone")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")
                assert "u-gone" in daemon.server.sessions
                client.writer.transport.abort()  # no FIN-drain, no bye
                for _ in range(100):
                    if "u-gone" not in daemon.server.sessions:
                        break
                    await asyncio.sleep(0.02)
                assert "u-gone" not in daemon.server.sessions
                assert daemon.route_ids() == []
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_inflight_window_of_preempted_session_is_unroutable(
            self, pipeline, wave, tmp_path):
        # A window pending in the batcher when its session is preempted
        # completes against a detached stand-in; the daemon counts the
        # reply unroutable instead of resurrecting the session.
        async def run():
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False, max_connections=1,
                serve={"max_batch": 64, "max_wait_s": 60.0},
            )
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-flight")
                first.send(protocol.window_frame(0, wave))
                await asyncio.sleep(0.1)  # let the window reach the batcher
                assert daemon.server.pending == 1

                second = Client()
                await second.connect(daemon, "u-evictor")
                await first.expect("preempted")
                drained = await daemon._run(
                    daemon.server.drain, daemon.now()
                )
                daemon._dispatch(drained)
                assert "u-flight" not in daemon.server.sessions
                assert daemon.unroutable >= 1
                assert daemon.server.dropped == 0
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())


class TestAdminPlane:
    def test_healthz_metrics_bundles(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-admin")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")

                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/healthz"
                )
                assert status == 200
                health = json.loads(body)
                assert health["ok"] is True
                assert health["connections"] == 1
                assert health["server"]["submitted"] >= 1
                assert health["blas_threads"] == daemon.server.blas_threads
                assert health["blas_threads"] in (1, None)

                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/metrics"
                )
                assert status == 200
                text = body.decode("utf-8")
                assert "repro_serve_requests" in text
                assert "repro_daemon_connections" in text
                if daemon.server.blas_threads is not None:
                    assert "repro_serve_blas_threads 1" in text

                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/bundles"
                )
                assert status == 200
                assert json.loads(body) == {"bundles": []}

                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    "/bundles/../etc/passwd"
                )
                assert status == 404
                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port, "/nope"
                )
                assert status == 404
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_bundle_endpoint_serves_recorded_incident(self, pipeline,
                                                      tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path)
            await daemon.start()
            try:
                # Force an incident bundle through the recorder rather
                # than simulating a real page: the admin plane serves
                # whatever the recorder wrote.
                daemon.recorder.record(get_registry(), now=1.0)
                bundle_path = daemon.recorder.dump(
                    reason="test-incident", at=1.0
                )
                bundle_id = bundle_path.replace("\\", "/").rsplit("/", 1)[-1]
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/bundles"
                )
                assert status == 200
                assert bundle_id in json.loads(body)["bundles"]
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    f"/bundles/{bundle_id}"
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["id"] == bundle_id
                assert payload["incident"]["reason"] == "test-incident"
                assert isinstance(payload["snapshots"], list)
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_post_is_rejected(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(
                    daemon.config.host, daemon.admin_port
                )
                writer.write(b"POST /healthz HTTP/1.1\r\n\r\n")
                raw = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                assert b"405" in raw.split(b"\r\n", 1)[0]
            finally:
                await daemon.stop()

        asyncio.run(run())


async def _stream_session(daemon: ReproDaemon, session_id: str,
                          frames: list[bytes], period_s: float,
                          phase_s: float, shared: dict,
                          abort_after: int | None = None) -> Counter:
    """One paced client; returns how many replies each seq received.

    Sending starts once every client of ``shared`` is welcomed, so all
    sessions are open at once.  ``abort_after`` windows in, the client
    hard-aborts its socket mid-stream (no ``bye``).  Otherwise it waits
    for a reply to every window it sent, says ``bye`` and reads to the
    daemon's close.
    """
    reader, writer = await asyncio.open_connection(daemon.config.host,
                                                   daemon.port)
    decoder = protocol.FrameDecoder()
    replies: Counter = Counter()
    answered = asyncio.Event()

    async def read_loop() -> None:
        try:
            while data := await reader.read(65536):
                for frame in decoder.feed(data):
                    if frame["type"] == "welcome":
                        shared["active"] += 1
                        if shared["active"] == shared["sessions"]:
                            shared["all_open"].set()
                    elif frame["type"] == "result":
                        replies[frame["seq"]] += 1
                        if len(replies) == len(frames):
                            answered.set()
        except (ConnectionError, OSError):
            pass

    reads = asyncio.create_task(read_loop())
    writer.write(protocol.encode_frame(protocol.hello_frame(session_id)))
    await asyncio.wait_for(shared["all_open"].wait(), 10.0)
    await asyncio.sleep(phase_s)
    for seq, frame in enumerate(frames):
        if seq == abort_after:
            writer.transport.abort()
            break
        writer.write(frame)
        await asyncio.sleep(period_s)
    else:
        await asyncio.wait_for(answered.wait(), 10.0)
        writer.write(protocol.encode_frame({"type": "bye"}))
    await asyncio.wait_for(reads, 10.0)
    writer.close()
    return replies


async def _preemption_probe(daemon: ReproDaemon, extra: int) -> int:
    """Fill the connection table, overflow it by ``extra``; count bounces."""
    conns = []
    try:
        for i in range(daemon.config.max_connections + extra):
            client = Client()
            await client.connect(daemon, f"probe-{i:04d}")
            conns.append(client)
            await asyncio.sleep(0.002)  # distinct last_active: LRU order
        bounced = 0
        for client in conns[:extra]:
            frame = await client.recv(2.0)
            bounced += frame is not None and frame["type"] == "preempted"
        return bounced
    finally:
        for client in conns:
            client.close()


class TestDaemonAt64Sessions:
    """The serving contract over real sockets at 64 concurrent sessions."""

    SESSIONS = 64
    ABORTERS = 8
    WINDOWS = 6
    PERIOD_S = 0.1

    def test_gates(self, pipeline, tmp_path):
        from repro.serve.bench import POOL_SIZE, make_truth_pool

        pool, _ = make_truth_pool(pipeline.classifier.label_names,
                                  POOL_SIZE, seed=0)
        signals = [protocol.encode_signal(w) for w in pool]
        rng = np.random.default_rng(0)
        picks = rng.integers(len(pool), size=(self.SESSIONS, self.WINDOWS))
        phases = rng.uniform(0.0, self.PERIOD_S, size=self.SESSIONS)
        frames = [
            [protocol.encode_frame({"type": "window", "seq": seq,
                                    "signal": signals[picks[s, seq]]})
             for seq in range(self.WINDOWS)]
            for s in range(self.SESSIONS)
        ]
        ids = [f"bench-{s:04d}" for s in range(self.SESSIONS)]

        async def run():
            daemon = make_daemon(pipeline, tmp_path,
                                 serve={"max_wait_s": 0.1},
                                 max_connections=self.SESSIONS)
            await daemon.start()
            try:
                shared = {"active": 0, "sessions": self.SESSIONS,
                          "all_open": asyncio.Event()}
                replies = await asyncio.gather(*[
                    _stream_session(
                        daemon, ids[s], frames[s], self.PERIOD_S,
                        float(phases[s]), shared,
                        abort_after=(self.WINDOWS // 2
                                     if s < self.ABORTERS else None),
                    )
                    for s in range(self.SESSIONS)
                ])
                # Every surviving client got exactly one reply per seq.
                for counts in replies[self.ABORTERS:]:
                    assert counts == Counter(range(self.WINDOWS)), counts
                # Aborted and cleanly closed sessions alike are reaped.
                await asyncio.sleep(0.3)
                assert not [sid for sid in ids if sid in daemon.server.sessions]
                assert not [sid for sid in ids if sid in daemon.route_ids()]
                # Past capacity, exactly the overflow is bounced, explicitly.
                assert await _preemption_probe(daemon, extra=2) == 2
                host, port = daemon.config.host, daemon.admin_port
                status, body = await _http_get(host, port, "/healthz")
                assert status == 200 and json.loads(body)["ok"]
                status, body = await _http_get(host, port, "/metrics")
                assert status == 200 and b"repro_" in body
            finally:
                await daemon.stop()
            assert daemon.server.stats()["dropped"] == 0
            # No request id outlives its reply, aborted clients included.
            assert daemon._inflight == {}

        asyncio.run(run())


class TestReplyBufferBound:
    def test_client_that_never_reads_is_closed_at_the_bound(
            self, pipeline, wave, tmp_path):
        async def run():
            # One window stays pending (long deadline, in-flight cap 1),
            # so every further window is answered at once with a shed
            # reply the client never reads.
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 profile=False, max_inflight=1,
                                 serve={"max_wait_s": 60.0})
            await daemon.start()
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            sender = None
            try:
                await loop.sock_connect(sock, (daemon.config.host,
                                               daemon.port))
                await loop.sock_sendall(sock, protocol.encode_frame(
                    protocol.hello_frame("u-silent")))
                welcome = await asyncio.wait_for(loop.sock_recv(sock, 4096),
                                                 5.0)
                assert b"welcome" in welcome
                transport = daemon._routes["u-silent"].writer.transport
                # Small kernel buffers on both ends, so the daemon's own
                # buffer is what fills.
                transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                window = protocol.encode_frame(protocol.window_frame(0, wave))

                async def send_forever() -> None:
                    try:
                        while True:
                            await loop.sock_sendall(sock, window)
                    except OSError:  # the daemon aborted the socket
                        pass

                sender = asyncio.create_task(send_forever())
                for _ in range(600):
                    if daemon.reply_overflows:
                        break
                    assert (transport.get_write_buffer_size()
                            <= MAX_REPLY_BUFFER_BYTES)
                    await asyncio.sleep(0.05)
                assert daemon.reply_overflows == 1
                assert transport.get_write_buffer_size() <= MAX_REPLY_BUFFER_BYTES
                assert "u-silent" not in daemon.route_ids()
                assert "u-silent" not in daemon.server.sessions
                assert daemon.health()["reply_overflows"] == 1
                # The client still reads nothing, yet within the grace
                # the daemon lets go of the socket and its queued bytes.
                closed_at = loop.time()
                held = transport.get_extra_info("socket")
                while held.fileno() != -1:
                    assert loop.time() - closed_at < CLOSE_GRACE_S + 2.0
                    await asyncio.sleep(0.05)
                assert transport.get_write_buffer_size() == 0
            finally:
                if sender is not None:
                    sender.cancel()
                sock.close()
                await daemon.stop()

        asyncio.run(run())


class TestProfPlane:
    def test_cumulative_cpu_profile_parses(self, pipeline, wave, tmp_path):
        from repro.obs.prof import parse_collapsed

        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                assert daemon.profiler is not None
                assert daemon.profiler.running
                client = Client()
                await client.connect(daemon, "u-prof")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")
                await asyncio.sleep(0.1)  # let the resident sampler tick
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/cpu"
                )
                assert status == 200
                stacks = parse_collapsed(body.decode("utf-8"))
                assert stacks, "resident sampler recorded nothing"
                assert sum(stacks.values()) >= 1
                client.close()
            finally:
                await daemon.stop()
            assert not daemon.profiler.running  # stop() joined the sampler

        asyncio.run(run())

    def test_json_profile_reports_untracked_cpu(self, pipeline, tmp_path):
        from repro.obs.prof import parse_collapsed, task_cpu_ticks

        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                await asyncio.sleep(0.05)
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    "/debug/prof/cpu?format=json"
                )
                assert status == 200
                report = json.loads(body)
                parse_collapsed(report["collapsed"])
                assert report["samples"] >= 0
                if task_cpu_ticks() is not None:
                    assert 0.0 <= report["untracked_cpu_frac"] <= 1.0
                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    "/debug/prof/cpu?format=xml"
                )
                assert status == 400
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_windowed_profile_does_not_block_metrics(self, pipeline,
                                                     tmp_path):
        from repro.obs.prof import parse_collapsed

        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                window = asyncio.create_task(_http_get(
                    daemon.config.host, daemon.admin_port,
                    "/debug/prof/cpu?seconds=1.5", timeout=10.0,
                ))
                await asyncio.sleep(0.05)
                # The plane keeps serving while the window collects.
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/metrics"
                )
                assert status == 200
                assert b"repro_" in body
                assert not window.done(), "window returned implausibly fast"
                status, body = await window
                assert status == 200
                parse_collapsed(body.decode("utf-8"))  # may be empty, parses
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_seconds_clamp(self):
        from repro.daemon.admin import (
            PROF_MAX_SECONDS,
            _parse_prof_seconds,
            clamp_prof_seconds,
        )

        assert clamp_prof_seconds(-5.0) == 0.0
        assert clamp_prof_seconds(0.0) == 0.0
        assert clamp_prof_seconds(2.5) == 2.5
        assert clamp_prof_seconds(999.0) == PROF_MAX_SECONDS
        assert clamp_prof_seconds(float("nan")) == 0.0
        assert _parse_prof_seconds("/debug/prof/cpu") == 0.0
        assert _parse_prof_seconds("/debug/prof/cpu?seconds=2") == 2.0
        assert _parse_prof_seconds("/debug/prof/cpu?seconds=1e9") \
            == PROF_MAX_SECONDS
        assert _parse_prof_seconds("/debug/prof/cpu?seconds=abc") is None

    def test_malformed_seconds_is_400(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    "/debug/prof/cpu?seconds=abc"
                )
                assert status == 400
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_unknown_prof_kind_is_404(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/wat"
                )
                assert status == 404
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_profiling_disabled_is_503(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 profile=False)
            await daemon.start()
            try:
                assert daemon.profiler is None
                for path in ("/debug/prof/cpu", "/debug/prof/heap"):
                    status, _ = await _http_get(
                        daemon.config.host, daemon.admin_port, path
                    )
                    assert status == 503, path
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_heap_endpoint_starts_lazily(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                assert daemon._heap is None  # tracemalloc not yet paid for
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/heap"
                )
                assert status == 200
                report = json.loads(body)
                assert report["tracing"] is True
                assert daemon._heap is not None
                first = daemon._heap
                # The live heap profiler is now wired into the sampler.
                assert daemon.profiler.heap is first
                client = Client()
                await client.connect(daemon, "u-heap")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/heap"
                )
                assert status == 200
                report = json.loads(body)
                assert daemon._heap is first  # reused, not restarted
                assert report["current_bytes"] >= 0
                client.close()
            finally:
                await daemon.stop()
            assert daemon._heap is None  # stop() tore tracemalloc down

        asyncio.run(run())
