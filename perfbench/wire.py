"""The wire workloads: ``repro daemon`` in its own process, driven open-loop.

One asyncio thread in the benchmark process holds two connections (one
per core of the reference machine) and sends pre-encoded window frames
at their due instants, whatever the replies do.  A window's latency runs
from its due instant to its reply.  The daemon's CPU and peak memory are
read from ``/proc/<pid>``, so the generator's own cost stays out.

Each run measures one phase at the workload's nominal rate, then one
saturated phase: a fixed number of windows kept in flight per
connection (a new one sent as each reply arrives), so the daemon always
has a backlog but never a growing one.  The rate it answers at there is
the highest rate it sustains.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import inputs, stats
from perfbench.stats import LIMIT_MS

#: One benchmark connection per core of the 2-core reference machine.
CONNECTIONS = 2
#: A phase whose generator sent its p99 window later than this is invalid.
LAG_BOUND_MS = 50.0
#: Windows of a fresh phase checked against the offline reference.
FRESH_REFERENCE_SAMPLE = 240
#: Daemon starts per run; ``setup_s`` is their median.
SETUPS = 3
#: Wait for a phase's last replies before counting the rest as missing.
SETTLE_TIMEOUT_S = 15.0
#: Wait for a starting daemon to answer ``/healthz``, and for a stopping
#: one to exit.
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
#: Share of ``--seconds`` spent at the nominal rate.
NOMINAL_SHARE = 0.45
#: Windows in flight per connection in the saturated phase: two of the
#: daemon's 32-row batches over both connections, one being computed
#: while the next fills.
SATURATION_DEPTH = 32
#: Windows sent in the saturated phase per second of ``--seconds``
#: (about 0.8 x ``--seconds`` of serving at 250 windows/s), in segments
#: encoded one at a time; the phase's rate is the segments' median.
SATURATION_WINDOWS_PER_S = 200
SATURATION_SEGMENTS = 5
#: Replies at the head of the saturated phase, while its backlog first
#: builds, are not timed; nor are those of the drain at its end.
SATURATION_SKIP = 0.1
#: Most chunks the nominal phase's latency percentiles are medians over.
NOMINAL_CHUNKS = 7
#: Input stream ids, so no two phases share windows.
NOMINAL_STREAM = 0
SATURATION_STREAM = 1  # .. SATURATION_STREAM + SATURATION_SEGMENTS - 1
PREROLL_STREAM = 200
TRACED_STREAM = 300


class BenchError(RuntimeError):
    """A correctness or measurement failure: the run reports no result."""


@dataclass(frozen=True)
class WireSpec:
    name: str
    fresh: bool
    nominal_rate: float
    #: The fastest rate the workload is sized to measure.
    top_rate: float

    @property
    def max_inflight(self) -> int:
        """Per-connection in-flight cap: top per-connection rate x limit.

        One benchmark connection carries many devices' windows, so the
        shipped per-session cap of 8 would shed traffic the latency limit
        still allows.  Every other daemon setting keeps its default.
        """
        return math.ceil(self.top_rate / CONNECTIONS * LIMIT_MS / 1000.0)


#: Nominal rates sit well below capacity on the 2-core reference machine
#: (about 40% on replay, 60% on fresh); top rates are several times its
#: capacity, so the in-flight cap never binds for a faster program.
SPECS = {
    "wire_replay": WireSpec("wire_replay", fresh=False, nominal_rate=300.0,
                            top_rate=2408.0),
    "wire_fresh": WireSpec("wire_fresh", fresh=True, nominal_rate=150.0,
                           top_rate=802.5),
}


# -- the daemon process -----------------------------------------------------


class DaemonProcess:
    """``perfbench/daemon_host.py`` as a child process."""

    def __init__(self, root: Path, out_dir: Path, max_inflight: int,
                 tag: str, trace_out: Path | None = None) -> None:
        self.root = root
        self.log_path = out_dir / f"daemon-{tag}.log"
        cmd = [sys.executable, str(root / "perfbench" / "daemon_host.py"),
               "--max-inflight", str(max_inflight),
               "--bundle-dir", str(out_dir / f"incidents-{tag}")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONUNBUFFERED="1")
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.port: int | None = None
        self.admin_port: int | None = None

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers 200; seconds since spawn."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"daemon exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if self.admin_port is None:
                self._read_ports()
            elif self.healthz(timeout_s=1.0) is not None:
                return time.perf_counter() - self.started
            time.sleep(0.01)
        raise BenchError("daemon did not become healthy in time")

    def _read_ports(self) -> None:
        for line in self.log_path.read_text(errors="replace").splitlines():
            if line.startswith("ingest:"):
                self.port = int(line.split()[1].rpartition(":")[2])
            elif line.startswith("admin:"):
                self.admin_port = int(
                    line.split()[1].rpartition(":")[2].rstrip("/")
                )

    def healthz(self, timeout_s: float = 5.0) -> dict | None:
        """The ``/healthz`` payload, or ``None`` when not answering 200."""
        conn = http.client.HTTPConnection("127.0.0.1", self.admin_port,
                                          timeout=timeout_s)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                return None
            return json.loads(body)
        except (OSError, http.client.HTTPException, ValueError):
            return None
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """User + system CPU seconds of the daemon, all threads."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = fields.rpartition(")")[2].split()
        # After the command name: state is field 3, utime 14, stime 15.
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """Interrupt the daemon as a terminal would, and reap it."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self._log.close()


def lag_failures(row: dict[str, object], name: str) -> list[str]:
    """A failure if the generator sent a scored phase's p99 window late."""
    if row["lag_p99_ms"] <= LAG_BOUND_MS:
        return []
    return [f"the generator lagged {row['lag_p99_ms']:.1f} ms at p99 in the "
            f"{name} phase; its numbers are invalid"]


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart a process's ``VmHWM`` from its current resident size."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MiB: its peak since the last reset."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


# -- the load generator -----------------------------------------------------


@dataclass
class Sent:
    window: int
    due: float
    sent: float = 0.0
    reply_at: float | None = None
    reply: dict | None = None


@dataclass
class Client:
    """Two protocol v1 connections plus the reply bookkeeping."""

    conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
    inflight: dict[int, Sent] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    readers: list[asyncio.Task] = field(default_factory=list)
    #: Per-connection send credits of a closed-loop phase; each reply
    #: returns one to its connection.
    credits: list[asyncio.Semaphore] | None = None

    @classmethod
    async def connect(cls, port: int, n: int) -> "Client":
        conns = []
        for i in range(n):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"type":"hello","session":"bench-%d","proto":1}\n' % i)
            welcome = json.loads(await asyncio.wait_for(reader.readline(), 10))
            if welcome.get("type") != "welcome":
                raise BenchError(f"no welcome: {welcome}")
            conns.append((reader, writer))
        client = cls(conns)
        client.readers = [asyncio.create_task(client._read(c, r))
                          for c, (r, _) in enumerate(conns)]
        return client

    async def _read(self, conn: int, reader: asyncio.StreamReader) -> None:
        perf = time.perf_counter
        buffer = b""
        while True:
            data = await reader.read(1 << 16)
            if not data:
                return
            now = perf()
            buffer += data
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                frame = json.loads(line)
                if frame.get("type") == "goodbye":
                    continue
                if frame.get("type") != "result":
                    self.violations.append(f"unexpected frame {frame}")
                    continue
                record = self.inflight.pop(frame.get("seq"), None)
                if record is None:
                    self.violations.append(
                        f"reply for unknown or answered seq {frame.get('seq')}"
                    )
                    continue
                record.reply_at = now
                record.reply = frame
                if self.credits is not None:
                    self.credits[conn].release()

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.write(b'{"type":"bye"}\n')
        for task in self.readers:
            try:
                await asyncio.wait_for(task, 10)
            except asyncio.TimeoutError:
                task.cancel()
        for _, writer in self.conns:
            writer.close()

    async def run(self, plan: list[list[tuple[int, float, int, bytes]]],
                  depth: int | None = None) -> dict[int, Sent]:
        """Send ``plan[c]`` = ``(seq, due offset, window, frame)`` on conn c.

        Open loop: each window is due at its offset.  With ``depth``, a
        closed loop instead: each connection keeps ``depth`` windows in
        flight, and a window is due when a reply frees its slot.
        Returns every record once it is answered or the settle timeout
        has passed.
        """
        records: dict[int, Sent] = {}
        # A collection pause here would delay reading replies and be
        # charged to the server; a phase's garbage is small, so the
        # collector waits until the phase ends.
        gc.collect()
        gc.disable()
        try:
            return await self._run(plan, records, depth)
        finally:
            gc.enable()
            self.credits = None

    async def _run(self, plan, records: dict[int, Sent],
                   depth: int | None) -> dict[int, Sent]:
        t0 = time.perf_counter() + 0.05
        if depth is not None:
            self.credits = [asyncio.Semaphore(depth) for _ in self.conns]

        async def send(conn: int, writer: asyncio.StreamWriter,
                       items) -> None:
            perf = time.perf_counter
            for seq, offset, window, frame in items:
                if self.credits is not None:
                    await self.credits[conn].acquire()
                    due = perf()
                else:
                    due = t0 + offset
                    delay = due - perf()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    else:
                        await asyncio.sleep(0)  # let replies be read on time
                record = Sent(window, due)
                records[seq] = record
                self.inflight[seq] = record
                writer.write(frame)
                record.sent = perf()

        await asyncio.gather(*(send(c, w, items) for c, ((_, w), items)
                               in enumerate(zip(self.conns, plan))))
        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        while (any(r.reply is None for r in records.values())
               and time.perf_counter() < deadline):
            await asyncio.sleep(0.01)
        return records


# -- one phase ----------------------------------------------------------------


@dataclass
class Phase:
    rate: float
    records: dict[int, Sent]
    cpu_s: float


def summarize(phase: Phase, truths: list[str], reference: dict[int, str],
              energy_model: float, energy_fallback: float,
              max_chunks: int = 1) -> dict[str, object]:
    """End-to-end numbers of one phase (see :func:`perfbench.stats.score`).

    Energy applies the adaptive controller's accounting to the replies,
    since the daemon runs no controller: a window the model answered
    costs ``energy_model``, any other ``energy_fallback``.
    """
    answers = []
    for r in sorted(phase.records.values(), key=lambda r: r.due):
        reply = r.reply or {}
        answers.append(stats.Answer(
            r.due, r.sent, truths[r.window], r.reply_at,
            reply.get("outcome", ""), reply.get("degraded", False),
            reply.get("label"), reference.get(r.window),
        ))
    row = stats.score(answers, phase.cpu_s, max_chunks)
    ran_model = sum(1 for a in answers
                    if a.outcome == "completed" and not a.degraded)
    sent = row["sent"]
    row.update(rate=phase.rate, energy_per_window=(
        ran_model * energy_model + (sent - ran_model) * energy_fallback
    ) / sent)
    return row


# -- the workload -------------------------------------------------------------


class WireWorkload:
    """Set up, measure and check one wire workload run."""

    def __init__(self, spec: WireSpec, root: Path, out_dir: Path,
                 seed: int, seconds: float, trace: bool) -> None:
        self.spec = spec
        self.root = root
        self.out_dir = out_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.seq = 0
        self.seen: set[bytes] = set()

    # -- inputs --

    def _prepare_reference_model(self) -> None:
        """The offline int8 reference: the daemon's model, trained here."""
        from repro.affect.model_zoo import estimate_macs
        from repro.hw.power import FALLBACK_WINDOW_ENERGY, inference_energy
        from repro.serve.bench import train_bench_pipeline

        self.pipeline = train_bench_pipeline(seed=0)
        clf = self.pipeline.classifier
        self.int8 = self.pipeline.quantize()
        self.energy_model = inference_energy(
            estimate_macs(clf.model, clf.n_frames), quantized=True
        )
        self.energy_fallback = FALLBACK_WINDOW_ENERGY
        self.pool, self.pool_truths = inputs.truth_pool(
            clf.label_names, inputs.REPLAY_POOL_SIZE
        )
        self.pool_payloads = [inputs.encode_payload(w) for w in self.pool]
        self.pool_reference = self._reference(self.pool)

    def _reference(self, windows: list[np.ndarray]) -> list[str]:
        rows = self.pipeline.prepare_waveforms(windows)
        names = self.pipeline.classifier.label_names
        return [names[int(i)] for i in self.int8.predict_batch(rows)]

    def _plan(self, times: list[list[float]], step: int):
        """Frames for one phase, encoded before it starts.

        ``times[c]`` are the send offsets of connection ``c``.

        Returns ``(plan, truths, windows, ids)``: per-connection send
        items ``(seq, due offset, window id, frame)``, the truth label
        per window id, and either the fresh windows themselves or, for
        replay, the pool index of each window id.
        """
        count = sum(len(t) for t in times)
        windows = ids = None
        if self.spec.fresh:
            windows, base = inputs.fresh_windows(
                self.pool, count, self.seed, self.spec.name, step
            )
            inputs.assert_unique(windows, self.seen)
            payloads = [inputs.encode_payload(w) for w in windows]
            truths = [self.pool_truths[int(i)] for i in base]
        else:
            rng = inputs.rng_for(self.seed, self.spec.name, step)
            ids = inputs.balanced_picks(rng, len(self.pool), count)
            payloads = [self.pool_payloads[int(i)] for i in ids]
            truths = [self.pool_truths[int(i)] for i in ids]
        # Window k is the k-th due over both connections.
        order = sorted((t, c) for c, ts in enumerate(times) for t in ts)
        plan: list[list[tuple[int, float, int, bytes]]] = [
            [] for _ in range(CONNECTIONS)
        ]
        for k, (offset, c) in enumerate(order):
            plan[c].append((self.seq, offset, k,
                            inputs.window_frame(self.seq, payloads[k])))
            self.seq += 1
        return plan, truths, windows, ids

    # -- phases --

    async def _phase(self, client: Client, daemon: DaemonProcess,
                     rate: float, seconds: float, step: int):
        plan, truths, windows, ids = self._plan(
            inputs.open_loop_times(rate, seconds, CONNECTIONS), step
        )
        cpu0 = daemon.cpu_s()
        records = await client.run(plan)
        return Phase(rate, records, daemon.cpu_s() - cpu0), truths, windows, ids

    def _score(self, phase: Phase, truths, windows, ids,
               check_labels: bool) -> dict[str, object]:
        """Summarize a nominal phase; ``check_labels`` scores agreement."""
        if windows is None:
            reference = {k: self.pool_reference[int(i)]
                         for k, i in enumerate(ids)}
        elif not check_labels:
            reference = {}
        else:
            # Fresh windows: a seeded sample is checked (DSP is costly).
            rng = inputs.rng_for(self.seed, self.spec.name + ".sample", 0)
            picked = sorted(rng.choice(
                len(windows), size=min(FRESH_REFERENCE_SAMPLE, len(windows)),
                replace=False).tolist())
            refs = self._reference([windows[k] for k in picked])
            reference = dict(zip(picked, refs))
        return summarize(phase, truths, reference, self.energy_model,
                         self.energy_fallback, NOMINAL_CHUNKS)

    async def _warm(self, daemon: DaemonProcess) -> None:
        """Send the pool once and wait for every reply (fills the cache)."""
        client = await Client.connect(daemon.port, 1)
        try:
            plan = [[]]
            for k, payload in enumerate(self.pool_payloads):
                plan[0].append((self.seq, 0.0, k,
                                inputs.window_frame(self.seq, payload)))
                self.seq += 1
            records = await client.run(plan)
            if any(r.reply is None for r in records.values()):
                raise BenchError("warm-up windows went unanswered")
        finally:
            await client.close()

    def _setup(self, tag: str, trace_out: Path | None) -> tuple[DaemonProcess, float]:
        daemon = DaemonProcess(self.root, self.out_dir, self.spec.max_inflight,
                               tag, trace_out)
        try:
            daemon.wait_ready()
            asyncio.run(self._warm(daemon))
        except BaseException:
            daemon.stop()
            raise
        return daemon, time.perf_counter() - daemon.started

    def run(self) -> dict[str, object]:
        self._prepare_reference_model()
        setups = []
        for i in range(SETUPS - 1):
            daemon, elapsed = self._setup(f"setup{i}", None)
            daemon.stop()
            setups.append(elapsed)
        trace_out = self.out_dir / f"trace-{self.spec.name}.json"
        if trace_out.exists():
            trace_out.unlink()
        daemon, elapsed = self._setup(
            "run", trace_out if self.trace else None
        )
        setups.append(elapsed)
        try:
            raw = asyncio.run(self._measure(daemon, trace_out))
            health = daemon.healthz()
            if health is None:
                raise BenchError("/healthz stopped answering")
        finally:
            daemon.stop()
        dropped = health["server"]["dropped"]
        if dropped != 0:
            raw["failures"].append(f"the server accounts {dropped} dropped")
        raw.update(setup_s=statistics.median(setups), setups_s=setups,
                   health=health, max_inflight=self.spec.max_inflight)
        return raw

    async def _measure(self, daemon: DaemonProcess,
                       trace_out: Path) -> dict[str, object]:
        client = await Client.connect(daemon.port, CONNECTIONS)
        try:
            # Pre-roll: one second at the nominal rate, not scored.
            await self._phase(client, daemon, self.spec.nominal_rate, 1.0,
                              PREROLL_STREAM)
            if self.trace:
                raw = await self._traced(client, daemon, trace_out)
            else:
                nominal, _ = await self._nominal(client, daemon,
                                                 NOMINAL_STREAM, True)
                await asyncio.sleep(0.2)
                raw = {"nominal": nominal}
                raw.update(await self._saturate(client, daemon))
                raw["failures"] += lag_failures(nominal, "nominal")
        finally:
            await client.close()
        raw["failures"] += client.violations[:5]
        return raw

    async def _nominal(self, client: Client, daemon: DaemonProcess,
                       stream: int, check_labels: bool):
        """One scored phase at the nominal rate; returns ``(row, phase)``.

        The row's ``peak_rss_mb`` is the daemon's peak over this phase
        alone: the high-water mark is reset as it starts, after set-up,
        warm-up and pre-roll.
        """
        reset_peak_rss(daemon.proc.pid)
        phase, truths, windows, ids = await self._phase(
            client, daemon, self.spec.nominal_rate,
            NOMINAL_SHARE * self.seconds, stream
        )
        row = self._score(phase, truths, windows, ids, check_labels)
        row["peak_rss_mb"] = peak_rss_mb(daemon.proc.pid)
        return row, phase

    async def _saturate(self, client: Client,
                        daemon: DaemonProcess) -> dict[str, object]:
        """The saturated phase: the highest rate the daemon sustains.

        A closed loop keeps :data:`SATURATION_DEPTH` windows in flight per
        connection, so the daemon's worker always has a batch waiting and
        the backlog cannot grow.  Each segment's rate is the rate replies
        come at between its head and its drain; ``max_rate_wps`` is the
        median over the segments.
        """
        half = (int(SATURATION_WINDOWS_PER_S * self.seconds)
                // (SATURATION_SEGMENTS * CONNECTIONS))
        rates, served, cpu_s, sent = [], [], 0.0, 0
        for k in range(SATURATION_SEGMENTS):
            plan, _, _, _ = self._plan([[0.0] * half] * CONNECTIONS,
                                       SATURATION_STREAM + k)
            await asyncio.sleep(0.2)
            cpu0 = daemon.cpu_s()
            records = list((await client.run(plan, SATURATION_DEPTH)).values())
            cpu_s += daemon.cpu_s() - cpu0
            del plan
            segment = [r for r in records if r.reply is not None
                       and r.reply.get("outcome") != "shed"]
            replies = sorted(r.reply_at for r in segment)
            head = int(SATURATION_SKIP * len(replies))
            rate = stats.service_rate(
                replies[head:len(replies) - CONNECTIONS * SATURATION_DEPTH]
            )
            if rate is None:
                raise BenchError("a saturated segment got too few replies")
            rates.append(rate)
            served += segment
            sent += len(records)
        latency = stats.latency_summary(
            [(r.reply_at - r.due) * 1e3 for r in served]
        )
        top = latency["top_ms"]
        how = (f"saturated closed loop, {SATURATION_DEPTH} windows in flight "
               f"per connection: median of segment rates "
               f"{', '.join(f'{r:.1f}' for r in rates)}; "
               f"p{latency['top_per_mille'] / 10:g} latency {top:.4g} ms")
        if top > LIMIT_MS:
            how += " (over the limit: the daemon cannot sustain this depth)"
        failures = ([f"saturated phase: {sent - len(served)} windows got no "
                     "reply or were shed"] if sent > len(served) else [])
        return {"max_rate_wps": statistics.median(rates), "max_rate_how": how,
                "saturated": {"windows": sent, "segment_rates": rates,
                              "latency": latency, "cpu_ms_per_window":
                              cpu_s * 1e3 / max(1, len(served))},
                "failures": failures}

    async def _traced(self, client: Client, daemon: DaemonProcess,
                      trace_out: Path) -> dict[str, object]:
        """The nominal phase untraced, then again with the layers wrapped."""
        plain, _ = await self._nominal(client, daemon, NOMINAL_STREAM, True)
        before = daemon.healthz()
        daemon.signal(signal.SIGUSR1)
        await asyncio.sleep(0.2)
        traced, phase = await self._nominal(client, daemon, TRACED_STREAM,
                                            False)
        after = daemon.healthz()
        if before is None or after is None:
            raise BenchError("/healthz stopped answering")
        daemon.signal(signal.SIGUSR2)
        deadline = time.perf_counter() + 30
        while not trace_out.exists():
            if time.perf_counter() > deadline:
                raise BenchError("the traced daemon wrote no trace")
            await asyncio.sleep(0.05)
        replies = [r.reply | {"ms": (r.reply_at - r.due) * 1e3}
                   for r in phase.records.values() if r.reply is not None]
        outcomes: dict[str, int] = {}
        for reply in replies:
            outcomes[reply["outcome"]] = outcomes.get(reply["outcome"], 0) + 1
        layers = {
            "plain": plain,
            "traced": traced,
            "trace": json.loads(trace_out.read_text()),
            "health_delta": {k: after[k] - before[k]
                             for k in ("daemon_shed", "unroutable",
                                       "protocol_errors")},
            "peak_active": max(before["sessions_active"],
                               after["sessions_active"]),
            "outcomes": outcomes,
            "outside_ms": [r["ms"] - r["latency_s"] * 1e3 for r in replies
                           if r["outcome"] != "shed"],
            "wait_ms": [r["latency_s"] * 1e3 for r in replies
                        if r["outcome"] == "completed"],
            "adaptive": {},
        }
        failures = (lag_failures(plain, "untraced")
                    + lag_failures(traced, "traced"))
        return {"nominal": plain, "traced_layers": layers,
                "failures": failures}
