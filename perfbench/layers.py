"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer — the
methods and module functions listed in :data:`CLASS_POINTS` and
:data:`MODULE_POINTS`, plus the predict and prepare callables a server
instance holds — and records one span per call: name, start, end,
parent span and request id.  A span's parent is the innermost wrapped
call still open on the same thread; a root span starts a new request id
that its children inherit.  Self time (a span's duration minus the part
its children cover) is summed per entry point as calls return, so the
totals are exact even when the span list is capped.

Nothing here edits the program: :meth:`LayerTracer.install` sets
attributes on its classes and modules and :meth:`LayerTracer.uninstall`
puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: ``(module, class, method, span name)`` wrapped on the class.
CLASS_POINTS = (
    ("repro.serve.runtime", "AffectServer", "submit", "serve.runtime.submit"),
    ("repro.serve.runtime", "AffectServer", "poll", "serve.runtime.poll"),
    ("repro.serve.runtime", "AffectServer", "drain", "serve.runtime.drain"),
    ("repro.serve.cache", "LRUCache", "get", "serve.cache.get"),
    ("repro.serve.cache", "LRUCache", "put", "serve.cache.put"),
    ("repro.serve.batcher", "MicroBatcher", "flush", "serve.batcher.flush"),
    ("repro.serve.batcher", "MicroBatcher", "poll", "serve.batcher.poll"),
    ("repro.serve.sessions", "SessionManager", "get_or_create",
     "serve.sessions.get_or_create"),
    ("repro.serve.sessions", "SessionManager", "evict_idle",
     "serve.sessions.evict_idle"),
    ("repro.serve.sessions", "Session", "deliver", "serve.sessions.deliver"),
    ("repro.serve.adaptive", "AdaptiveController", "observe",
     "serve.adaptive.observe"),
    ("repro.serve.adaptive", "AdaptiveController", "tier_for",
     "serve.adaptive.tier_for"),
    ("repro.obs.alerts", "AlertManager", "observe", "obs.alerts.observe"),
    ("repro.obs.flight", "FlightRecorder", "record", "obs.flight.record"),
)

#: ``(module, function, span name)`` wrapped where callers look it up.
#: ``window_hash`` is imported by name into the runtime, so that is the
#: binding its caller sees.
MODULE_POINTS = (
    ("repro.daemon.protocol", "parse_window", "daemon.protocol.parse_window"),
    ("repro.daemon.protocol", "encode_frame", "daemon.protocol.encode_frame"),
    ("repro.serve.runtime", "window_hash", "serve.cache.window_hash"),
)

#: Spans kept in memory; calls beyond it still count in the aggregates.
MAX_SPANS = 200_000

#: Layer of each span name: the prefix before the entry point.
LAYERS = ("daemon.protocol", "serve.runtime", "serve.cache", "serve.batcher",
          "serve.sessions", "serve.adaptive", "dsp", "nn", "obs")


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise KeyError(name)


class _Open:
    __slots__ = ("index", "rid", "child_s")

    def __init__(self, index: int, rid: int) -> None:
        self.index = index
        self.rid = rid
        self.child_s = 0.0


class LayerTracer:
    """Span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        #: ``(name, start_s, end_s, parent index or -1, request id)``, or
        #: ``None`` for a slot not (yet) filled.  Slots are handed out
        #: from a counter, which is atomic under the interpreter lock, so
        #: the event-loop and worker threads never share one.
        self.spans: list[tuple[str, float, float, int, int] | None] = (
            [None] * MAX_SPANS
        )
        self._slots = itertools.count()
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Rows seen by the dsp and nn wrappers (bytes, for the frame
        #: decoder), per span name.
        self.rows: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._next_rid = 0
        self._rid_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, rows_arg: int | None = None):
        """``fn`` wrapped in a span named ``name``.

        ``rows_arg`` names the positional argument whose length is the
        row count of the call (the dsp and nn entry points) or, for the
        frame decoder, the bytes it was fed.  Each entry point runs on one
        thread only (in the daemon the event loop runs the protocol and
        monitor layers, the worker the serve layers), so the per-name
        sums are never updated from two threads at once.
        """
        local = self._local
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if parent is None:
                with self._rid_lock:
                    rid = self._next_rid
                    self._next_rid += 1
            else:
                rid = parent.rid
            index = next(self._slots)
            if index >= MAX_SPANS:
                index = -1
            node = _Open(index, rid)
            stack.append(node)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - node.child_s
                if rows_arg is not None:
                    self.rows[name] += len(args[rows_arg])
                if parent is not None:
                    parent.child_s += duration
                if index >= 0:
                    spans[index] = (name, start, end,
                                    parent.index if parent else -1, rid)

        return traced

    # -- install -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, server=None) -> None:
        """Wrap every entry point; ``server`` adds its dsp and nn callables.

        With an adaptive ladder each tier's predict gets its own span
        name; without one the batcher's single predict is the int8 MLP
        the daemon ships.
        """
        protocol = importlib.import_module("repro.daemon.protocol")
        # ``feed(self, data)``: its count is the bytes read off the socket.
        self._patch(protocol.FrameDecoder, "feed",
                    self.wrap("daemon.protocol.feed",
                              protocol.FrameDecoder.feed, rows_arg=1))
        for module_name, cls_name, method, name in CLASS_POINTS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, method, self.wrap(name, getattr(cls, method)))
        for module_name, func, name in MODULE_POINTS:
            module = importlib.import_module(module_name)
            self._patch(module, func, self.wrap(name, getattr(module, func)))
        if server is not None:
            batcher = server.batcher
            self._patch(batcher, "prepare_batch",
                        self.wrap("dsp.prepare_waveforms",
                                  batcher.prepare_batch, rows_arg=0))
            if batcher.tier_predicts:
                wrapped = {
                    tier: self.wrap(f"nn.predict.{tier}", fn, rows_arg=0)
                    for tier, fn in batcher.tier_predicts.items()
                }
                self._patch(batcher, "tier_predicts", wrapped)
            else:
                self._patch(batcher, "predict_batch",
                            self.wrap("nn.predict.mlp_int8",
                                      batcher.predict_batch, rows_arg=0))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def aggregates(self) -> dict[str, object]:
        """JSON-able per-entry-point calls, total and self time, rows."""
        recorded = sum(1 for s in self.spans if s is not None)
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "rows": dict(self.rows),
            "spans": recorded,
            "dropped_spans": sum(self.calls.values()) - recorded,
        }

    def write_spans(self, path: Path) -> None:
        """The recorded spans as JSON lines (times relative to the first)."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                if span is None:  # still open when the trace was cut
                    continue
                name, start, end, parent, rid = span
                out.write(json.dumps({
                    "i": i, "name": name, "start_us": (start - t0) * 1e6,
                    "end_us": (end - t0) * 1e6, "parent": parent,
                    "request": rid,
                }) + "\n")


def server_counters(server, profiler=None) -> dict[str, float]:
    """The runtime's own counters and thread CPU, for deltas across a phase."""
    return {
        **{f"cpu_{role}_s": v for role, v in thread_cpu_s().items()},
        "wall_s": time.perf_counter(),
        "prof_sampling_s": profiler.sampling_time_s if profiler else 0.0,
        "rows_flushed": server.batcher.rows_flushed,
        "unique_rows_flushed": server.batcher.unique_rows_flushed,
        "flushes": server.batcher.flushes,
        "degraded_flushes": server.batcher.degraded_flushes,
        "cache_hits": server.cache.hits,
        "cache_misses": server.cache.misses,
        "cache_evictions": server.cache.evictions,
        "sessions_created": server.sessions.created,
        "sessions_evicted_idle": server.sessions.evicted_idle,
        "sessions_evicted_lru": server.sessions.evicted_lru,
    }


def thread_cpu_s() -> dict[str, float]:
    """CPU seconds so far of this process's threads, by role.

    Roles: ``main`` (the daemon's event loop, or the surge's driving
    thread), ``worker`` (the daemon's executor), ``sampler`` (the resident
    profiler) and ``other`` (any other thread, native ones included);
    ``system`` is the kernel-mode share of all of them.
    """
    roles = {t.native_id: t.name for t in threading.enumerate()}
    roles[threading.main_thread().native_id] = "main"
    tick = os.sysconf("SC_CLK_TCK")
    cpu: dict[str, float] = dict.fromkeys(
        ("main", "worker", "sampler", "other", "system"), 0.0)
    for task in Path("/proc/self/task").iterdir():
        try:
            fields = (task / "stat").read_text().rpartition(")")[2].split()
        except FileNotFoundError:  # the thread ended while listing
            continue
        user, system = int(fields[11]) / tick, int(fields[12]) / tick
        name = roles.get(int(task.name), "")
        role = ("worker" if name.startswith("repro-serve")
                else "sampler" if name == "repro-prof-sampler"
                else name if name == "main" else "other")
        cpu[role] += user + system
        cpu["system"] += system
    return cpu


def self_time_by_layer(self_s: dict[str, float]) -> dict[str, float]:
    """Sum of self seconds per layer in :data:`LAYERS`."""
    layers: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layers[layer_of(name)] += seconds
    return layers
