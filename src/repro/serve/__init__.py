"""Multi-session affect-serving runtime with micro-batched inference.

Turns the single-user reproduction into a multi-tenant service (the
ROADMAP's scaling north star):

- :class:`~repro.serve.sessions.SessionManager` — per-user emotion
  streams and controllers, idle-TTL plus LRU-capped;
- :class:`~repro.serve.batcher.MicroBatcher` — cross-session windows
  coalesced into one vectorized ``predict`` per tier group
  (flush-on-full / flush-on-deadline, in-batch dedup of identical
  windows);
- :class:`~repro.serve.cache.LRUCache` — window-hash keyed, so replayed
  windows skip DSP and inference entirely;
- :class:`~repro.serve.runtime.AffectServer` — the front door wiring
  admission control, shedding, and the resilience degradation ladder
  around the above;
- :class:`~repro.serve.adaptive.AdaptiveController` — the adaptive
  degradation control plane: a per-session model-tier ladder
  (LSTM → int8 → MLP int8 → cached/neutral) walked from queue pressure,
  SLO burn, and per-session battery budgets;
- :func:`~repro.serve.bench.run_serve_bench` — the in-process workload
  behind ``repro trace``, ``repro profile`` and the overhead gates;
- :func:`~repro.serve.adaptive_bench.run_surge_arm` — one diurnal surge
  through the runtime, behind ``repro chaos --plan surge``,
  ``repro monitor`` and the surge gates.

Capacity and latency of record come from ``perfbench/``.

See DESIGN.md §8 for the architecture and overload semantics, §10 for
the adaptive tier ladder.
"""

from repro.serve.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    TierLadder,
    TierSpec,
    build_default_ladder,
    ladder_from_pipeline,
)
from repro.serve.adaptive_bench import run_surge_arm
from repro.serve.batcher import BatchRequest, BatchResult, MicroBatcher
from repro.serve.bench import run_serve_bench
from repro.serve.cache import CacheEntry, LRUCache, window_hash
from repro.serve.runtime import AffectServer, ServeConfig, ServeResult
from repro.serve.sessions import Session, SessionManager

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "AffectServer",
    "BatchRequest",
    "BatchResult",
    "CacheEntry",
    "LRUCache",
    "MicroBatcher",
    "ServeConfig",
    "ServeResult",
    "Session",
    "SessionManager",
    "TierLadder",
    "TierSpec",
    "build_default_ladder",
    "ladder_from_pipeline",
    "run_serve_bench",
    "run_surge_arm",
    "window_hash",
]
