"""The surge arm: one diurnal load surge through one serve runtime.

:func:`run_surge_arm` pumps a surge schedule
(:func:`~repro.serve.bench.make_surge_events`) through a fresh
:class:`~repro.serve.runtime.AffectServer` and scores every answer
against the pool's ground truth.  Two arms make the degradation story:

- **baseline** — no controller: full service until the admission queue
  overflows, then shed-to-neutral;
- **adaptive** — the tier-laddered runtime
  (:class:`~repro.serve.adaptive.AdaptiveController`, tuned by
  :func:`bench_adaptive_config`), which demotes sessions toward cheaper
  rungs as the queue and SLO burn rise and lets the terminal
  cached/neutral rung *absorb* what the baseline sheds.

``repro chaos --plan surge``, ``repro monitor`` and the surge gates in
``tests/test_adaptive_surge.py`` drive it; ``perfbench/``'s ``surge``
workload builds its server from the constants below.
"""

from __future__ import annotations

import time

import numpy as np

from repro.affect.pipeline import AffectClassifierPipeline
from repro.obs import get_registry
from repro.serve.adaptive import AdaptiveConfig, AdaptiveController
from repro.serve.bench import quantiles
from repro.serve.runtime import AffectServer, ServeConfig

#: Distinct utterances in the surge pool — deliberately larger than the
#: arm's window cache, so most windows actually exercise the model path
#: (the throughput bench's tiny pool would turn a surge into cache hits).
POOL_SIZE = 192
#: Window cache capacity for surge arms (see :data:`POOL_SIZE`).
CACHE_CAPACITY = 48
#: Admission bound.  Must not exceed ``max_batch``: flush-on-full fires
#: at ``max_batch`` pending rows, so a larger queue would drain before
#: it could ever overflow and the surge would never shed.
MAX_QUEUE = 48
MAX_BATCH = 64
MAX_WAIT_S = 0.25
#: The bench pumps ``poll`` on this cadence between arrivals, so
#: deadline flushes land within ``MAX_WAIT_S + POLL_PERIOD_S`` of submit.
POLL_PERIOD_S = 0.125
#: Battery sized so a session serving its whole surge workload at the
#: top (LSTM float) tier spends most of a full charge.
BATTERY_CAPACITY = 15.0


def bench_adaptive_config(
    battery_fraction: float | None = None,
) -> AdaptiveConfig:
    """The controller tuning every surge arm shares.

    The promotion dwell is shortened from the serving default so the
    post-surge *recovery* (promotions back up the ladder) is observable
    inside a seconds-long workload.  ``battery_fraction=None`` disables
    the battery axis.
    """
    return AdaptiveConfig(
        promote_dwell_s=1.0,
        battery_capacity=None if battery_fraction is None else BATTERY_CAPACITY,
        initial_battery_fraction=(
            1.0 if battery_fraction is None else battery_fraction
        ),
    )


def run_surge_arm(
    pipeline: AffectClassifierPipeline,
    events: list[tuple[float, str, int]],
    pool: list[np.ndarray],
    truths: list[str],
    seconds: float,
    adaptive: AdaptiveController | None = None,
    on_tick=None,
    keep_results: bool = False,
) -> dict[str, object]:
    """One arm: pump the surge schedule through a fresh server.

    Shared verbatim between the resilience surge plan (``repro chaos
    --plan surge``), ``repro monitor`` and the surge gates, so "a surge"
    means exactly one thing across the repo.  Resets the
    process metrics registry (the controller's burn window reads it).

    ``on_tick(server, now)``, when given, runs once per poll tick after
    ``server.poll`` — the hook ``repro monitor`` uses to sample its
    alert manager and flight recorder in workload time.
    """
    get_registry().reset()
    config = ServeConfig(
        max_batch=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
        max_queue=MAX_QUEUE,
        cache_capacity=CACHE_CAPACITY,
        idle_ttl_s=max(seconds * 2, 30.0),
        stale_ttl_s=None,
    )
    server = AffectServer(pipeline, config, adaptive=adaptive)
    truth_by_seq: dict[int, str] = {}
    results = []
    submits = 0
    start = time.perf_counter()
    event_index = 0
    ticks = int(np.ceil(seconds / POLL_PERIOD_S)) + 1
    for k in range(ticks):
        now = k * POLL_PERIOD_S
        results.extend(server.poll(now))
        if on_tick is not None:
            on_tick(server, now)
        while event_index < len(events) and events[event_index][0] <= now:
            at, session_id, pool_index = events[event_index]
            # seq mirrors the server's per-submit counter, so results
            # that fan out of later flushes still find their truth.
            truth_by_seq[submits] = truths[pool_index]
            submits += 1
            results.extend(server.submit(session_id, pool[pool_index], at))
            event_index += 1
    results.extend(server.drain(seconds + MAX_WAIT_S))
    wall_s = time.perf_counter() - start

    windows = len(events)
    shed = [r for r in results if r.shed]
    served = [r for r in results if not r.shed]
    correct = sum(1 for r in results if r.label == truth_by_seq[r.seq])
    latencies = [r.latency_s for r in served]
    stats = server.stats()
    tier_mix: dict[str, int] = {}
    for r in results:
        if r.tier is not None:
            tier_mix[r.tier] = tier_mix.get(r.tier, 0) + 1
    arm: dict[str, object] = {
        "windows": windows,
        "wall_s": wall_s,
        "windows_per_s": windows / wall_s if wall_s > 0 else 0.0,
        "shed": len(shed),
        "shed_frac": len(shed) / windows if windows else 0.0,
        "absorbed": stats["absorbed"],
        "degraded": sum(1 for r in served if r.degraded),
        "accuracy": correct / windows if windows else 0.0,
        "latency_s": quantiles(latencies),
        "dropped": stats["dropped"],
        "sessions_created": stats["sessions_created"],
        "sessions_evicted": (
            server.sessions.evicted_idle + server.sessions.evicted_lru
        ),
        "cache_hit_rate": stats["cache_hit_rate"],
    }
    if keep_results:
        # Non-JSON private payload for callers (``repro monitor``) that
        # need the per-window outcomes; they must pop it before dumping.
        arm["_results"] = results
    if adaptive is not None:
        arm["adaptive"] = adaptive.stats()
        arm["tier_mix"] = tier_mix
        # Recovery: sessions promoted back up once the surge passed, and
        # at least one session finished the run back at the top rung.
        top = adaptive.ladder[0].name
        arm["sessions_at_top_after"] = sum(
            1 for sid in server.sessions.ids()
            if server.sessions.get(sid).tier_index == 0
        )
        arm["top_tier"] = top
    return arm
