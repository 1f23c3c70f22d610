"""The in-process serving workload every bench, gate and profile drives.

One module owns what "the serve workload" means across the repo:

- :func:`train_bench_pipeline` — the small trained classifier;
- :func:`make_truth_pool` — a bounded pool of synthetic utterances, each
  synthesized *from* a known label, so every answer can be scored;
- :func:`make_schedule` (steady arrivals) and :func:`make_surge_events`
  (the diurnal surge) — seeded ``(now, session_id, pool_index)`` events;
- :func:`run_serve_bench` — pump a schedule through one
  :class:`~repro.serve.runtime.AffectServer` and account for every window;
- :func:`interleaved_laps` — the paired-arm loop the observability
  overhead gates share.

``repro trace``, ``repro profile``, ``repro monitor``, ``repro chaos``
and the overhead gates in ``benchmarks/test_obs_overhead.py`` all build
on it.  The workload models multi-tenant traffic: each session emits one
window per period (with a per-session phase offset), and window
*content* is drawn from the pool, so concurrent sessions frequently
carry the same window — the redundancy that window-hash caching and
in-batch coalescing exploit.  Everything is scheduled on virtual
workload time; only the measurements touch the wall clock.  Capacity
and latency of record come from ``perfbench/``, not from here.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.affect.pipeline import AffectClassifierPipeline
from repro.obs import get_tracer
from repro.obs.trace import Span
from repro.serve.runtime import AffectServer, ServeConfig

#: Virtual seconds between one session's consecutive windows.
WINDOW_PERIOD_S = 0.5
#: Distinct utterances the steady workload draws from.
POOL_SIZE = 24


def train_bench_pipeline(seed: int = 0,
                         architecture: str = "mlp") -> AffectClassifierPipeline:
    """The small classifier every bench configuration shares."""
    from repro.datasets import emovo_like

    corpus = emovo_like(n_per_class=4, seed=seed)
    pipeline = AffectClassifierPipeline(architecture, seed=seed)
    pipeline.train(corpus, epochs=3)
    return pipeline


def make_truth_pool(
    label_names: tuple[str, ...], pool_size: int, seed: int,
) -> tuple[list[np.ndarray], list[str]]:
    """``pool_size`` synthetic utterances plus their ground-truth labels.

    Window ``i`` is synthesized *from* label ``label_names[i % n]``, so
    the pool carries its own truth — what lets a surge arm score every
    served answer, including fallbacks.
    """
    from repro.datasets.speech import synthesize_utterance

    truths = [label_names[i % len(label_names)] for i in range(pool_size)]
    pool = [
        synthesize_utterance(
            truths[i], actor=i % 4, sentence=i % 3, take=i, seed=seed,
        )
        for i in range(pool_size)
    ]
    return pool, truths


def make_schedule(
    sessions: int, seconds: float, seed: int, pool_size: int,
    period_s: float = WINDOW_PERIOD_S,
) -> list[tuple[float, str, int]]:
    """Steady time-ordered ``(now, session_id, pool_index)`` arrivals."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, period_s, size=sessions)
    events: list[tuple[float, str, int]] = []
    ticks = int(np.ceil(seconds / period_s))
    for k in range(ticks):
        for s in range(sessions):
            now = k * period_s + float(offsets[s])
            if now >= seconds:
                continue
            events.append((now, f"user-{s:04d}", int(rng.integers(pool_size))))
    events.sort(key=lambda e: e[0])
    return events


def make_surge_events(
    sessions: int, seconds: float, seed: int, pool_size: int,
    surge_scale: float,
) -> list[tuple[float, str, int]]:
    """Diurnal surge arrivals as ``(now, session_id, pool_index)``."""
    from repro.datasets.phone_usage import surge_schedule

    rng = np.random.default_rng(seed + 1)
    return [
        (now, f"user-{s:04d}", int(rng.integers(pool_size)))
        for now, s in surge_schedule(
            sessions, seconds, seed=seed, surge_scale=surge_scale,
        )
    ]


def quantiles(values: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean of ``values`` (zeros when empty)."""
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
    array = np.asarray(values)
    return {
        "p50": float(np.quantile(array, 0.50)),
        "p95": float(np.quantile(array, 0.95)),
        "p99": float(np.quantile(array, 0.99)),
        "mean": float(array.mean()),
    }


#: Minimum float-vs-int8 label agreement for the parity gate to pass.
INT8_AGREEMENT_FLOOR = 0.98


def check_parity(
    pipeline: AffectClassifierPipeline,
    pool: list[np.ndarray],
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> dict[str, object]:
    """The two gates guarding the batched int8 serve path.

    - **batch-vs-single DSP**: every pool window prepared through
      :meth:`~repro.affect.pipeline.AffectClassifierPipeline.
      prepare_waveforms` (the flush path) must match the per-window
      :meth:`prepare_waveform` reference within ``rtol``/``atol`` (in
      practice the two paths are bitwise identical — the batch front end
      reuses the single path's arithmetic).
    - **float-vs-int8 labels**: the quantized model the serve runtime
      defaults to must agree with float-weight labels on at least
      :data:`INT8_AGREEMENT_FLOOR` of the pool.

    ``ok`` is the conjunction.
    """
    clf = pipeline.classifier
    assert clf is not None
    single = np.stack([pipeline.prepare_waveform(s) for s in pool])
    batched = pipeline.prepare_waveforms(pool)
    dsp_ok = bool(np.allclose(single, batched, rtol=rtol, atol=atol))
    dsp_max_abs_diff = float(np.max(np.abs(single - batched)))
    float_labels = np.asarray(clf.predict_labels(batched))
    int8_labels = np.asarray(pipeline.quantize().predict_batch(batched))
    agreement = float(np.mean(float_labels == int8_labels))
    int8_ok = agreement >= INT8_AGREEMENT_FLOOR
    return {
        "windows": len(pool),
        "dsp_batch_vs_single_ok": dsp_ok,
        "dsp_max_abs_diff": dsp_max_abs_diff,
        "int8_label_agreement": agreement,
        "int8_vs_float_ok": int8_ok,
        "ok": dsp_ok and int8_ok,
    }


def run_serve_bench(
    sessions: int = 16,
    seconds: float = 4.0,
    seed: int = 0,
    max_batch: int = 32,
    pipeline: AffectClassifierPipeline | None = None,
    on_tick=None,
) -> dict[str, object]:
    """Drive the steady workload through one server; returns a report.

    The report's ``accounting`` section carries the serving contract:
    every submitted window must come back either completed or explicitly
    shed (``dropped == 0``).  ``served.wall_s`` is the wall time of the
    drive loop alone — what the overhead gates compare.
    ``on_tick(server, now)``, when given, runs after every poll — the
    monitoring-overhead probe hooks its alert manager and flight
    recorder here.
    """
    if pipeline is None:
        pipeline = train_bench_pipeline(seed=seed)
    clf = pipeline.classifier
    assert clf is not None
    pool, _ = make_truth_pool(clf.label_names, POOL_SIZE, seed)
    schedule = make_schedule(sessions, seconds, seed, POOL_SIZE)

    config = ServeConfig(
        max_batch=max_batch,
        max_queue=max(max_batch * 8, 256),
        idle_ttl_s=max(seconds, 10.0),
        stale_ttl_s=None,
    )
    server = AffectServer(pipeline, config)
    results = []
    start = time.perf_counter()
    for now, session_id, pool_index in schedule:
        results.extend(server.poll(now))
        if on_tick is not None:
            on_tick(server, now)
        results.extend(server.submit(session_id, pool[pool_index], now))
    results.extend(server.drain(seconds + config.max_wait_s))
    wall_s = time.perf_counter() - start

    windows = len(schedule)
    completed = [r for r in results if not r.shed]
    return {
        "served": {
            "windows": windows,
            "wall_s": wall_s,
            "windows_per_s": windows / wall_s if wall_s > 0 else 0.0,
            "latency_s": quantiles([r.latency_s for r in completed]),
            "cache_hit_rate": server.cache.hit_rate,
        },
        "accounting": {
            "submitted": server.submitted,
            "completed": server.completed,
            "shed": len(results) - len(completed),
            "pending_after_drain": server.pending,
            "dropped": server.dropped,
        },
    }


def interleaved_laps(
    run_arm: Callable[[str], float], arms: tuple[str, ...], repeats: int,
) -> list[dict[str, float]]:
    """Paired wall times of ``arms``: one dict ``{arm: wall}`` per lap.

    A discarded warm-up lap primes caches and the allocator; then every
    lap runs all arms back to back, so they share one slice of host
    drift, with the order rotated each lap so that no arm always enjoys
    the warm caches of running second.  Callers aggregate per-lap
    ratios (median) rather than each arm's best, which on a shared host
    would compare one arm's luckiest slice against another's.
    """
    for arm in arms:  # warm-up lap, discarded
        run_arm(arm)
    laps: list[dict[str, float]] = []
    for i in range(repeats):
        k = i % len(arms)
        laps.append({arm: run_arm(arm) for arm in arms[k:] + arms[:k]})
    return laps


def run_trace_workload(
    sessions: int = 8,
    seconds: float = 2.0,
    seed: int = 0,
    max_batch: int = 8,
    sample_rate: float = 1.0,
    pipeline: AffectClassifierPipeline | None = None,
) -> tuple[dict[str, object], list[Span]]:
    """The canned multi-session workload with tracing on.

    Clears the process tracer, reseeds its deterministic ID stream, runs
    :func:`run_serve_bench`, and returns the bench report plus every
    finished span — the input for the Perfetto / JSONL exporters and the
    ``repro trace`` tree view.
    """
    tracer = get_tracer()
    previous_rate = tracer.sample_rate
    tracer.configure(sample_rate=sample_rate, seed=seed)
    tracer.clear()
    try:
        report = run_serve_bench(
            sessions=sessions, seconds=seconds, seed=seed,
            max_batch=max_batch, pipeline=pipeline,
        )
        return report, tracer.spans
    finally:
        tracer.configure(sample_rate=previous_rate)


def serve_chain_coverage(spans: list[Span]) -> dict[str, object]:
    """How many completed windows carry a full, consistent span chain.

    A completed (non-shed) ``serve.window`` trace is *covered* when

    - every non-root span's ``parent_id`` resolves inside its trace, and
    - the expected stage chain is present: a ``cache.hit`` event on the
      root plus ``serve.controller`` for cache hits, ``serve.batch`` (+
      ``serve.predict`` unless the flush degraded) →
      ``serve.controller`` otherwise.

    The tracing gate: ``coverage`` must stay ≥ 0.95 on the canned
    workload.
    """
    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    windows = 0
    covered = 0
    for members in by_trace.values():
        roots = [s for s in members if s.name == "serve.window"]
        if not roots:
            continue
        root = roots[0]
        if root.attrs.get("shed"):
            continue
        windows += 1
        ids = {s.span_id for s in members}
        consistent = all(
            s.parent_id is None or s.parent_id in ids for s in members
        )
        names = {s.name for s in members}
        if root.attrs.get("cached"):
            if not any(e.name == "cache.hit" for e in root.events):
                continue
            chain = {"serve.controller"}
        elif root.attrs.get("degraded"):
            chain = {"serve.batch", "serve.controller"}
        else:
            chain = {"serve.batch", "serve.predict", "serve.controller"}
        if consistent and chain <= names:
            covered += 1
    return {
        "windows": windows,
        "covered": covered,
        "coverage": covered / windows if windows else 1.0,
    }
