"""From a workload's raw measurements to the metrics ``BENCHMARK.json`` names.

Both workload kinds hand over the same shapes: a ``nominal`` phase
summary (see :func:`perfbench.stats.score`, plus the phase's
``peak_rss_mb``) with ``max_rate_wps`` and ``setup_s`` for the
end-to-end metrics, and a ``traced_layers`` section for the per-layer
ones.
"""

from __future__ import annotations

from perfbench import stats
from perfbench.layers import LAYERS, self_time_by_layer

TIERS = ("lstm", "lstm_int8", "mlp_int8", "neutral")
#: Thread roles of :func:`perfbench.layers.thread_cpu_s`.
CPU_ROLES = ("main", "worker", "sampler", "other")


def end_to_end(raw: dict, agreement_floor: float) -> dict[str, object]:
    """End-to-end metrics, the correctness checks, and printable lines."""
    n = raw["nominal"]
    latency = n["latency"]
    failures = list(raw.get("failures", []))
    if n["answered"] != n["sent"]:
        failures.append(f"{n['sent'] - n['answered']} of {n['sent']} "
                        "windows got no reply")
    if latency["p99_ms"] is None:
        failures.append(f"p99 needs >= {stats.MIN_BEYOND} samples beyond "
                        f"it; the nominal phase has {latency['samples']}")
    agreement = n["label_agreement"]
    if agreement is None or agreement < agreement_floor:
        failures.append(f"label agreement {agreement} below "
                        f"{agreement_floor} on {n['label_checked']} windows")
    top = latency["top_per_mille"]
    lines = [
        f"nominal rate {n['rate']:g} windows/s: {n['sent']} windows sent, "
        f"{latency['samples']} latencies in {latency['chunks']} chunk(s) of "
        f">= {latency['chunk_samples']}; highest percentile a chunk "
        f"supports: p{(top or 0) / 10:g} = {latency['top_ms']} ms",
        f"fail_frac = {n['fail_frac']:.6g} ratio",
        f"slo_miss_frac = {n['slo_miss_frac']:.6g} ratio",
        f"degraded_frac = {n['degraded_frac']:.6g} ratio",
        f"max_rate_wps found by: {raw['max_rate_how']}",
    ]
    metrics = {
        "setup_s": raw["setup_s"],
        "latency_p50_ms": latency["p50_ms"] or 0.0,
        "latency_p99_ms": latency["p99_ms"] or 0.0,
        "max_rate_wps": raw["max_rate_wps"],
        "answered_frac": 1.0 - n["fail_frac"],
        "slo_met_frac": 1.0 - n["slo_miss_frac"],
        "full_answer_frac": 1.0 - n["degraded_frac"],
        "label_agreement": agreement or 0.0,
        "accuracy": n["accuracy"],
        "energy_per_window": n["energy_per_window"],
        "cpu_ms_per_window": n["cpu_ms_per_window"],
        "peak_rss_mb": n["peak_rss_mb"],
    }
    return {"metrics": metrics, "failures": failures, "lines": lines,
            "attempted": n["sent"], "failed": n["failed"]}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def _pct(values: list[float], per_mille: int) -> float:
    return stats.percentile(values, per_mille) if values else 0.0


def per_layer(raw: dict, agreement_floor: float) -> dict[str, object]:
    """Per-layer metrics of the traced phase, plus the tracing overhead."""
    t = raw["traced_layers"]
    agg = t["trace"]["aggregates"]
    delta = t["trace"]["delta"]
    calls, total, self_s, rows = (agg["calls"], agg["total_s"],
                                  agg["self_s"], agg["rows"])

    def c(name: str) -> int:
        return calls.get(name, 0)

    def tot(name: str) -> float:
        return total.get(name, 0.0)

    plain, traced = t["plain"], t["traced"]
    windows = traced["sent"]
    frames = c("daemon.protocol.parse_window")
    health = t["health_delta"]
    outcomes = t["outcomes"]
    adaptive = t["adaptive"]
    layer_self = self_time_by_layer(self_s)
    m: dict[str, float] = {
        "loadgen.lag_p99_ms": traced["lag_p99_ms"],
        "daemon.protocol.decode_us": _per(
            tot("daemon.protocol.feed") + tot("daemon.protocol.parse_window"),
            frames, 1e6),
        "daemon.protocol.encode_us": _per(
            tot("daemon.protocol.encode_frame"),
            c("daemon.protocol.encode_frame"), 1e6),
        "daemon.protocol.bytes_per_window": _per(
            rows.get("daemon.protocol.feed", 0), frames),
        "daemon.protocol.frames": frames,
        "daemon.server.outside_ms_p50": _pct(t["outside_ms"], 500),
        "daemon.server.outside_ms_p99": _pct(t["outside_ms"], 990),
        "daemon.server.busy_frac": _per(
            tot("serve.runtime.submit") + tot("serve.runtime.poll")
            + tot("serve.runtime.drain"), delta["wall_s"]),
        "daemon.server.shed": health.get("daemon_shed", 0),
        "daemon.server.unroutable": health.get("unroutable", 0),
        "daemon.server.protocol_errors": health.get("protocol_errors", 0),
        "serve.runtime.submit_us": _per(
            self_s.get("serve.runtime.submit", 0.0),
            c("serve.runtime.submit"), 1e6),
        "serve.runtime.poll_us": _per(
            self_s.get("serve.runtime.poll", 0.0),
            c("serve.runtime.poll"), 1e6),
        "serve.cache.hit_rate": _per(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "serve.cache.hash_us": _per(
            tot("serve.cache.window_hash"), c("serve.cache.window_hash"), 1e6),
        "serve.cache.evictions": delta["cache_evictions"],
        "serve.batcher.wait_ms_p50": _pct(t["wait_ms"], 500),
        "serve.batcher.wait_ms_p99": _pct(t["wait_ms"], 990),
        "serve.batcher.rows_per_flush": _per(
            delta["rows_flushed"], delta["flushes"]),
        "serve.batcher.unique_frac": _per(
            delta["unique_rows_flushed"], delta["rows_flushed"]),
        "serve.batcher.flush_ms": _per(
            tot("serve.batcher.flush"), c("serve.batcher.flush"), 1e3),
        "serve.batcher.degraded_flushes": delta["degraded_flushes"],
        "dsp.prepare_us_per_window": _per(
            tot("dsp.prepare_waveforms"),
            rows.get("dsp.prepare_waveforms", 0), 1e6),
        "dsp.windows": rows.get("dsp.prepare_waveforms", 0),
        "serve.sessions.deliver_us": _per(
            tot("serve.sessions.deliver"), c("serve.sessions.deliver"), 1e6),
        "serve.sessions.evict_idle_us": _per(
            tot("serve.sessions.evict_idle"),
            c("serve.sessions.evict_idle"), 1e6),
        "serve.sessions.created": delta["sessions_created"],
        "serve.sessions.evicted_idle": delta["sessions_evicted_idle"],
        "serve.sessions.evicted_lru": delta["sessions_evicted_lru"],
        "serve.sessions.peak_active": t["peak_active"],
        "serve.adaptive.tier_for_us": _per(
            tot("serve.adaptive.tier_for"), c("serve.adaptive.tier_for"), 1e6),
        "serve.adaptive.demotions": adaptive.get("demotions", 0),
        "serve.adaptive.promotions": adaptive.get("promotions", 0),
        "obs.monitor_us_per_tick": _per(
            tot("obs.alerts.observe") + tot("obs.flight.record"),
            c("obs.alerts.observe"), 1e6),
        "obs.prof.duty_frac": _per(delta["prof_sampling_s"],
                                   delta["wall_s"]),
        "trace.overhead.latency_p50_frac": (
            traced["latency"]["p50_ms"] / plain["latency"]["p50_ms"] - 1.0),
        "trace.overhead.cpu_frac": (
            traced["cpu_ms_per_window"] / plain["cpu_ms_per_window"] - 1.0),
        "trace.spans": agg["spans"],
        "cpu.system_frac": _per(
            delta["cpu_system_s"],
            sum(delta[f"cpu_{r}_s"] for r in CPU_ROLES)),
    }
    for role in CPU_ROLES:
        m[f"cpu.{role}_ms_per_window"] = _per(delta[f"cpu_{role}_s"],
                                              windows, 1e3)
    for outcome in ("completed", "cached", "absorbed", "shed"):
        m[f"serve.runtime.outcome.{outcome}"] = outcomes.get(outcome, 0)
    for tier in TIERS[:3]:
        name = f"nn.predict.{tier}"
        m[f"nn.predict_us_per_row.{tier}"] = _per(tot(name),
                                                  rows.get(name, 0), 1e6)
        m[f"nn.rows.{tier}"] = rows.get(name, 0)
    for tier in TIERS:
        m[f"serve.adaptive.tier_windows.{tier}"] = (
            adaptive.get("tier_windows", {}).get(tier, 0))
    for layer in LAYERS:
        m[f"self_us_per_window.{layer}"] = _per(layer_self[layer], windows, 1e6)
    lines = [
        f"traced phase: {windows} windows at {traced['rate']:g} windows/s; "
        f"{agg['spans']} spans ({agg['dropped_spans']} beyond the span cap)",
        f"tracing overhead: p50 {plain['latency']['p50_ms']:.4g} -> "
        f"{traced['latency']['p50_ms']:.4g} ms, cpu "
        f"{plain['cpu_ms_per_window']:.4g} -> "
        f"{traced['cpu_ms_per_window']:.4g} ms/window (untraced is of record)",
    ]
    failures = list(raw.get("failures", []))
    for phase in (plain, traced):
        if phase["answered"] != phase["sent"]:
            failures.append(f"{phase['sent'] - phase['answered']} windows "
                            "got no reply")
    if (plain["label_agreement"] or 0.0) < agreement_floor:
        failures.append(f"label agreement {plain['label_agreement']} below "
                        f"{agreement_floor} on {plain['label_checked']} "
                        "windows")
    return {"metrics": m, "failures": failures, "lines": lines,
            "attempted": plain["sent"] + traced["sent"],
            "failed": plain["failed"] + traced["failed"]}
