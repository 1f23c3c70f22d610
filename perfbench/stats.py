"""The benchmark's own arithmetic: percentiles, capacity, names.

Pure functions with no dependency on the program under test, so
``perfbench/tests`` can pin them down without starting anything.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass

#: What ``BENCHMARK.json`` accepts as a metric or workload name.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: What ``BENCHMARK.json`` accepts as a unit.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: The repository's real-time objective (``serve-p95-latency``, 0.5 s),
#: applied to the highest percentile a phase supports.
LIMIT_MS = 500.0

#: Candidate percentiles in per-mille (p50, p90, p99, p99.9).
PERCENTILES_PER_MILLE = (500, 900, 990, 999)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(n: int, per_mille: int) -> int:
    """Nearest-rank index (1-based) of the ``per_mille`` percentile of n."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(1, -(-per_mille * n // 1000))


def samples_beyond(n: int, per_mille: int) -> int:
    """Samples strictly above the nearest-rank percentile of n samples."""
    return n - rank(n, per_mille)


def supported_per_mille(n: int) -> int | None:
    """Highest candidate percentile with ``MIN_BEYOND`` samples beyond it."""
    for per_mille in sorted(PERCENTILES_PER_MILLE, reverse=True):
        if n >= 1 and samples_beyond(n, per_mille) >= MIN_BEYOND:
            return per_mille
    return None


def percentile(values: list[float], per_mille: int) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), per_mille) - 1]


def latency_summary(latencies_ms: list[float]) -> dict[str, object]:
    """Median, p99 and the highest supported percentile of a sample.

    ``p99_ms`` is ``None`` when fewer than ``MIN_BEYOND`` samples lie
    beyond it: the caller must size the phase so that p99 is supported.
    """
    n = len(latencies_ms)
    if n == 0:
        return {"samples": 0, "p50_ms": None, "p99_ms": None,
                "top_per_mille": None, "top_ms": None}
    top = supported_per_mille(n)
    p99_ok = samples_beyond(n, 990) >= MIN_BEYOND
    return {
        "samples": n,
        "p50_ms": percentile(latencies_ms, 500),
        "p99_ms": percentile(latencies_ms, 990) if p99_ok else None,
        "top_per_mille": top,
        "top_ms": percentile(latencies_ms, top) if top is not None else None,
    }


#: The smallest sample whose p99 has ``MIN_BEYOND`` samples beyond it.
CHUNK_SAMPLES = 1000


def chunked_latency(latencies_ms: list[float],
                    max_chunks: int) -> dict[str, object]:
    """Percentiles as medians over consecutive chunks of one phase.

    ``latencies_ms`` must be in send order.  The phase is cut into as
    many consecutive chunks of at least :data:`CHUNK_SAMPLES` as it
    holds (at most ``max_chunks``); the reported percentile is the
    median of the chunks' own, so one disturbed stretch of the phase
    does not set the number.  With one chunk this is
    :func:`latency_summary` of the whole phase.
    """
    n = len(latencies_ms)
    k = max(1, min(max_chunks, n // CHUNK_SAMPLES))
    bounds = [n * i // k for i in range(k + 1)]
    chunks = [latencies_ms[bounds[i]:bounds[i + 1]] for i in range(k)]
    summary = latency_summary(chunks[0]) if k == 1 else {
        "samples": n,
        "p50_ms": statistics.median(percentile(c, 500) for c in chunks),
        "p99_ms": statistics.median(percentile(c, 990) for c in chunks),
        "top_per_mille": supported_per_mille(min(map(len, chunks))),
    }
    if k > 1:
        top = summary["top_per_mille"]
        summary["top_ms"] = statistics.median(percentile(c, top) for c in chunks)
    summary.update(chunks=k, chunk_samples=min(len(c) for c in chunks))
    return summary


@dataclass(frozen=True)
class Answer:
    """One window of a phase as scored.

    ``reply_s`` is ``None`` when no reply came; ``reference`` is the
    offline label to check the reply against, ``None`` where none was
    computed.  Times are seconds on one clock.
    """

    due_s: float
    sent_s: float
    truth: str
    reply_s: float | None = None
    outcome: str = ""
    degraded: bool = False
    label: str | None = None
    reference: str | None = None


def score(answers: list[Answer], cpu_s: float, max_chunks: int = 1,
          batched_only: bool = False) -> dict[str, object]:
    """The end-to-end numbers of one phase; one rule for every workload.

    ``answers`` in due order.  A window fails with no reply or an
    explicit shed, and misses the limit when it fails or its reply came
    more than :data:`LIMIT_MS` after it was due.  Latency percentiles
    (:func:`chunked_latency`) cover every served window, or with
    ``batched_only`` those a batch answered (outcome ``completed``).
    Replies that are not a fallback are checked against their
    ``reference``; every reply, fallbacks included, against its truth.
    ``cpu_s`` is the serving process's CPU over the phase.
    """
    sent = len(answers)
    answered = [a for a in answers if a.reply_s is not None]
    served = [a for a in answered if a.outcome != "shed"]
    failed = sent - len(served)
    latencies = [(a.reply_s - a.due_s) * 1e3 for a in served]
    timed = [ms for a, ms in zip(served, latencies)
             if not batched_only or a.outcome == "completed"]
    model = [a for a in served if not a.degraded]
    checked = [a for a in model if a.reference is not None]
    return {
        "sent": sent,
        "answered": len(answered),
        "failed": failed,
        "fail_frac": failed / sent,
        "slo_miss_frac": (failed + sum(ms > LIMIT_MS for ms in latencies))
        / sent,
        "degraded_frac": 1.0 - len(model) / len(served) if served else 1.0,
        "latency": chunked_latency(timed, max_chunks),
        "label_checked": len(checked),
        "label_agreement": (sum(a.label == a.reference for a in checked)
                            / len(checked) if checked else None),
        "accuracy": sum(a.label == a.truth for a in answered) / sent,
        "cpu_ms_per_window": cpu_s * 1e3 / max(1, len(served)),
        "lag_p99_ms": percentile([(a.sent_s - a.due_s) * 1e3
                                  for a in answers], 990),
    }


def service_rate(reply_times_s: list[float]) -> float | None:
    """Windows answered per second over a stretch of saturated serving.

    The least-squares slope of the running reply count against reply
    time.  Replies come in batches, so a count between two instants
    would move by up to a batch with where the instants fall; the slope
    weighs every reply.  ``None`` with fewer than two distinct instants.
    """
    times = sorted(reply_times_s)
    if len(set(times)) < 2:
        return None
    return statistics.linear_regression(times, range(len(times))).slope
