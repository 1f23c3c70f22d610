"""The surge workload: the adaptive server in-process, on wall-clock time.

One thread plays the daemon's part: it calls ``submit`` at each
window's scheduled instant and ``poll`` every 20 ms, passing the wall
clock as workload time.  Arrivals follow
:func:`repro.datasets.phone_usage.surge_schedule` (a compressed day with
an 8x evening surge) over enough sessions that the surge's bursts
overrun the model tiers, so the ladder has to move work onto its
cheaper rungs.  The server is configured as the repository's own surge
bench configures it (:mod:`repro.serve.adaptive_bench`).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from perfbench import inputs, stats
from perfbench.layers import LayerTracer, server_counters
from perfbench.stats import LIMIT_MS
from perfbench.wire import peak_rss_mb, reset_peak_rss

#: Off-peak, sessions send 2 x intensity windows/s each, which keeps the
#: morning (at most ~145 windows/s) under the top tier's capacity (~200
#: windows/s on the 2-core reference machine).  In the surge every session
#: sends in the same instant every 0.5 s: 96-window bursts, twice the
#: admission queue (48), so the ladder must demote, absorb or shed.
SESSIONS = 96
SURGE_SCALE = 8.0
#: The share of the day the surge covers (``surge_schedule``'s defaults).
SURGE_START, SURGE_END = 0.3, 0.7
#: The daemon's poll period.
POLL_S = 0.02
#: Builds per run; ``setup_s`` is their median.
SETUPS = 3


class SurgeWorkload:
    def __init__(self, out_dir, seed: int, seconds: float,
                 trace: bool) -> None:
        self.out_dir = out_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace

    def _build(self):
        """Train the default ladder and build the server (what set-up pays)."""
        from repro.serve.adaptive import build_default_ladder

        started = time.perf_counter()
        pipeline, ladder = build_default_ladder(seed=0)
        server = self._server(pipeline, ladder)
        return pipeline, ladder, server, time.perf_counter() - started

    def _server(self, pipeline, ladder):
        from repro.serve import adaptive_bench as bench
        from repro.serve.adaptive import AdaptiveController
        from repro.serve.runtime import AffectServer, ServeConfig

        config = ServeConfig(
            max_batch=bench.MAX_BATCH, max_wait_s=bench.MAX_WAIT_S,
            max_queue=bench.MAX_QUEUE, cache_capacity=bench.CACHE_CAPACITY,
            idle_ttl_s=max(self.seconds * 2, 30.0), stale_ttl_s=None,
        )
        controller = AdaptiveController(ladder, bench.bench_adaptive_config(None))
        return AffectServer(pipeline, config, adaptive=controller)

    def _reference(self, pipeline, ladder, pool) -> dict[str, list[str]]:
        """Offline labels of every pool window, per model tier."""
        rows = pipeline.prepare_waveforms(pool)
        names = pipeline.classifier.label_names
        return {
            spec.name: [names[int(i)] for i in spec.predict_batch(rows)]
            for spec in ladder.tiers if not spec.terminal
        }

    def run(self) -> dict[str, object]:
        from repro.datasets.phone_usage import surge_schedule
        from repro.serve import adaptive_bench as bench

        # The median of three keeps the first build's one-off import and
        # first-touch costs from setting the number.
        setups = []
        build = None
        for _ in range(SETUPS):
            build = None  # free the last build before training the next
            build = self._build()
            setups.append(build[3])
        pipeline, ladder, server, _ = build
        pool, truths = inputs.truth_pool(pipeline.classifier.label_names,
                                         bench.POOL_SIZE)
        reference = self._reference(pipeline, ladder, pool)
        seconds = self.seconds / 2 if self.trace else self.seconds
        events = surge_schedule(SESSIONS, seconds, seed=self.seed,
                                surge_scale=SURGE_SCALE,
                                surge_start_frac=SURGE_START,
                                surge_end_frac=SURGE_END)
        rng = inputs.rng_for(self.seed, "surge", 0)
        picks = inputs.balanced_picks(rng, len(pool), len(events)).tolist()
        schedule = [(at, f"user-{s:04d}", picks[k])
                    for k, (at, s) in enumerate(events)]
        # The peak memory of record covers serving the (untraced) day
        # alone: the high-water mark restarts once set-up is done.
        gc.collect()
        reset_peak_rss()
        plain = self._drive(server, schedule, pool, seconds)
        nominal = self._summary(plain, schedule, truths, reference, seconds)
        nominal["peak_rss_mb"] = peak_rss_mb()
        raw = {"nominal": nominal, "failures": plain["failures"]}
        if not self.trace:
            raw.update(max_rate_wps=nominal.pop("goodput_wps"),
                       max_rate_how="model answers within the limit per "
                       "second during the surge")
        else:
            tracer = LayerTracer()
            server = self._server(pipeline, ladder)
            before = server_counters(server)
            tracer.install(server)
            try:
                traced = self._drive(server, schedule, pool, seconds)
            finally:
                tracer.uninstall()
            after = server_counters(server)
            tracer.write_spans(self.out_dir / "trace-surge.json.spans.jsonl")
            raw["traced_layers"] = self._layers(
                nominal, traced, schedule, truths, reference, seconds,
                tracer, before, after)
            raw["failures"] += traced["failures"]
        raw.update(setup_s=statistics.median(setups), setups_s=setups,
                   sessions=SESSIONS, windows=len(schedule))
        return raw

    # -- driving --

    def _drive(self, server, schedule, pool,
               seconds: float) -> dict[str, object]:
        """Submit each window at its instant; poll on the daemon's period."""
        perf = time.perf_counter
        n = len(schedule)
        replies: dict[int, tuple[float, object]] = {}
        submitted_at = [0.0] * n
        duplicates = 0
        peak_active = 0

        def record(results, at: float) -> None:
            nonlocal duplicates
            for result in results:
                if result.seq in replies:
                    duplicates += 1
                replies[result.seq] = (at, result)

        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu0 = usage.ru_utime + usage.ru_stime
        t0 = perf() + 0.05
        next_poll = 0.0
        i = 0
        while True:
            now = perf() - t0
            while i < n and schedule[i][0] <= now:
                _, session_id, pick = schedule[i]
                submitted_at[i] = now
                # The server numbers submits from 0, so seq == i.
                results = server.submit(session_id, pool[pick], now)
                now = perf() - t0
                record(results, now)
                i += 1
            peak_active = max(peak_active, len(server.sessions))
            if now >= next_poll:
                results = server.poll(now)
                now = perf() - t0
                record(results, now)
                next_poll = now + POLL_S
            if i == n and now >= seconds:
                break
            wake = min(next_poll, schedule[i][0] if i < n else seconds)
            if wake > now:
                time.sleep(wake - now)
        now = perf() - t0
        record(server.drain(now), perf() - t0)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        failures = []
        if len(replies) != n or duplicates:
            failures.append(f"{n} windows got {len(replies)} distinct "
                            f"results and {duplicates} duplicates")
        dropped = server.stats()["dropped"]
        if dropped:
            failures.append(f"the server accounts {dropped} dropped")
        return {
            "failures": failures,
            "replies": replies,
            "submitted_at": submitted_at,
            "duplicates": duplicates,
            "cpu_s": usage.ru_utime + usage.ru_stime - cpu0,
            "energy": server.adaptive.energy_drained,
            "adaptive": server.adaptive.stats(),
            "peak_active": peak_active,
        }

    # -- scoring --

    def _summary(self, arm, schedule, truths, reference,
                 seconds: float) -> dict[str, object]:
        """End-to-end numbers of one day (see :func:`perfbench.stats.score`).

        Absorbed and cached windows are answered inside ``submit``, the
        rest wait for a batch: two modes whose mixture sits near half and
        half, so the median of all answers falls on the cliff between
        them.  Latency percentiles are therefore over the batched ones.
        """
        top = next(iter(reference))  # ladder order: the best tier first
        answers = []
        for k, (due, _, pick) in enumerate(schedule):
            at, result = arm["replies"].get(k, (None, None))
            if result is None:
                answers.append(stats.Answer(due, arm["submitted_at"][k],
                                            truths[pick]))
                continue
            # Cache hits and absorbed hits carry the top tier's label.
            tier = result.tier if result.outcome == "completed" else top
            answers.append(stats.Answer(
                due, arm["submitted_at"][k], truths[pick], at,
                result.outcome, result.degraded, result.label,
                None if result.degraded else reference[tier][pick],
            ))
        row = stats.score(answers, arm["cpu_s"], batched_only=True)
        surge_lo, surge_hi = SURGE_START * seconds, SURGE_END * seconds
        good = sum(
            1 for a in answers
            if surge_lo <= a.due_s < surge_hi and a.outcome == "completed"
            and not a.degraded and a.reply_s - a.due_s <= LIMIT_MS / 1e3
        )
        row.update(
            rate=len(schedule) / seconds,
            energy_per_window=arm["energy"] / len(schedule),
            goodput_wps=good / (surge_hi - surge_lo),
            duplicates=arm["duplicates"],
            tier_windows=arm["adaptive"]["tier_windows"],
        )
        return row

    def _layers(self, plain, traced, schedule, truths, reference, seconds,
                tracer, before, after) -> dict[str, object]:
        replies = [r for _, r in traced["replies"].values()]
        outcomes: dict[str, int] = {}
        for result in replies:
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        return {
            "plain": plain,
            "traced": self._summary(traced, schedule, truths, reference,
                                    seconds),
            "trace": {"aggregates": tracer.aggregates(),
                      "delta": {k: after[k] - before[k] for k in after}},
            "health_delta": {},
            "peak_active": traced["peak_active"],
            "outcomes": outcomes,
            "outside_ms": [],
            "wait_ms": [r.latency_s * 1e3 for r in replies
                        if r.outcome == "completed"],
            "adaptive": traced["adaptive"],
        }
