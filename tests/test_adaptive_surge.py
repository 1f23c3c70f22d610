"""Surge gates: the default tier ladder absorbs an 8x surge the shed-only
runtime cannot.

One diurnal surge (96 sessions, 12 s of workload time, x8 burst, seed 0)
runs through two arms of :func:`~repro.serve.adaptive_bench.run_surge_arm`
on the identical schedule: the baseline runtime with no controller, and
the adaptive runtime over the default LSTM → LSTM int8 → MLP int8 →
neutral ladder.  Building the ladder and running both arms takes about
10 s, so the module shares one run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.slo import DEFAULT_SLOS
from repro.serve import adaptive_bench
from repro.serve.adaptive import AdaptiveController, build_default_ladder
from repro.serve.bench import make_surge_events, make_truth_pool

SESSIONS = 96
SECONDS = 12.0
SURGE_SCALE = 8.0
SEED = 0
LATENCY_SLO = next(o for o in DEFAULT_SLOS if o.name == "serve-p95-latency")


@pytest.fixture(scope="module")
def surge():
    pipeline, ladder = build_default_ladder(seed=SEED)
    pool, truths = make_truth_pool(pipeline.classifier.label_names,
                                   adaptive_bench.POOL_SIZE, SEED)
    events = make_surge_events(SESSIONS, SECONDS, SEED,
                               adaptive_bench.POOL_SIZE, SURGE_SCALE)
    baseline = adaptive_bench.run_surge_arm(pipeline, events, pool, truths,
                                            SECONDS)
    controller = AdaptiveController(
        ladder, adaptive_bench.bench_adaptive_config(None))
    adaptive = adaptive_bench.run_surge_arm(pipeline, events, pool, truths,
                                            SECONDS, adaptive=controller)
    # Per-rung accuracy over the whole pool, against always-neutral.
    rows = pipeline.prepare_waveforms(pool)
    names = pipeline.classifier.label_names
    truth = np.array(truths)
    rungs = {
        spec.name: float(np.mean(
            np.array([names[int(i)] for i in spec.predict_batch(rows)])
            == truth))
        for spec in ladder.tiers if not spec.terminal
    }
    return {
        "baseline": baseline,
        "adaptive": adaptive,
        "rungs": rungs,
        "neutral_accuracy": float(np.mean(truth == "neutral")),
    }


def test_surge_is_lethal_to_the_baseline(surge):
    assert surge["baseline"]["shed_frac"] >= 0.20


def test_ladder_absorbs_the_surge(surge):
    assert surge["adaptive"]["shed_frac"] < 0.02


def test_adaptive_p95_within_latency_slo(surge):
    assert surge["adaptive"]["latency_s"]["p95"] <= LATENCY_SLO.threshold


def test_answers_beat_always_neutral(surge):
    neutral = surge["neutral_accuracy"]
    assert surge["adaptive"]["accuracy"] >= neutral
    assert surge["rungs"], "ladder has no model rungs"
    for name, accuracy in surge["rungs"].items():
        assert accuracy >= neutral, (name, accuracy, neutral)


def test_no_drops_and_no_session_evicted(surge):
    assert surge["baseline"]["dropped"] == 0
    assert surge["adaptive"]["dropped"] == 0
    assert surge["adaptive"]["sessions_evicted"] == 0


def test_ladder_recovers_after_the_surge(surge):
    adaptive = surge["adaptive"]
    assert adaptive["adaptive"]["promotions"] > 0
    assert adaptive["sessions_at_top_after"] > 0
