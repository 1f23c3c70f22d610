"""The benchmark's own arithmetic and input discipline.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import inputs, stats  # noqa: E402


# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (9, None),        # p50 of 9 leaves only 4 beyond
    (20, 500),
    (99, 500),        # p90 of 99 leaves 9 beyond
    (100, 900),
    (999, 900),       # p99 of 999 leaves 9 beyond
    (1000, 990),
    (9999, 990),
    (10000, 999),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_per_mille(n) == expected


def test_nearest_rank_percentile_is_a_sample():
    values = list(range(1, 1001))
    assert stats.percentile(values, 990) == 990
    assert stats.percentile(values, 500) == 500
    assert stats.samples_beyond(1000, 990) == 10


def test_p99_unsupported_below_a_thousand_samples():
    summary = stats.latency_summary([1.0] * 999)
    assert summary["p99_ms"] is None
    assert summary["top_per_mille"] == 900
    assert stats.latency_summary([1.0] * 1000)["p99_ms"] == 1.0


def test_chunked_percentiles_are_medians_over_chunks():
    # Three chunks of 1000; only the middle one has a slow tail.
    calm = [1.0] * 1000
    slow = [1.0] * 960 + [50.0] * 40
    summary = stats.chunked_latency(calm + slow + calm, max_chunks=7)
    assert summary["chunks"] == 3
    assert summary["p99_ms"] == 1.0
    pooled = stats.chunked_latency(calm + slow + calm, max_chunks=1)
    assert pooled["chunks"] == 1 and pooled["p99_ms"] == 50.0


def test_chunks_never_fall_below_the_p99_sample():
    summary = stats.chunked_latency([1.0] * 2999, max_chunks=7)
    assert summary["chunks"] == 2
    assert summary["chunk_samples"] >= stats.CHUNK_SAMPLES


# -- the saturated capacity -----------------------------------------------------


def test_service_rate_is_the_slope_of_the_reply_count():
    # 40 windows/s answered in batches of 4 every 0.1 s.
    times = [0.1 * (k // 4) for k in range(200)]
    assert stats.service_rate(times) == pytest.approx(40.0, rel=0.02)


def test_service_rate_hardly_moves_with_where_the_stretch_cuts_a_batch():
    times = [0.1 * (k // 32) for k in range(32 * 40)]
    rates = [stats.service_rate(times[cut:len(times) - 32 + cut])
             for cut in range(0, 32, 4)]
    assert max(rates) / min(rates) < 1.02
    assert stats.service_rate([1.0, 1.0]) is None
    assert stats.service_rate([]) is None


# -- scoring a phase -------------------------------------------------------------


def test_score_counts_each_window_by_one_rule():
    A = stats.Answer
    answers = [
        A(0.0, 0.0, "happy", 0.1, "completed", False, "happy", "happy"),
        # Over the limit, and disagreeing with its reference.
        A(0.1, 0.1, "sad", 0.7, "completed", False, "happy", "sad"),
        # A fallback: answered, degraded, not checked against a reference.
        A(0.2, 0.2, "sad", 0.21, "absorbed", True, "sad"),
        # An explicit shed fails the window.
        A(0.3, 0.3, "angry", 0.31, "shed", True, "neutral"),
        # No reply; sent 50 ms late.
        A(0.4, 0.45, "happy"),
    ]
    row = stats.score(answers, cpu_s=0.3)
    assert (row["sent"], row["answered"], row["failed"]) == (5, 4, 2)
    assert row["fail_frac"] == 0.4
    assert row["slo_miss_frac"] == 0.6
    assert row["degraded_frac"] == pytest.approx(1 / 3)
    assert (row["label_checked"], row["label_agreement"]) == (2, 0.5)
    assert row["accuracy"] == 0.4
    assert row["cpu_ms_per_window"] == pytest.approx(100.0)
    assert row["lag_p99_ms"] == pytest.approx(50.0)
    assert row["latency"]["samples"] == 3
    batched = stats.score(answers, cpu_s=0.3, batched_only=True)
    assert batched["latency"]["samples"] == 2
    assert batched["slo_miss_frac"] == row["slo_miss_frac"]


# -- names -------------------------------------------------------------------------


def test_benchmark_json_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"]
             + spec["per_layer"]]
    assert all(stats.NAME_RE.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(stats.UNIT_RE.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])


@pytest.mark.parametrize("bad", ["", "_lead", ".lead", "has space",
                                 "x" * 65, "semi;colon"])
def test_metric_name_regex_rejects(bad):
    assert not stats.NAME_RE.match(bad)


# -- inputs -------------------------------------------------------------------------


def _base(n: int = 3, size: int = 512) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.standard_normal(size) for _ in range(n)]


def test_schedules_are_deterministic_per_seed():
    a = inputs.rng_for(7, "wire_replay", 2).integers(1 << 30, size=8)
    b = inputs.rng_for(7, "wire_replay", 2).integers(1 << 30, size=8)
    c = inputs.rng_for(8, "wire_replay", 2).integers(1 << 30, size=8)
    d = inputs.rng_for(7, "wire_replay", 3).integers(1 << 30, size=8)
    e = inputs.rng_for(7, "wire_fresh", 2).integers(1 << 30, size=8)
    assert (a == b).all()
    assert not (a == c).all() and not (a == d).all() and not (a == e).all()


def test_balanced_picks_draw_every_choice_equally_often():
    picks = inputs.balanced_picks(inputs.rng_for(1, "surge", 0), 24, 1000)
    counts = np.bincount(picks, minlength=24)
    assert counts.max() - counts.min() <= 1 and counts.sum() == 1000
    again = inputs.balanced_picks(inputs.rng_for(1, "surge", 0), 24, 1000)
    other = inputs.balanced_picks(inputs.rng_for(2, "surge", 0), 24, 1000)
    assert (picks == again).all() and not (picks == other).all()


def test_open_loop_times_hold_the_rate():
    times = inputs.open_loop_times(100.0, 2.0, 2)
    merged = sorted(t for conn in times for t in conn)
    assert len(merged) == 200
    assert np.allclose(np.diff(merged), 0.01)
    assert times == inputs.open_loop_times(100.0, 2.0, 2)


def test_fresh_windows_are_reproducible():
    first, index = inputs.fresh_windows(_base(), 5, 3, "wire_fresh", 1)
    again, index_again = inputs.fresh_windows(_base(), 5, 3, "wire_fresh", 1)
    assert (index == index_again).all()
    assert all((x == y).all() for x, y in zip(first, again))


def test_fresh_windows_never_repeat_across_steps_and_seeds():
    seen: set[bytes] = set()
    for seed in (1, 2):
        for step in range(4):
            windows, _ = inputs.fresh_windows(_base(), 50, seed,
                                              "wire_fresh", step)
            inputs.assert_unique(windows, seen)
    assert len(seen) == 400


def test_assert_unique_catches_a_repeat():
    windows, _ = inputs.fresh_windows(_base(), 3, 1, "wire_fresh", 0)
    with pytest.raises(AssertionError):
        inputs.assert_unique(windows + [windows[1].copy()], set())


def test_window_frame_is_protocol_v1():
    window = np.linspace(-1, 1, 16)
    frame = json.loads(inputs.window_frame(5, inputs.encode_payload(window)))
    assert frame["type"] == "window" and frame["seq"] == 5
    sys.path.insert(0, str(ROOT / "src"))
    from repro.daemon.protocol import decode_signal

    assert np.allclose(decode_signal(frame["signal"]), window, atol=1e-7)
