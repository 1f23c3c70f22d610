"""Seeded inputs: window pools, fresh windows, schedules, wire frames.

Every random draw comes from a generator keyed by
``(seed, workload, step)``, so a run is reproducible from its seed and
no two rate steps share a stream.  The program under test only ever
sees the windows built here.
"""

from __future__ import annotations

import base64
import hashlib
import zlib

import numpy as np

#: The serve-bench pool: distinct utterances cycling over the labels.
REPLAY_POOL_SIZE = 24
#: Relative size of the per-window perturbation of fresh windows.
FRESH_NOISE = 0.01
#: Pool contents are fixed (synthesis seed 0) so that accuracy compares
#: like with like across seeds; the seed picks windows and perturbations.
POOL_SYNTH_SEED = 0


def rng_for(seed: int, workload: str, step: int) -> np.random.Generator:
    """The generator for one (seed, workload, step)."""
    return np.random.default_rng(
        [seed, zlib.crc32(workload.encode()), step]
    )


def truth_pool(label_names: tuple[str, ...],
               size: int) -> tuple[list[np.ndarray], list[str]]:
    """``size`` synthetic utterances, window ``i`` spoken with label ``i % n``.

    The label a window was synthesized from is its true emotion, which
    is what lets the benchmark score every answer, fallbacks included.
    Samples are rounded to float32, as the wire carries them, so the
    offline reference sees exactly what the server sees.
    """
    from repro.datasets.speech import synthesize_utterance

    truths = [label_names[i % len(label_names)] for i in range(size)]
    pool = [
        synthesize_utterance(truths[i], actor=i % 4, sentence=i % 3,
                             take=i, seed=POOL_SYNTH_SEED)
        .astype(np.float32).astype(np.float64)
        for i in range(size)
    ]
    return pool, truths


def balanced_picks(rng: np.random.Generator, choices: int,
                   count: int) -> np.ndarray:
    """``count`` indices below ``choices`` in seeded order, each as often
    as any other (to within one).

    Pool windows differ in how often the model gets them right, so an
    independent draw per window would let accuracy move with the mix a
    seed happens to draw rather than with the program.
    """
    return rng.permutation(np.arange(count) % choices)


def fresh_windows(base: list[np.ndarray], count: int, seed: int,
                  workload: str, step: int,
                  ) -> tuple[list[np.ndarray], np.ndarray]:
    """``count`` new windows: a seeded base utterance, gain and noise each.

    Returns ``(windows, base_index)``.  Windows are float32-valued (the
    wire format); the per-window noise makes every one distinct from
    every other window of any step or seed.
    """
    rng = rng_for(seed, workload, step)
    index = balanced_picks(rng, len(base), count)
    gains = rng.uniform(0.9, 1.1, size=count)
    windows = []
    for k in range(count):
        src = base[int(index[k])]
        noise = rng.standard_normal(src.size) * (FRESH_NOISE * float(src.std()))
        windows.append(
            (src * gains[k] + noise).astype(np.float32).astype(np.float64)
        )
    return windows, index


def digest(window: np.ndarray) -> bytes:
    """Content digest of one window, to prove fresh windows never repeat."""
    return hashlib.blake2b(np.ascontiguousarray(window, dtype="<f4").tobytes(),
                           digest_size=16).digest()


def assert_unique(windows: list[np.ndarray], seen: set[bytes]) -> None:
    """Raise if any window repeats one in ``seen`` (which is updated)."""
    for window in windows:
        key = digest(window)
        if key in seen:
            raise AssertionError("a fresh window repeated")
        seen.add(key)


def open_loop_times(rate: float, seconds: float, connections: int,
                    ) -> list[list[float]]:
    """Fixed-rate send offsets per connection, interleaved evenly.

    Each connection sends at ``rate / connections``; connection ``c`` is
    shifted by ``c / rate`` so the merged stream is evenly spaced.
    """
    per_conn = rate / connections
    n = int(round(per_conn * seconds))
    return [[(i + c / connections) / per_conn for i in range(n)]
            for c in range(connections)]


def encode_payload(window: np.ndarray) -> bytes:
    """Base64 little-endian float32 samples (protocol v1 ``signal``)."""
    return base64.b64encode(np.ascontiguousarray(window, dtype="<f4").tobytes())


def window_frame(seq: int, payload: bytes) -> bytes:
    """One newline-terminated protocol v1 window frame."""
    return b'{"type":"window","seq":%d,"signal":"%s"}\n' % (seq, payload)
