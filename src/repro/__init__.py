"""repro — reproduction of "Human Emotion Based Real-time Memory and
Computation Management on Resource-Limited Edge Devices" (DAC 2022).

Subpackages
-----------
- :mod:`repro.dsp` — audio feature extraction (MFCC, ZCR, RMSE, pitch).
- :mod:`repro.nn` — from-scratch numpy deep-learning framework + int8 PTQ.
- :mod:`repro.datasets` — synthetic substitutes for the paper's corpora.
- :mod:`repro.affect` — emotion models, classifier pipeline, SC inference.
- :mod:`repro.video` — simplified H.264/AVC codec with the affect knobs.
- :mod:`repro.hw` — calibrated activity-based power / area models.
- :mod:`repro.android` — Android-like app & memory management simulator.
- :mod:`repro.core` — the paper's affect-driven management schemes.
- :mod:`repro.obs` — process-wide metrics, timers, and span events.
- :mod:`repro.errors` — the typed exception hierarchy.
- :mod:`repro.resilience` — fault injection + graceful degradation.
- :mod:`repro.serve` — multi-session serving runtime (micro-batching,
  window cache, admission control).
- :mod:`repro.blas` — pins the loaded BLAS to the calling thread.
"""

__version__ = "1.0.0"

__all__ = [
    "affect",
    "android",
    "blas",
    "core",
    "datasets",
    "dsp",
    "errors",
    "hw",
    "nn",
    "obs",
    "resilience",
    "serve",
    "video",
]
