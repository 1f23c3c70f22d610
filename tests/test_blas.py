"""BLAS pinning: lookup, no-op safety, the serve policy, and result parity."""

from __future__ import annotations

import ctypes.util

import numpy as np
import pytest

from repro import blas
from repro.affect.pipeline import AffectClassifierPipeline
from repro.datasets import emovo_like
from repro.datasets.speech import synthesize_utterance
from repro.obs import get_registry
from repro.serve import AffectServer, ServeConfig


@pytest.fixture()
def openblas():
    if blas.limit_threads(1) is None:
        pytest.skip("no OpenBLAS with a thread-count symbol is loaded")


@pytest.fixture(scope="module")
def pipeline():
    corpus = emovo_like(n_per_class=4, seed=0)
    p = AffectClassifierPipeline("mlp", seed=0)
    p.train(corpus, epochs=3)
    return p


@pytest.fixture(scope="module")
def pool(pipeline):
    names = pipeline.classifier.label_names
    return [synthesize_utterance(names[i % len(names)], actor=i % 3,
                                 sentence=i % 5, take=i)
            for i in range(16)]


class TestLookup:
    def test_maps_parse_keeps_openblas_once(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f00-7f01 r--p 00000000 fe:00 1  /usr/lib/libc.so.6\n"
            "7f01-7f02 r-xp 00001000 fe:00 2  /opt/x/libscipy_openblas64_-ab.so\n"
            "7f02-7f03 rw-p 00002000 fe:00 2  /opt/x/libscipy_openblas64_-ab.so\n"
            "7f03-7f04 rw-p 00000000 00:00 0 \n"
            "7f04-7f05 r--p 00000000 fe:00 3  /opt/openblas/libfoo.so\n"
            "7f05-7f06 r--p 00000000 fe:00 4  /opt/y dir/libopenblas.so.0\n"
        )
        assert blas.mapped_openblas(maps) == [
            "/opt/x/libscipy_openblas64_-ab.so",
            "/opt/y dir/libopenblas.so.0",
        ]

    def test_nothing_mapped_is_a_noop(self, monkeypatch):
        monkeypatch.setattr(blas, "mapped_openblas", lambda: [])
        assert blas.limit_threads(1) is None
        assert blas.limit_threads(1) is None

    def test_missing_symbol_is_a_noop(self, monkeypatch):
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no libc to stand in for a BLAS without the symbol")
        monkeypatch.setattr(blas, "mapped_openblas", lambda: [libc])
        assert blas.limit_threads(1) is None
        assert blas.limit_threads(1) is None

    def test_unloaded_library_is_never_loaded(self, monkeypatch):
        monkeypatch.setattr(blas, "mapped_openblas",
                            lambda: ["/nonexistent/libopenblas.so"])
        assert blas.limit_threads(1) is None

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            blas.limit_threads(0)


@pytest.mark.usefixtures("openblas")
class TestPinning:
    def test_count_reads_back_and_is_idempotent(self):
        try:
            assert blas.limit_threads(2) == 2
            assert blas.limit_threads(1) == 1
            assert blas.limit_threads(1) == 1
        finally:
            blas.limit_threads(1)

    def test_affect_server_pins_to_one_thread(self, pipeline):
        blas.limit_threads(2)
        server = AffectServer(pipeline, ServeConfig())
        assert server.blas_threads == 1
        assert blas.limit_threads(1) == 1
        gauges = get_registry().snapshot()["gauges"]
        assert gauges.get("serve.blas_threads") == 1.0

    def test_results_unchanged_by_pinning(self, pipeline, pool):
        quantized = pipeline.quantize()
        try:
            blas.limit_threads(2)
            rows_pool = pipeline.prepare_waveforms(pool)
            labels_pool = quantized.predict_batch(rows_pool)
        finally:
            blas.limit_threads(1)
        rows_one = pipeline.prepare_waveforms(pool)
        labels_one = quantized.predict_batch(rows_one)
        np.testing.assert_allclose(rows_one, rows_pool, rtol=1e-6, atol=1e-6)
        assert np.array_equal(labels_one, labels_pool)
