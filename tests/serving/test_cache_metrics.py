"""Unit tests for the LRU cache and the engine's registry-backed metrics."""

import threading

import pytest

from repro.obs.metrics import LATENCY_BUCKETS, REGISTRY
from repro.serving import InferenceEngine, LRUCache


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("b", "fallback") == "fallback"

    def test_eviction_order_is_lru(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_maxsize_zero_disables(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)

    def test_hit_rate_and_stats(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_thread_safety_under_contention(self):
        cache = LRUCache(maxsize=64)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    cache.put((base, i % 80), i)
                    cache.get((base, (i + 1) % 80))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64


def _series(text: str, name: str, **labels) -> float:
    """The value of one series in a Prometheus exposition (0 when absent)."""
    want = "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}"
    for line in text.splitlines():
        series, _, value = line.rpartition(" ")
        if series == name + want:
            return float(value)
    return 0.0


class _Mixed:
    """Scores ``n`` candidates, answers ``bad`` with an error, raises on ``raise``.

    Each payload reads two rows of a real feature store, which backs the
    ``caches.features`` block as it does for the serving predictors.
    """

    kind = "mixed"

    def __init__(self, feature_store):
        self.feature_store = feature_store

    def predict_batch(self, payloads):
        if any(p.get("raise") for p in payloads):
            raise RuntimeError("kaboom")
        for _ in payloads:
            self.feature_store.history_rows([0, 1])
        return [
            {"error": {"code": "bad"}} if p.get("bad")
            else {"scores": {str(i): 0.5 for i in range(p["n"])}}
            for p in payloads
        ]


class TestMetricsViewsAgree:
    """The JSON ``/v1/metrics`` fields and the Prometheus series are one store."""

    KIND, IDLE = "views_mixed", "views_idle"

    def _prom(self, kind: str) -> dict:
        text = REGISTRY.render()
        return {
            "requests": _series(text, "repro_request_latency_seconds_count", kind=kind),
            "batches": _series(text, "repro_engine_batches_total", kind=kind),
            "errors": _series(text, "repro_request_errors_total", kind=kind),
            "predictions": _series(text, "repro_predictions_total", kind=kind),
        }

    def test_json_fields_match_exposition(self, loaded_bundles, batched):
        store = loaded_bundles["hategen"].extractor.store_
        engine = InferenceEngine(
            {self.KIND: _Mixed(store), self.IDLE: _Mixed(store)}, max_batch_size=4
        )
        before = engine.metrics()[self.KIND]
        # Queued at once for the batcher: the first four form one batch,
        # the two raising requests the next.
        payloads = [{"n": 1}, {"n": 2}, {"n": 3}, {"bad": True},
                    {"raise": True}, {"raise": True}]
        with engine:
            futures = batched(
                engine, lambda: [engine.submit(self.KIND, p) for p in payloads]
            )
            for future in futures[:4]:
                future.result()
            for future in futures[4:]:
                with pytest.raises(RuntimeError, match="kaboom"):
                    future.result()
            text = REGISTRY.render()
            hit_ratio = _series(text, "repro_cache_hit_ratio",
                                kind=self.KIND, cache="features")
            assert f'repro_cache_hit_ratio{{kind="{self.KIND}",cache="features"}}' in text
            features = engine.metrics()[self.KIND]["caches"]["features"]
            assert features == store.stats() and features["hits"] >= 2
            assert hit_ratio == features["hit_rate"] > 0.0
        after = engine.metrics()
        snap = after[self.KIND]
        prom = self._prom(self.KIND)
        for field in ("requests", "batches", "errors", "predictions"):
            assert snap[field] == prom[field], field
        delta = {f: snap[f] - before[f]
                 for f in ("requests", "batches", "errors", "predictions")}
        assert delta == {"requests": 4, "batches": 2, "errors": 3, "predictions": 6}
        assert snap["mean_batch_size"] == round(snap["requests"] / snap["batches"], 3)
        bounds_ms = {round(b * 1e3, 3) for b in LATENCY_BUCKETS}
        assert snap["p50_ms"] in bounds_ms and snap["p95_ms"] in bounds_ms
        assert snap["p50_ms"] <= snap["p95_ms"]
        idle = after[self.IDLE]
        assert idle["p50_ms"] == idle["p95_ms"] == 0.0
        assert idle["requests"] == idle["batches"] == 0 and idle["mean_batch_size"] == 0.0
        # A stopped engine no longer backs the hit-ratio gauge.
        assert "repro_cache_hit_ratio{" not in REGISTRY.render()
