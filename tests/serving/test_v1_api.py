"""API v1 tests: versioned routes, typed errors, batch fan-out, the
deprecation shim (byte-identical legacy responses + ``Deprecation``
header), model-lifecycle endpoints, and hot reload under concurrent load.
"""

import http.client
import json
import threading

import numpy as np
import pytest

from repro.client import ServingClient
from repro.serving import (
    HateGenPredictor,
    InferenceEngine,
    ModelRegistry,
    PredictionServer,
    RetinaBundle,
    RetweeterPredictor,
    ServingError,
    engine_from_store,
)
from repro.serving.schemas import ErrorResponse, HateGenResponse, RetweeterResponse


@pytest.fixture(scope="module")
def server(registry):
    """A live v1 server over the session registry (lifecycle routes on)."""
    engine = engine_from_store(registry, max_batch_size=32, max_wait_ms=1.0)
    with PredictionServer(engine, port=0, registry=registry) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    host, port = server.address
    with ServingClient(host=host, port=port, retries=0) as c:
        yield c


def raw_request(server, method, path, body=None, headers=None):
    """One raw HTTP round trip returning (status, headers, parsed body)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, payload,
                     {"Content-Type": "application/json", **(headers or {})})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.headers), json.loads(raw) if raw else {}
    finally:
        conn.close()


class TestV1Predict:
    def test_retweeters_typed_round_trip(self, client, trained_retina):
        trainer, _, test_samples = trained_retina
        sample = test_samples[0]
        resp = client.predict_retweeters(
            sample.candidate_set.cascade.root.tweet_id,
            user_ids=list(sample.candidate_set.users),
        )
        assert isinstance(resp, RetweeterResponse)
        got = np.array([resp.scores[str(u)] for u in sample.candidate_set.users])
        np.testing.assert_allclose(got, trainer.predict_static_scores(sample), atol=1e-12)

    def test_hategen_typed_round_trip(self, client, trained_hategen):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        resp = client.predict_hategen(t.user_id, t.hashtag, t.timestamp)
        assert isinstance(resp, HateGenResponse)
        assert 0.0 <= resp.score <= 1.0 and resp.label in (0, 1)

    def test_structured_errors_with_correct_status(self, server):
        status, _, body = raw_request(
            server, "POST", "/v1/predict/retweeters", {"cascade_id": 10**9}
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert body["error"]["field"] == "cascade_id"

        status, _, body = raw_request(server, "POST", "/v1/predict/retweeters", {})
        assert status == 400 and body["error"]["code"] == "missing_field"

        status, _, body = raw_request(
            server, "POST", "/v1/predict/retweeters",
            {"cascade_id": 1, "casacde_id": 2},
        )
        assert status == 400 and body["error"]["code"] == "unknown_field"

    def test_client_raises_typed_error(self, client):
        with pytest.raises(ServingError) as exc_info:
            client.predict_hategen(10**9, "nope", 1.0)
        assert exc_info.value.status == 404
        assert exc_info.value.code == "not_found"

    def test_client_validates_before_the_wire(self, client):
        with pytest.raises(ServingError) as exc_info:
            client.predict_retweeters(1, top_k=0)
        assert exc_info.value.code == "out_of_range"

    def test_unknown_kind_404(self, server):
        status, _, body = raw_request(server, "POST", "/v1/predict/nothing", {"a": 1})
        assert status == 404 and body["error"]["code"] == "unknown_predictor"

    def test_health_and_metrics(self, client):
        health = client.health()
        assert health.status == "ok" and health.api == "v1"
        assert health.models["retweeters"]["source"]["name"] == "retina"
        metrics = client.metrics()
        assert "retweeters" in metrics and "caches" in metrics["retweeters"]


class TestBatchEndpoint:
    def test_batch_matches_singles(self, client, trained_retina):
        _, _, test_samples = trained_retina
        requests = [
            {"cascade_id": s.candidate_set.cascade.root.tweet_id,
             "user_ids": list(s.candidate_set.users[:4])}
            for s in test_samples[:3]
        ]
        batch = client.predict_many("retweeters", requests)
        assert batch.n_ok == 3 and batch.n_errors == 0
        for req, got in zip(requests, batch.results):
            solo = client.predict_retweeters(
                req["cascade_id"], user_ids=req["user_ids"]
            )
            assert got.cascade_id == solo.cascade_id
            for uid, score in solo.scores.items():
                np.testing.assert_allclose(got.scores[uid], score, rtol=1e-12)

    def test_per_item_errors_keep_order(self, client, trained_retina):
        _, _, test_samples = trained_retina
        good = {
            "cascade_id": test_samples[0].candidate_set.cascade.root.tweet_id,
            "user_ids": list(test_samples[0].candidate_set.users[:3]),
        }
        batch = client.predict_many("retweeters", [good, {"cascade_id": -1}, good])
        assert batch.n_ok == 2 and batch.n_errors == 1
        assert isinstance(batch.results[0], RetweeterResponse)
        assert isinstance(batch.results[1], ErrorResponse)
        assert batch.results[1].status == 404
        assert isinstance(batch.results[2], RetweeterResponse)

    def test_hategen_batch(self, client, trained_hategen):
        _, test_tweets = trained_hategen
        requests = [
            {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp}
            for t in test_tweets[:4]
        ]
        batch = client.predict_many("hategen", requests)
        assert batch.n_ok == 4
        assert all(isinstance(r, HateGenResponse) for r in batch.results)

    def test_malformed_batch_body(self, server):
        status, _, body = raw_request(server, "POST", "/v1/batch/retweeters",
                                      {"requests": []})
        assert status == 400 and body["error"]["code"] == "empty"


class TestDeprecationShim:
    """Legacy unversioned routes: same bytes, plus deprecation headers."""

    def test_legacy_retweeters_byte_identical(self, server, trained_retina):
        _, _, test_samples = trained_retina
        sample = test_samples[0]
        payload = {
            "cascade_id": sample.candidate_set.cascade.root.tweet_id,
            "user_ids": list(sample.candidate_set.users),
        }
        s_legacy, h_legacy, legacy = raw_request(
            server, "POST", "/predict/retweeters", payload
        )
        s_v1, h_v1, v1 = raw_request(
            server, "POST", "/v1/predict/retweeters", payload
        )
        assert s_legacy == s_v1 == 200
        # The PR 1 README response contract, field for field.
        assert set(legacy) == {"cascade_id", "mode", "interval", "scores", "ranking"}
        assert legacy == v1  # shim delegates: identical JSON document
        assert h_legacy.get("Deprecation") == "true"
        assert "/v1/predict/retweeters" in h_legacy.get("Link", "")
        assert "Deprecation" not in h_v1

    def test_legacy_hategen_byte_identical(self, server, trained_hategen):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        payload = {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp}
        s_legacy, h_legacy, legacy = raw_request(
            server, "POST", "/predict/hategen", payload
        )
        _, _, v1 = raw_request(server, "POST", "/v1/predict/hategen", payload)
        assert s_legacy == 200 and legacy == v1
        assert {"user_id", "hashtag", "timestamp", "score", "label",
                "probabilistic"} <= set(legacy)
        assert h_legacy.get("Deprecation") == "true"

    def test_legacy_errors_stay_flat_strings(self, server):
        status, headers, body = raw_request(
            server, "POST", "/predict/retweeters", {"cascade_id": 10**9}
        )
        assert status == 404
        assert isinstance(body["error"], str) and "unknown cascade" in body["error"]
        assert body["status"] == 404
        assert headers.get("Deprecation") == "true"

    def test_legacy_healthz_and_metrics(self, server):
        status, headers, body = raw_request(server, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert headers.get("Deprecation") == "true"
        status, headers, _ = raw_request(server, "GET", "/metrics")
        assert status == 200 and headers.get("Deprecation") == "true"


class TestSocketHygiene:
    def test_oversized_body_rejected_before_read(self, server):
        """413 must come back *before* the body is transmitted."""
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/predict/retweeters")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(64 * 1024 * 1024))
            conn.endheaders()  # no body bytes sent at all
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 413
            assert body["error"]["code"] == "body_too_large"
            assert resp.headers.get("Connection") == "close"
        finally:
            conn.close()

    def test_unknown_post_route_closes_connection(self, server):
        status, headers, _ = raw_request(server, "POST", "/v1/nope", {"a": 1})
        assert status == 404
        assert headers.get("Connection") == "close"

    def test_missing_body_closes_connection(self, server):
        status, headers, body = raw_request(server, "POST", "/v1/predict/retweeters")
        assert status == 400
        assert body["error"]["code"] == "missing_body"
        assert headers.get("Connection") == "close"


class TestModelLifecycleRoutes:
    def test_models_listing(self, client):
        models = {m.name: m for m in client.models().models}
        assert set(models) == {"retina", "hategen"}
        assert models["retina"].kind == "retina"
        assert models["retina"].latest in models["retina"].versions

    def test_manifest_and_versions(self, client):
        manifest = client.model("retina")
        assert manifest["kind"] == "retina" and manifest["version"] >= 1
        versions = client.versions("retina")
        assert versions.name == "retina"
        assert versions.latest == versions.versions[-1]

    def test_non_integer_version_query_is_400(self, server):
        status, _, body = raw_request(server, "GET", "/v1/models/retina?version=abc")
        assert status == 400
        assert body["error"]["code"] == "invalid_type"
        assert body["error"]["field"] == "version"

    def test_unknown_model_is_404_not_500(self, client):
        with pytest.raises(ServingError) as exc_info:
            client.model("ghost")
        assert exc_info.value.status == 404
        assert exc_info.value.code == "model_not_found"
        assert "ghost" in str(exc_info.value)

    def test_registryless_server_says_503(self, loaded_bundles):
        engine = InferenceEngine(
            {"retweeters": RetweeterPredictor(loaded_bundles["retina"])},
            max_wait_ms=1.0,
        )
        with PredictionServer(engine, port=0) as srv:
            status, _, body = raw_request(srv, "GET", "/v1/models")
            assert status == 503
            assert body["error"]["code"] == "registry_unavailable"


class TestHotReload:
    """Acceptance: reload swaps to a newly saved version with zero failed
    requests under >= 200 concurrent in-flight requests."""

    @pytest.fixture()
    def reload_registry(self, tmp_path, trained_retina, serving_world):
        trainer, extractor, test_samples = trained_retina
        registry = ModelRegistry(tmp_path / "reload-registry")
        registry.save_bundle(
            "retina-live",
            RetinaBundle(
                model=trainer.model, extractor=extractor,
                world_config=serving_world.world.config,
            ),
        )
        return registry, extractor, test_samples

    def _v2_bundle(self, extractor, serving_world):
        from repro.core.retina import RETINA

        model = RETINA(
            user_dim=extractor.user_feature_dim,
            tweet_dim=extractor.news_doc2vec_dim,
            news_dim=extractor.news_doc2vec_dim,
            mode="static",
            random_state=7,  # different init: v2 scores are distinguishable
        )
        model.eval()
        return RetinaBundle(
            model=model, extractor=extractor,
            world_config=serving_world.world.config,
        )

    def test_zero_failed_requests_across_the_swap(
        self, reload_registry, serving_world
    ):
        registry, extractor, test_samples = reload_registry
        engine = engine_from_store(registry, ["retina-live"], max_wait_ms=0.5)
        payloads = [
            {"cascade_id": s.candidate_set.cascade.root.tweet_id,
             "user_ids": list(s.candidate_set.users[:3])}
            for s in test_samples[:3]
        ]
        n_threads, per_thread = 8, 30  # 240 requests riding across the swap
        results, errors = [], []
        lock = threading.Lock()
        start = threading.Barrier(n_threads + 1)

        def load_client(host, port):
            c = ServingClient(host=host, port=port, retries=0, pool_size=1)
            try:
                start.wait(timeout=30)
                for i in range(per_thread):
                    r = c.predict_retweeters(**_as_kwargs(payloads[i % len(payloads)]))
                    with lock:
                        results.append(r)
            except Exception as exc:  # pragma: no cover - failure detail
                with lock:
                    errors.append(repr(exc))
            finally:
                c.close()

        def _as_kwargs(p):
            return {"cascade_id": p["cascade_id"], "user_ids": p["user_ids"]}

        with PredictionServer(engine, port=0, registry=registry) as srv:
            host, port = srv.address
            threads = [
                threading.Thread(target=load_client, args=(host, port))
                for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            # Commit v2 while the server is live, then hot-swap to it
            # mid-load.
            registry.save_bundle(
                "retina-live", self._v2_bundle(extractor, serving_world)
            )
            start.wait(timeout=30)
            with ServingClient(host=host, port=port, retries=0) as admin:
                reload_resp = admin.reload("retina-live")
                assert reload_resp.version == 2
                assert reload_resp.previous_version == 1
                assert reload_resp.kind == "retweeters"
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert len(results) == n_threads * per_thread
            assert all(r.scores for r in results)

            # After the swap, answers come from the v2 weights exactly.
            v2 = RetweeterPredictor(registry.load_bundle("retina-live", 2,
                                                         world=extractor.world))
            expected = v2.predict_batch([payloads[0]])[0]
            with ServingClient(host=host, port=port, retries=0) as check:
                got = check.predict_retweeters(**_as_kwargs(payloads[0]))
            assert got.scores == expected["scores"]
            # And the engine reports the new source version.
            described = srv.engine.describe()["retweeters"]
            assert described["source"] == {"name": "retina-live", "version": 2}

    def test_reload_via_alias(self, reload_registry, serving_world):
        registry, extractor, _ = reload_registry
        registry.save_bundle("retina-live", self._v2_bundle(extractor, serving_world))
        registry.set_alias("prod", "retina-live", version=1)
        engine = engine_from_store(registry, ["retina-live"], max_wait_ms=0.5)
        with PredictionServer(engine, port=0, registry=registry) as srv:
            host, port = srv.address
            with ServingClient(host=host, port=port, retries=0) as client:
                # Engine started on latest (v2); the alias pins v1.
                resp = client.reload("retina-live", alias="prod")
                assert resp.version == 1 and resp.previous_version == 2

    def test_reload_unknown_model_is_404(self, server):
        host, port = server.address
        with ServingClient(host=host, port=port, retries=0) as client:
            with pytest.raises(ServingError) as exc_info:
                client.reload("ghost")
            assert exc_info.value.status == 404
            assert exc_info.value.code == "model_not_found"
