"""Asyncio front-end tests: routes, keep-alive + pipelining, connection
hygiene on 404/413/429, and the overload integration — offered load above
capacity must shed with 429 + ``Retry-After`` and never drop a request
without a response.

Also hosts the suite folded in from the retired threaded front end
(``tests/serving/test_server.py``): the end-to-end acceptance path over
the legacy unversioned routes, driven through the ``PredictionServer``
compatibility alias.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np

import pytest

from repro.client import ServingClient
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AsyncPredictionServer,
    HateGenPredictor,
    InferenceEngine,
    PredictionServer,
    RetweeterPredictor,
    engine_from_store,
)


@pytest.fixture(scope="module")
def aio_server(registry):
    """A live asyncio v1 server over the session registry."""
    engine = engine_from_store(registry, max_batch_size=32, max_wait_ms=1.0)
    with AsyncPredictionServer(engine, port=0, registry=registry) as srv:
        yield srv


@pytest.fixture(scope="module")
def aio_client(aio_server):
    host, port = aio_server.address
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


class TestRoutes:
    def test_health_models_metrics(self, aio_client):
        health = aio_client.health()
        assert health.status == "ok" and health.api == "v1"
        models = aio_client.models()
        assert {m.name for m in models.models} == {"retina", "hategen"}
        metrics = aio_client.metrics()
        assert "retweeters" in metrics and "http" in metrics

    def test_predict_round_trip(self, aio_client, trained_hategen):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        resp = aio_client.predict_hategen(t.user_id, t.hashtag, t.timestamp)
        assert resp.label in (0, 1) and 0.0 <= resp.score <= 1.0

    def test_batch_round_trip(self, aio_client, trained_hategen):
        _, test_tweets = trained_hategen
        reqs = [
            {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp}
            for t in test_tweets[:4]
        ]
        batch = aio_client.predict_many("hategen", reqs)
        assert batch.n_ok == 4 and batch.n_errors == 0

    def test_predict_bytes_deterministic_across_instances(
        self, registry, trained_hategen
    ):
        """Same request against two independent servers: same bytes out.

        This was the byte-identity gate between the threaded and asyncio
        front ends; with the threaded server retired it pins response
        determinism across server lifecycles instead.
        """
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        payload = {"user_id": t.user_id, "hashtag": t.hashtag,
                   "timestamp": t.timestamp}
        bodies = []
        for _ in range(2):
            engine = engine_from_store(registry, max_batch_size=8, max_wait_ms=1.0)
            with AsyncPredictionServer(engine, port=0, registry=registry) as srv:
                host, port = srv.address
                conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.request("POST", "/v1/predict/hategen",
                             json.dumps(payload).encode(),
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                bodies.append((resp.status, resp.read()))
                conn.close()
        assert bodies[0] == bodies[1]
        assert bodies[0][0] == 200

    def test_legacy_shim_deprecation_headers(self, aio_server, trained_hategen):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        status, headers, body = raw_request(
            aio_server, "POST", "/predict/hategen",
            {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp},
        )
        assert status == 200 and headers.get("Deprecation") == "true"
        assert "/v1/predict/hategen" in headers.get("Link", "")

    def test_trace_id_echoed(self, aio_server, trained_hategen):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        status, headers, _ = raw_request(
            aio_server, "POST", "/v1/predict/hategen",
            {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp},
            headers={"X-Trace-Id": "trace-aio-1"},
        )
        assert status == 200 and headers.get("X-Trace-Id") == "trace-aio-1"
        status, _, tree = raw_request(aio_server, "GET", "/v1/traces/trace-aio-1")
        assert status == 200 and tree["trace_id"] == "trace-aio-1"
        assert any(sp["name"] == "http.request" for sp in tree["spans"])


class TestConnectionHygiene:
    def test_unknown_kind_404_closes_without_reading_body(self, aio_server):
        status, headers, body = raw_request(
            aio_server, "POST", "/v1/predict/nothing", {"a": 1}
        )
        assert status == 404 and body["error"]["code"] == "unknown_predictor"
        assert headers.get("Connection") == "close"

    def test_unknown_post_route_closes(self, aio_server):
        status, headers, _ = raw_request(aio_server, "POST", "/nope", {"a": 1})
        assert status == 404 and headers.get("Connection") == "close"

    def test_413_closes(self, aio_server):
        host, port = aio_server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/predict/hategen")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(64 * 1024 * 1024))
            conn.endheaders()  # never send the body
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 413
            assert body["error"]["code"] == "body_too_large"
            assert resp.headers.get("Connection") == "close"
        finally:
            conn.close()

    def test_keep_alive_reuses_connection(self, aio_server):
        host, port = aio_server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
                assert resp.headers.get("Connection") != "close"
        finally:
            conn.close()

    def test_pipelined_requests_answered_in_order(self, aio_server):
        host, port = aio_server.address
        with socket.create_connection((host, port), timeout=30) as sock:
            req = (f"GET /v1/healthz HTTP/1.1\r\nHost: {host}\r\n\r\n").encode()
            sock.sendall(req * 3)  # three requests in one write
            sock.settimeout(30)
            buf = b""
            while buf.count(b"HTTP/1.1 200") < 3:
                chunk = sock.recv(65536)
                assert chunk, f"connection closed early; got {buf[:200]!r}"
                buf += chunk
        assert buf.count(b'"status": "ok"') == 3


def _raw_exchange(server, data: bytes) -> tuple[int, dict, dict]:
    """Send raw bytes, read until the server closes; (status, headers, body)."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(data)
        buf = b""
        while chunk := sock.recv(65536):
            buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


class TestFraming:
    """Malformed framing gets a typed answer, never a dropped socket."""

    def _hategen_body(self, trained_hategen) -> bytes:
        t = trained_hategen[1][0]
        return json.dumps({"user_id": t.user_id, "hashtag": t.hashtag,
                           "timestamp": t.timestamp}).encode()

    def test_conflicting_content_length_is_400(self, aio_server, trained_hategen):
        body = self._hategen_body(trained_hategen)
        status, headers, reply = _raw_exchange(aio_server, (
            f"POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Content-Length: {len(body) + 7}\r\nConnection: close\r\n\r\n"
        ).encode() + body)
        assert status == 400
        assert reply["error"]["code"] == "bad_request"
        assert "Content-Length" in reply["error"]["message"]
        assert headers.get("Connection") == "close"
        # Repeating the same value is not ambiguous and is still served.
        status, _, reply = _raw_exchange(aio_server, (
            f"POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body)
        assert status == 200 and reply["label"] in (0, 1)

    @pytest.mark.parametrize("where", ["request_line", "header_line"])
    def test_line_over_reader_limit_is_431(self, aio_server, where):
        big = "a" * (80 * 1024)  # past asyncio's 64 KiB StreamReader limit
        if where == "request_line":
            data = f"GET /v1/healthz?pad={big} HTTP/1.1\r\nHost: x\r\n\r\n"
        else:
            data = f"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Pad: {big}\r\n\r\n"
        status, headers, reply = _raw_exchange(aio_server, data.encode())
        assert status == 431
        assert reply["error"]["code"] == "header_too_large"
        assert headers.get("Connection") == "close"
        # The listener is unharmed.
        status, _, _ = raw_request(aio_server, "GET", "/v1/healthz")
        assert status == 200


class TestOverload:
    """Offered load > capacity: shed loudly, answer everything."""

    @pytest.fixture()
    def throttled_server(self, registry):
        # Tiny quota so overload is deterministic regardless of host speed:
        # burst of 4, refilling 2/s, against a burst of 40 requests.
        engine = engine_from_store(registry, max_batch_size=32, max_wait_ms=1.0)
        admission = AdmissionController(
            AdmissionConfig(route_rps=2.0, route_burst=4.0)
        )
        with AsyncPredictionServer(
            engine, port=0, registry=registry, admission=admission
        ) as srv:
            yield srv

    def test_shed_with_retry_after_and_no_silent_drops(
        self, throttled_server, trained_hategen
    ):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        payload = {"user_id": t.user_id, "hashtag": t.hashtag,
                   "timestamp": t.timestamp}
        n_requests, n_threads = 40, 8
        results, lock = [], threading.Lock()

        def fire(n):
            got = []
            for _ in range(n):
                status, headers, body = raw_request(
                    throttled_server, "POST", "/v1/predict/hategen", payload
                )
                got.append((status, headers, body))
            with lock:
                results.extend(got)

        threads = [
            threading.Thread(target=fire, args=(n_requests // n_threads,))
            for _ in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)

        # Zero silent drops: every request got an HTTP response.
        assert len(results) == n_requests
        statuses = [status for status, _, _ in results]
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 1  # the burst was admitted
        shed = [(h, b) for s, h, b in results if s == 429]
        assert shed, "offered load 10x over quota must shed"
        for headers, body in shed:
            assert int(headers["Retry-After"]) >= 1
            assert headers.get("Connection") == "close"
            assert body["error"]["code"].startswith("shed_")

        snap = throttled_server.admission.snapshot()
        assert snap["admitted"] == statuses.count(200)
        assert snap["shed"] == len(shed)
        assert snap["pending"] == 0  # every admitted request was released

    def test_client_retries_on_429_honouring_retry_after(
        self, registry, trained_hategen
    ):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        engine = engine_from_store(registry, max_batch_size=8, max_wait_ms=1.0)
        admission = AdmissionController(
            # burst=1, 10 tokens/s: the first predict drains the bucket;
            # the second sheds with Retry-After: 1 and the client's retry
            # lands after the refill.
            AdmissionConfig(route_rps=10.0, route_burst=1.0)
        )
        with AsyncPredictionServer(
            engine, port=0, registry=registry, admission=admission
        ) as srv:
            host, port = srv.address
            with ServingClient(host=host, port=port, retries=2,
                               backoff=0.01) as client:
                r1 = client.predict_hategen(t.user_id, t.hashtag, t.timestamp)
                assert r1.label in (0, 1)
                start = time.monotonic()
                r2 = client.predict_hategen(t.user_id, t.hashtag, t.timestamp)
                elapsed = time.monotonic() - start
                assert r2.label in (0, 1)  # retried through the 429
                # The wait came from the server's Retry-After hint (1 s),
                # not the 10 ms client backoff.
                assert elapsed >= 0.5


class TestCompatAlias:
    """The retired threaded front end's public names must keep working."""

    def test_prediction_server_is_async_server(self):
        assert PredictionServer is AsyncPredictionServer

    def test_alias_serves_the_429_contract(self, registry, trained_hategen):
        # Construct through the alias exactly as pre-retirement callers do
        # and verify the admission contract is served unchanged.
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        engine = engine_from_store(registry, max_batch_size=8, max_wait_ms=1.0)
        admission = AdmissionController(
            AdmissionConfig(route_rps=0.001, route_burst=1.0)
        )
        with PredictionServer(
            engine, port=0, registry=registry, admission=admission
        ) as srv:
            payload = {"user_id": t.user_id, "hashtag": t.hashtag,
                       "timestamp": t.timestamp}
            first = raw_request(srv, "POST", "/v1/predict/hategen", payload)
            second = raw_request(srv, "POST", "/v1/predict/hategen", payload)
        assert first[0] == 200
        status, headers, body = second
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert headers.get("Connection") == "close"
        assert body["error"]["code"] == "shed_route_quota"


# ---------------------------------------------------------------------------
# Folded from the retired threaded front end's suite
# (tests/serving/test_server.py): the end-to-end serving acceptance path —
# train -> save bundle -> load (world regenerated) -> serve -> POST ->
# scores identical to in-process ``trainer.predict_static_scores`` — plus
# error handling, all over the legacy unversioned routes.
# ---------------------------------------------------------------------------


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.load(resp)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, json.load(resp)


@pytest.fixture(scope="module")
def legacy_server(registry):
    """A live server over bundles loaded from disk with regenerated worlds.

    The retina bundle regenerates its world from the manifest; the hategen
    bundle shares it — exactly what ``repro serve`` does.
    """
    retina = registry.load_bundle("retina")
    hategen = registry.load_bundle("hategen", world=retina.extractor.world)
    engine = InferenceEngine(
        {
            "retweeters": RetweeterPredictor(retina),
            "hategen": HateGenPredictor(hategen),
        },
        max_batch_size=32,
        max_wait_ms=1.0,
    )
    with PredictionServer(engine, port=0) as srv:
        yield srv


class TestLegacyEndToEnd:
    def test_retweeter_scores_identical_to_in_process(
        self, legacy_server, trained_retina
    ):
        trainer, _, test_samples = trained_retina
        for sample in test_samples[:3]:
            expected = trainer.predict_static_scores(sample)
            status, result = _post(
                legacy_server.url + "/predict/retweeters",
                {
                    "cascade_id": sample.candidate_set.cascade.root.tweet_id,
                    "user_ids": sample.candidate_set.users,
                },
            )
            assert status == 200
            got = np.array(
                [result["scores"][str(u)] for u in sample.candidate_set.users]
            )
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_hategen_endpoint(self, legacy_server, trained_hategen):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        status, result = _post(
            legacy_server.url + "/predict/hategen",
            {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp},
        )
        assert status == 200
        assert 0.0 <= result["score"] <= 1.0
        assert result["label"] in (0, 1)

    def test_healthz(self, legacy_server):
        status, body = _get(legacy_server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"]["retweeters"]["mode"] == "static"
        assert body["models"]["hategen"]["model_key"] == "logreg"

    def test_metrics_after_traffic(self, legacy_server, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        _post(legacy_server.url + "/predict/retweeters",
              {"cascade_id": cid, "top_k": 3})
        status, body = _get(legacy_server.url + "/metrics")
        assert status == 200
        snap = body["retweeters"]
        assert snap["requests"] >= 1
        assert "p50_ms" in snap and "p95_ms" in snap
        assert "features" in snap["caches"]


class TestLegacyErrorHandling:
    def _post_error(self, url, payload):
        try:
            _post(url, payload)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)
        raise AssertionError("expected an HTTP error")

    def test_unknown_route_404(self, legacy_server):
        code, body = self._post_error(
            legacy_server.url + "/predict/nothing", {"a": 1}
        )
        assert code == 404

    def test_unknown_cascade_404(self, legacy_server):
        code, body = self._post_error(
            legacy_server.url + "/predict/retweeters", {"cascade_id": 10**9}
        )
        assert code == 404
        assert "unknown cascade" in body["error"]

    def test_missing_field_400(self, legacy_server):
        code, body = self._post_error(
            legacy_server.url + "/predict/retweeters", {}
        )
        assert code == 400
        assert "cascade_id" in body["error"]

    def test_invalid_json_400(self, legacy_server):
        req = urllib.request.Request(
            legacy_server.url + "/predict/retweeters",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(req, timeout=60)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        else:
            raise AssertionError("expected 400")

    def test_get_unknown_route_404(self, legacy_server):
        try:
            _get(legacy_server.url + "/nope")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:
            raise AssertionError("expected 404")
