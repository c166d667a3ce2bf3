"""End-to-end tracing tests: connected span trees across threads.

The acceptance path for the observability layer: one ``/v1/predict/*``
request yields a single-trace span tree — handler parse, queue wait,
batch assembly, feature build, model forward, response serialization —
retrievable via ``/v1/traces/{id}``.
"""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.obs import config as obs_config
from repro.obs import trace as obs_trace
from repro.serving import (
    AsyncPredictionServer,
    InferenceEngine,
    RetweeterPredictor,
)

#: Spans every traced predict request must produce, wherever it executes.
EXPECTED_SPANS = {
    "http.request",
    "handler.parse",
    "engine.queue_wait",
    "engine.batch_assembly",
    "serve.feature_build",
    "model.forward",
    "http.serialize",
}


@pytest.fixture(autouse=True)
def _clean_obs():
    obs_config.configure(enabled=True, sample_rate=1.0)
    obs_trace.STORE.clear()
    yield
    obs_config.configure(enabled=True, sample_rate=1.0)
    obs_trace.STORE.clear()


def _post(url, payload, trace_id=None):
    headers = {"Content-Type": "application/json"}
    if trace_id is not None:
        headers["X-Trace-Id"] = trace_id
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def _get(url):
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, json.load(resp)


def _serve(registry):
    retina = registry.load_bundle("retina")
    engine = InferenceEngine({"retweeters": RetweeterPredictor(retina)}, max_batch_size=8)
    return AsyncPredictionServer(engine, port=0)


def _assert_connected_tree(tree, trace_id):
    """Every span shares the trace id and parents onto another span."""
    assert tree["trace_id"] == trace_id
    ids = {sp["span_id"] for sp in tree["spans"]}
    roots = [sp for sp in tree["spans"] if sp["parent_id"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "http.request"
    for sp in tree["spans"]:
        if sp["parent_id"] is not None:
            assert sp["parent_id"] in ids, f"dangling parent on {sp['name']}"


def test_predict_yields_connected_span_tree(registry, trained_retina):
    _, _, test_samples = trained_retina
    cascade_id = test_samples[0].candidate_set.cascade.root.tweet_id
    forced = "testtrace"
    with _serve(registry) as srv:
        status, headers, _ = _post(
            srv.url + "/v1/predict/retweeters",
            {"cascade_id": cascade_id},
            trace_id=forced,
        )
        assert status == 200
        assert headers["X-Trace-Id"] == forced
        status, tree = _get(srv.url + f"/v1/traces/{forced}")
    assert status == 200
    names = {sp["name"] for sp in tree["spans"]}
    assert EXPECTED_SPANS <= names, f"missing spans: {EXPECTED_SPANS - names}"
    assert tree["n_spans"] >= 5
    _assert_connected_tree(tree, forced)


def test_untraced_request_stays_untraced(registry, trained_retina):
    """At sample rate 0 a bare request produces no trace — but a forced one does."""
    _, _, test_samples = trained_retina
    cascade_id = test_samples[0].candidate_set.cascade.root.tweet_id
    obs_config.configure(sample_rate=0.0)
    with _serve(registry) as srv:
        status, headers, _ = _post(
            srv.url + "/v1/predict/retweeters", {"cascade_id": cascade_id}
        )
        assert status == 200
        assert "X-Trace-Id" not in headers
        status, listing = _get(srv.url + "/v1/traces")
        assert listing["traces"] == []
        status, headers, _ = _post(
            srv.url + "/v1/predict/retweeters",
            {"cascade_id": cascade_id},
            trace_id="forcedone",
        )
        assert headers["X-Trace-Id"] == "forcedone"
        status, tree = _get(srv.url + "/v1/traces/forcedone")
        assert status == 200 and tree["n_spans"] >= 5


def test_traced_read_makes_no_urandom_call(registry, trained_retina, monkeypatch):
    """Trace and span ids come from a generator seeded once: with
    ``os.urandom`` failing after start-up, a traced read is still
    answered, and its whole span tree is recorded."""
    _, _, test_samples = trained_retina
    cascade_id = test_samples[0].candidate_set.cascade.root.tweet_id

    def urandom(n):
        raise OSError("os.urandom called after start-up")

    with _serve(registry) as srv:
        monkeypatch.setattr(os, "urandom", urandom)
        status, headers, _ = _post(
            srv.url + "/v1/predict/retweeters", {"cascade_id": cascade_id}
        )
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        status, tree = _get(srv.url + f"/v1/traces/{trace_id}")
    assert status == 200
    assert EXPECTED_SPANS <= {sp["name"] for sp in tree["spans"]}
    _assert_connected_tree(tree, trace_id)


def test_unknown_trace_404(registry):
    with _serve(registry) as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/v1/traces/deadbeef")
        assert err.value.code == 404
        err.value.close()  # the error holds the response and its socket
