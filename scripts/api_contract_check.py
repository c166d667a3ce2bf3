"""API v1 contract check: every documented endpoint, schema-validated.

Trains a tiny retina + hategen fixture, saves bundles into a temp
registry (two retina versions + a ``prod`` alias), then drives every
documented v1 endpoint through :class:`repro.client.ServingClient` —
whose responses are parsed and validated by
:mod:`repro.serving.schemas`, so a drift between server and schema
fails loudly.  Also checks the structured-error contract, that the
pre-v1 unversioned paths are gone (a typed v1 404), and that a chunked
body is refused with 501.

The full endpoint pass runs against :class:`AsyncPredictionServer`.
The deterministic routes are then byte-compared across two fresh server + engine
instances — responses must not depend on server lifecycle or engine
state.  A final pass pins the admission-control contract: with one
request in flight allowed and held (its body not yet sent), the next
is shed with 429, ``Retry-After`` and ``Connection: close``; and the
slow-head contract: a request head that trickles in one complete
header line at a time gets a typed 400 and ``Connection: close`` once
``header_timeout`` has passed, however prompt each line is.

The observability pass pins the telemetry surface: the Prometheus
exposition must parse line-by-line, inbound ``X-Trace-Id``
headers must be echoed, a forced trace's span tree must be
retrievable (``--trace-out PATH`` archives it as a CI artifact), and
every ``repro_http_requests_total`` route label the pass emitted must be
one of the documented templates (``ROUTE_LABELS``).

Run:  PYTHONPATH=src python scripts/api_contract_check.py
Exit code 0 = contract holds.
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import socket
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# One exposition line: a comment, or ``name{labels} value``.  Label values
# may themselves contain ``}`` (route templates like "/v1/models/{name}"),
# hence the greedy group.
PROM_LINE_RE = re.compile(r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+)$")

#: The documented ``repro_http_requests_total`` route labels (README,
#: "Front end"): the route templates, ``/`` and the catch-all ``other``.
ROUTE_LABELS = frozenset({
    "/v1/healthz", "/v1/metrics", "/v1/models", "/v1/models/{name}",
    "/v1/models/{name}/versions", "/v1/models/{name}/reload",
    "/v1/predict/{kind}", "/v1/batch/{kind}", "/v1/ingest",
    "/v1/traces", "/v1/traces/{id}", "/", "other",
})

CHECKS: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    CHECKS.append(name)
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}" + (f" — {detail}" if detail and not ok else ""))
    if not ok:
        sys.exit(f"contract violation: {name} {detail}")


def build_registry(store: str):
    """Two retina versions + one hategen bundle + a 'prod' alias."""
    from repro.core.hategen import HateGenFeatureExtractor, HateGenerationPipeline
    from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
    from repro.data import HateDiffusionDataset, SyntheticWorldConfig
    from repro.serving import HateGenBundle, ModelRegistry, RetinaBundle

    config = SyntheticWorldConfig(scale=0.01, n_hashtags=5, n_users=120, n_news=300, seed=3)
    dataset = HateDiffusionDataset.generate(config)
    train, test = dataset.cascade_split(random_state=0)
    extractor = RetinaFeatureExtractor(dataset.world, random_state=0).fit(train)
    edges = RetinaTrainer.default_interval_edges()
    tr = extractor.build_samples(train[:30], interval_edges_hours=edges, random_state=0)
    te = extractor.build_samples(test[:4], interval_edges_hours=edges, random_state=1)
    model = RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode="static",
        random_state=0,
    )
    trainer = RetinaTrainer(model, epochs=1, random_state=0).fit(tr)

    registry = ModelRegistry(store)
    bundle = RetinaBundle(model=model, extractor=extractor, world_config=config)
    registry.save_bundle("retina", bundle)
    registry.save_bundle("retina", bundle)  # v2: reload target
    registry.set_alias("prod", "retina", version=1)

    h_train, h_test = dataset.hategen_split(random_state=0)
    h_extractor = HateGenFeatureExtractor(dataset.world, doc2vec_epochs=4, random_state=0)
    pipeline = HateGenerationPipeline(h_extractor, random_state=0)
    X_tr, y_tr, X_te, y_te = pipeline.prepare(h_train, h_test)
    pipeline.run("logreg", "ds", X_tr, y_tr, X_te, y_te)
    registry.save_bundle(
        "hategen",
        HateGenBundle(
            model=pipeline.fitted_model_,
            transforms=pipeline.fitted_transforms_,
            extractor=h_extractor,
            world_config=config,
            model_key="logreg",
            variant="ds",
        ),
    )
    return registry, trainer, te, h_test


def raw(server, method, path, body=None, headers=None):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        hdrs = {"Content-Type": "application/json", **(headers or {})}
        conn.request(method, path, payload, hdrs)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, dict(resp.headers), json.loads(data) if data else {}
    finally:
        conn.close()


def raw_text(server, path):
    """GET returning the undecoded body (for non-JSON responses)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")
    finally:
        conn.close()


def slow_head(server, interval: float, limit: float):
    """Send one complete header line every ``interval`` seconds until the
    server answers or closes (at most ``limit`` seconds).

    Returns ``(status, headers, body, seconds to the answer)``; status 0
    when nothing came back.
    """
    with socket.create_connection(server.address, timeout=10) as sock:
        start = time.monotonic()
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: contract\r\n")
        sock.settimeout(interval)
        buf, n = b"", 0
        try:
            while not buf and time.monotonic() - start < limit:
                sock.sendall(f"X-Slow-{n}: v\r\n".encode())
                n += 1
                try:
                    buf = sock.recv(65536)
                except socket.timeout:
                    pass
        except (BrokenPipeError, ConnectionResetError):
            pass  # closed; what it answered first is still readable
        elapsed = time.monotonic() - start
        sock.settimeout(10)
        try:
            while chunk := sock.recv(65536):
                buf += chunk
        except ConnectionResetError:
            pass
    if not buf:
        return 0, {}, {}, elapsed
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body), elapsed


def drive_contract(server, label, registry, trainer, te, h_test,
                   trace_out=None):
    """The full v1 endpoint pass against one live front end."""
    from repro.client import ServingClient, ServingError
    from repro.serving.schemas import (
        BatchPredictResponse,
        HateGenResponse,
        HealthResponse,
        ModelsResponse,
        ReloadResponse,
        RetweeterResponse,
        VersionsResponse,
    )

    def check(name, ok, detail=""):
        globals()["check"](f"[{label}] {name}", ok, detail)

    host, port = server.address
    print(f"{label} server up at {server.url}; driving the v1 contract ...")
    # strict=True: every response body re-validated field-by-field
    # against repro.serving.schemas, not just constructed.
    with ServingClient(host=host, port=port, retries=1, strict=True) as client:
        # ---- GET /v1/healthz --------------------------------------
        health = client.health()
        check("GET /v1/healthz", isinstance(health, HealthResponse)
              and health.status == "ok" and health.api == "v1")

        # ---- GET /v1/metrics --------------------------------------
        metrics = client.metrics()
        check("GET /v1/metrics", "retweeters" in metrics
              and "caches" in metrics["retweeters"])

        # ---- GET /v1/models ---------------------------------------
        models = client.models()
        names = {m.name: m for m in models.models}
        check("GET /v1/models", isinstance(models, ModelsResponse)
              and set(names) == {"retina", "hategen"}
              and names["retina"].latest == 2
              and names["retina"].aliases.get("prod") == 1)

        # ---- GET /v1/models/{name} (+alias) -----------------------
        manifest = client.model("retina")
        check("GET /v1/models/retina", manifest["kind"] == "retina"
              and manifest["version"] == 2)
        check("GET /v1/models/{alias}", client.model("prod")["version"] == 1)

        # ---- GET /v1/models/{name}/versions -----------------------
        versions = client.versions("retina")
        check("GET /v1/models/retina/versions",
              isinstance(versions, VersionsResponse)
              and versions.versions == [1, 2] and versions.latest == 2)

        # ---- POST /v1/predict/retweeters --------------------------
        sample = te[0]
        cid = sample.candidate_set.cascade.root.tweet_id
        users = list(sample.candidate_set.users)
        resp = client.predict_retweeters(cid, user_ids=users, top_k=3)
        expected = trainer.predict_static_scores(sample)
        got = np.array([resp.scores[str(u)] for u in users])
        check("POST /v1/predict/retweeters",
              isinstance(resp, RetweeterResponse)
              and len(resp.ranking) == 3
              and bool(np.allclose(got, expected, atol=1e-12)),
              "served scores diverge from in-process trainer")

        # ---- POST /v1/predict/hategen -----------------------------
        t = h_test[0]
        hresp = client.predict_hategen(t.user_id, t.hashtag, t.timestamp)
        check("POST /v1/predict/hategen", isinstance(hresp, HateGenResponse)
              and 0.0 <= hresp.score <= 1.0 and hresp.label in (0, 1))

        # ---- POST /v1/batch/{kind} --------------------------------
        batch = client.predict_many(
            "retweeters",
            [{"cascade_id": cid, "user_ids": users[:3]},
             {"cascade_id": -1},
             {"cascade_id": cid, "user_ids": users[3:6]}],
        )
        check("POST /v1/batch/retweeters",
              isinstance(batch, BatchPredictResponse)
              and batch.n_ok == 2 and batch.n_errors == 1
              and batch.results[1].status == 404)

        # ---- POST /v1/models/{name}/reload ------------------------
        reload_resp = client.reload("retina", version=1)
        check("POST /v1/models/retina/reload",
              isinstance(reload_resp, ReloadResponse)
              and reload_resp.version == 1
              and reload_resp.previous_version == 2)
        resp2 = client.predict_retweeters(cid, user_ids=users)
        got2 = np.array([resp2.scores[str(u)] for u in users])
        check("reload preserves scores (same weights)",
              bool(np.allclose(got2, expected, atol=1e-12)))

        # ---- structured errors ------------------------------------
        try:
            client.predict_retweeters(10**9)
        except ServingError as exc:
            check("structured 404", exc.status == 404
                  and exc.code == "not_found" and exc.field == "cascade_id")
        else:
            check("structured 404", False, "expected a ServingError")
        try:
            client.model("ghost")
        except ServingError as exc:
            check("RegistryError -> 404", exc.status == 404
                  and exc.code == "model_not_found")
        else:
            check("RegistryError -> 404", False, "expected a ServingError")

    # ---- pre-v1 paths are unknown routes --------------------------
    payload = {"cascade_id": cid, "user_ids": users}
    retired = [raw(server, "POST", "/predict/retweeters", payload),
               raw(server, "GET", "/healthz"), raw(server, "GET", "/metrics")]
    check("pre-v1 paths answer v1 404 unknown_route",
          all(status == 404 and body["error"]["code"] == "unknown_route"
              for status, _, body in retired),
          f"got {[(status, body) for status, _, body in retired]}")

    # ---- 413 before body read -------------------------------------
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/predict/retweeters")
        conn.putheader("Content-Length", str(64 * 1024 * 1024))
        conn.endheaders()
        resp = conn.getresponse()
        body = json.loads(resp.read())
        check("413 before body read", resp.status == 413
              and body["error"]["code"] == "body_too_large"
              and resp.headers.get("Connection") == "close")
    finally:
        conn.close()

    # ---- chunked body refused before routing ----------------------
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        # An iterable body with no Content-Length is sent chunked.  The
        # server answers 501 and closes without reading the body, so the
        # write of the last chunk can fail; the answer is still readable.
        try:
            conn.request("POST", "/v1/predict/retweeters",
                         iter([json.dumps(payload).encode()]),
                         {"Content-Type": "application/json"})
        except (BrokenPipeError, ConnectionResetError):
            pass
        resp = conn.getresponse()
        body = json.loads(resp.read())
        check("chunked POST -> 501", resp.status == 501
              and body["error"]["code"] == "unsupported_transfer_encoding"
              and resp.headers.get("Connection") == "close")
    finally:
        conn.close()

    # ---- observability: trace-id echo + span tree -----------------
    # A forced trace id must be honoured even with sampling off,
    # echoed back, and its complete span tree retrievable.
    forced_id = f"contractcheck-{label}"
    status, hdrs, _ = raw(
        server, "POST", "/v1/predict/retweeters", payload,
        headers={"X-Trace-Id": forced_id},
    )
    check("X-Trace-Id echoed", status == 200
          and hdrs.get("X-Trace-Id") == forced_id)
    status, _, tree = raw(server, "GET", f"/v1/traces/{forced_id}")
    span_names = {sp["name"] for sp in tree.get("spans", ())}
    check("GET /v1/traces/{id} span tree", status == 200
          and tree.get("trace_id") == forced_id
          and tree.get("n_spans", 0) >= 5
          and {"http.request", "handler.parse", "engine.queue_wait",
               "model.forward", "http.serialize"} <= span_names,
          f"got spans {sorted(span_names)}")
    if trace_out:
        Path(trace_out).write_text(json.dumps(tree, indent=2) + "\n")
        print(f"  archived sample trace -> {trace_out}")

    # ---- observability: metrics views -----------------------------
    # Per-route status counters need a GET error on record too.
    raw(server, "GET", "/v1/no/such/route")
    s_v1, _, v1m = raw(server, "GET", "/v1/metrics")
    responses = v1m.get("http", {}).get("responses", {})
    check("/v1/metrics per-route status counters",
          any(key.endswith("|200") for key in responses)
          and any(key.startswith("other|GET|404") for key in responses),
          f"got counter keys {sorted(responses)}")
    s_prom, prom_hdrs, text = raw_text(
        server, "/v1/metrics?format=prometheus"
    )
    lines = [ln for ln in text.splitlines() if ln]
    bad = [ln for ln in lines if not PROM_LINE_RE.match(ln)]
    check("Prometheus exposition parses", s_prom == 200
          and prom_hdrs.get("Content-Type", "").startswith(
              "text/plain; version=0.0.4")
          and lines and not bad,
          f"unparseable lines: {bad[:3]}")
    # No predict traffic runs between the two reads, so both views of the
    # one registry must show the same counts.
    exposed = dict(ln.rpartition(" ")[::2] for ln in lines if not ln.startswith("#"))
    pred = v1m.get("retweeters", {})
    pairs = {
        "requests": 'repro_request_latency_seconds_count{kind="retweeters"}',
        "batches": 'repro_engine_batches_total{kind="retweeters"}',
    }
    check("/v1/metrics JSON matches the Prometheus exposition", s_v1 == 200
          and all(str(pred.get(field)) == exposed.get(series)
                  for field, series in pairs.items())
          and not any(ln.startswith("repro_predictor_requests") for ln in lines),
          f"JSON {[pred.get(f) for f in pairs]} vs "
          f"exposition {[exposed.get(s) for s in pairs.values()]}")
    check("Prometheus carries serving families",
          any(ln.startswith("repro_http_requests_total{") for ln in lines)
          and any("_bucket{" in ln for ln in lines))

    # ---- route labels ---------------------------------------------
    # Every path the pass sent, retired and unknown ones included, is
    # counted under a documented label: the label set stays bounded.
    _, _, final = raw(server, "GET", "/v1/metrics")
    labels = {key.split("|")[0] for key in final.get("http", {}).get("responses", {})}
    check("route labels are documented templates",
          {"/v1/predict/{kind}", "other"} <= labels <= ROUTE_LABELS,
          f"undocumented labels {sorted(labels - ROUTE_LABELS)}")
    return cid, users


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serving API v1 contract check")
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="archive the forced sample trace's span tree as JSON at PATH",
    )
    args = parser.parse_args(argv)

    from repro.serving import (
        AdmissionController,
        AsyncPredictionServer,
        engine_from_store,
    )

    print("building fixture registry (tiny world, 2 retina versions + hategen) ...")
    with tempfile.TemporaryDirectory() as store:
        registry, trainer, te, h_test = build_registry(store)

        # ---- full endpoint pass -------------------------------------------
        engine = engine_from_store(registry)
        with AsyncPredictionServer(engine, port=0, registry=registry) as server:
            cid, users = drive_contract(
                server, "async", registry, trainer, te, h_test,
                trace_out=args.trace_out,
            )

        # ---- response byte stability --------------------------------------
        # The deterministic routes must serve the exact same bytes from
        # two independent server + engine instances: responses cannot
        # depend on server lifecycle, engine state, or accumulated load.
        probes = [
            ("POST", "/v1/predict/retweeters",
             {"cascade_id": cid, "user_ids": users}),
            ("POST", "/v1/predict/hategen",
             {"user_id": h_test[0].user_id, "hashtag": h_test[0].hashtag,
              "timestamp": h_test[0].timestamp}),
            ("GET", "/v1/models", None),
            ("GET", "/v1/models/retina/versions", None),
            ("POST", "/v1/predict/nothing", {"a": 1}),  # 404 shaping too
        ]
        bodies = {}
        for label in ("first", "second"):
            engine = engine_from_store(registry)
            got = []
            with AsyncPredictionServer(
                engine, port=0, registry=registry
            ) as server:
                host, port = server.address
                for method, path, payload in probes:
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                    try:
                        body = (json.dumps(payload).encode()
                                if payload is not None else None)
                        conn.request(method, path, body,
                                     {"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        got.append((path, resp.status, resp.read()))
                    finally:
                        conn.close()
            bodies[label] = got
        mismatch = [
            (a[0], a[1:], b[1:])
            for a, b in zip(bodies["first"], bodies["second"])
            if a != b
        ]
        check("response byte stability", not mismatch,
              f"diverging routes: {mismatch[:2]}")

        # ---- admission contract -------------------------------------------
        # One request in flight at a time.  A POST whose body is held back
        # is admitted (admission runs before the body is read) and holds
        # the slot, so the next POST must shed with 429, Retry-After and
        # Connection: close; the held one is answered once its body lands.
        engine = engine_from_store(registry)
        admission = AdmissionController(max_pending=1)
        with AsyncPredictionServer(engine, port=0, registry=registry,
                                   admission=admission) as server:
            payload = {"cascade_id": cid, "user_ids": users}
            held_body = json.dumps(payload).encode()
            with socket.create_connection(server.address, timeout=30) as held:
                held.sendall((
                    "POST /v1/predict/retweeters HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(held_body)}\r\nConnection: close\r\n\r\n"
                ).encode())
                deadline = time.monotonic() + 10
                while admission.pending < 1 and time.monotonic() < deadline:
                    time.sleep(0.005)
                s2, hdrs, body = raw(server, "POST", "/v1/predict/retweeters", payload)
                held.sendall(held_body)
                reply = b""
                while chunk := held.recv(65536):
                    reply += chunk
        check("429 shed contract",
              reply.startswith(b"HTTP/1.1 200") and s2 == 429
              and int(hdrs.get("Retry-After", 0)) >= 1
              and hdrs.get("Connection") == "close"
              and body["error"]["code"] == "shed_queue_full",
              f"got {s2} {dict(hdrs)} {body}; held reply {reply[:40]!r}")

        # ---- slow-head contract -------------------------------------------
        # The whole head shares one header_timeout budget: complete header
        # lines every 50 ms must get a typed 400 + Connection: close once
        # the 0.5 s budget is spent (plus a margin to answer), not ride a
        # fresh per-line budget until the header-count bound.
        header_timeout, margin = 0.5, 1.5
        engine = engine_from_store(registry)
        with AsyncPredictionServer(engine, port=0, registry=registry,
                                   header_timeout=header_timeout) as server:
            status, hdrs, body, elapsed = slow_head(
                server, interval=0.05, limit=header_timeout + 2 * margin
            )
        check("slow head -> 400 + close within header_timeout",
              status == 400
              and body["error"]["code"] == "bad_request"
              and hdrs.get("Connection") == "close"
              and elapsed < header_timeout + margin,
              f"got {status} {hdrs} {body} after {elapsed:.2f}s")

    print(f"\napi-contract: all {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
