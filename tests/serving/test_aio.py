"""Asyncio front-end tests: routes, keep-alive + pipelining, connection
hygiene on 404/413/429/501, and the overload integration — offered load
above capacity must shed with 429 + ``Retry-After`` and never drop a
request without a response.

Also hosts the end-to-end acceptance path (bundles loaded from disk with
the worlds saved in them, served scores equal to in-process scores) and
its error handling.
"""

import http.client
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np

import pytest

from repro.client import ServingClient
from repro.obs import metrics as obs_metrics
from repro.serving import (
    AdmissionController,
    AsyncPredictionServer,
    HateGenPredictor,
    InferenceEngine,
    ModelRegistry,
    RetweeterPredictor,
    engine_from_store,
)


@pytest.fixture(scope="module")
def aio_server(registry):
    """A live asyncio v1 server over the session registry."""
    engine = engine_from_store(registry, max_batch_size=32)
    with AsyncPredictionServer(engine, port=0, registry=registry) as srv:
        yield srv


#: The short-budget server's ``header_timeout``, and a pause well past it.
SHORT_HEADER_TIMEOUT = 0.2
LONG_PAUSE = 0.5


@pytest.fixture(scope="module")
def short_head_server(registry):
    """A live server whose request heads must finish within 0.2 s."""
    engine = engine_from_store(registry, max_batch_size=32)
    with AsyncPredictionServer(engine, port=0, registry=registry,
                               header_timeout=SHORT_HEADER_TIMEOUT) as srv:
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
            engine = engine_from_store(registry, max_batch_size=8)
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


#: ``(method, path, body, status, route label)``: every documented route,
#: then unknown paths, methods and kinds.  ``HATEGEN`` stands for a valid
#: hategen predict payload.  Side-effect free: reload names a model that
#: does not exist and ingest sends no events.
HATEGEN = object()
ROUTE_TABLE = [
    ("GET", "/v1/healthz", None, 200, "/v1/healthz"),
    ("GET", "/v1/metrics", None, 200, "/v1/metrics"),
    ("GET", "/v1/metrics?format=prometheus", None, 200, "/v1/metrics"),
    ("GET", "/v1/traces", None, 200, "/v1/traces"),
    ("GET", "/v1/traces/no-such-trace", None, 404, "/v1/traces/{id}"),
    ("GET", "/v1/models", None, 200, "/v1/models"),
    ("GET", "/v1/models/retina", None, 200, "/v1/models/{name}"),
    ("GET", "/v1/models/retina/versions", None, 200, "/v1/models/{name}/versions"),
    ("POST", "/v1/models/ghost/reload", {}, 404, "/v1/models/{name}/reload"),
    ("POST", "/v1/predict/hategen", HATEGEN, 200, "/v1/predict/{kind}"),
    ("POST", "/v1/batch/hategen", [HATEGEN], 200, "/v1/batch/{kind}"),
    ("POST", "/v1/ingest", {}, 400, "/v1/ingest"),
    ("GET", "/", None, 404, "/"),
    ("GET", "/nope", None, 404, "other"),
    ("GET", "/healthz", None, 404, "other"),
    ("GET", "/v1/models/bad$name", None, 404, "other"),
    ("POST", "/v1/predict/nothing", {"a": 1}, 404, "/v1/predict/{kind}"),
    ("POST", "/v1/batch/nothing", {"requests": [{}]}, 404, "/v1/batch/{kind}"),
    ("GET", "/v1/predict/hategen", None, 404, "/v1/predict/{kind}"),
    ("GET", "/v1/ingest", None, 404, "/v1/ingest"),
    ("GET", "/v1/models/retina/reload", None, 404, "/v1/models/{name}/reload"),
    ("POST", "/v1/healthz", {}, 404, "/v1/healthz"),
    ("POST", "/v1/models/retina", {}, 404, "/v1/models/{name}"),
    ("PUT", "/v1/healthz", None, 405, "/v1/healthz"),
    ("DELETE", "/v1/models/retina", None, 405, "/v1/models/{name}"),
    ("PATCH", "/nope", None, 405, "other"),
]


def _http_counts() -> dict:
    return dict(obs_metrics.REGISTRY.snapshot().get("repro_http_requests_total", {}))


@pytest.mark.parametrize("method,path,body,status,label", ROUTE_TABLE,
                         ids=[f"{m} {p}" for m, p, *_ in ROUTE_TABLE])
def test_route_table_status_and_label(aio_server, trained_hategen,
                                      method, path, body, status, label):
    t = trained_hategen[1][0]
    payload = {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp}
    if body is HATEGEN:
        body = payload
    elif body == [HATEGEN]:
        body = {"requests": [payload]}
    before = _http_counts()
    host, port = aio_server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path,
                     json.dumps(body).encode() if body is not None else None)
        got = conn.getresponse().status
    finally:
        conn.close()
    after = _http_counts()
    delta = {k: v - before.get(k, 0) for k, v in after.items()
             if v != before.get(k, 0)}
    assert got == status
    assert delta == {f"{label}|{method}|{status}": 1}


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

    def test_repeated_host_is_400(self, aio_server):
        status, headers, reply = _raw_exchange(
            aio_server, b"GET /v1/healthz HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n"
        )
        assert status == 400 and reply["error"]["code"] == "bad_request"
        assert "Host" in reply["error"]["message"]
        assert headers.get("Connection") == "close"

    # ``close`` anywhere in the Connection token list, in any case and
    # on any of its lines, closes after the reply: the pipelined second
    # request is never answered.
    @pytest.mark.parametrize("connection", [
        "Connection: keep-alive, close",
        "Connection: Keep-Alive,CLOSE",
        "Connection: close\r\nConnection: keep-alive",
    ], ids=["list", "case", "two_lines"])
    def test_connection_close_token_closes(self, aio_server, connection):
        get = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"
        raw = _raw_bytes(aio_server, get + connection.encode() + b"\r\n\r\n"
                         + get + b"Connection: close\r\n\r\n")
        assert raw.count(b"HTTP/1.1 200") == 1, raw[:300]

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


def _raw_bytes(server, data: bytes) -> bytes:
    """Send raw bytes and return everything the server sends until it closes."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(data)
        buf = b""
        while chunk := sock.recv(65536):
            buf += chunk
    return buf


def _parse_response(buf: bytes) -> tuple[int, dict, dict]:
    """(status, headers, JSON body) of the first response in ``buf``."""
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


def _raw_exchange(server, data: bytes) -> tuple[int, dict, dict]:
    """Send raw bytes, read until the server closes; (status, headers, body)."""
    return _parse_response(_raw_bytes(server, data))


def _split_responses(buf: bytes) -> list[tuple[int, dict, dict]]:
    """Every complete ``(status, headers, JSON body)`` response in ``buf``,
    in order; header names are lower-cased."""
    out = []
    while b"\r\n\r\n" in buf:
        head, _, rest = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {k.lower(): v for k, v in (ln.split(": ", 1) for ln in lines[1:])}
        length = int(headers["content-length"])
        if len(rest) < length:
            break
        out.append((int(lines[0].split()[1]), headers, json.loads(rest[:length])))
        buf = rest[length:]
    return out


# Header-line mutations: each edits ``lines`` (``Name: value`` strings) in
# place and returns whether the request keeps its meaning.  The ones that
# keep it come first in ``_MUTATIONS``.
def _mutate_case(rng, lines):
    i = rng.randrange(len(lines))
    name, _, value = lines[i].partition(":")
    lines[i] = "".join(rng.choice((c.lower(), c.upper())) for c in name) + ":" + value
    return True


def _mutate_ows(rng, lines):
    def pad():
        return "".join(rng.choice(" \t") for _ in range(rng.randint(0, 3)))

    i = rng.randrange(len(lines))
    name, _, value = lines[i].partition(":")
    lines[i] = f"{name}:{pad()}{value.strip()}{pad()}"
    return True


def _mutate_duplicate(rng, lines):
    line = rng.choice(lines)
    lines.insert(rng.randrange(len(lines) + 1), line)
    # A second Host is a 400 (RFC 9112 3.2); any other repeat keeps the
    # meaning.
    return line.partition(":")[0].strip().lower() != "host"


def _mutate_no_colon(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1),
                 rng.choice(("X-Garbage", "garbage line", "Host x")))
    return False


def _mutate_folded(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1),
                 rng.choice(" \t") + rng.choice(("continued", "X-Folded: yes")))
    return False


def _mutate_space_before_colon(rng, lines):
    i = rng.randrange(len(lines))
    name, _, value = lines[i].partition(":")
    lines[i] = name + rng.choice((" ", "\t", "  ")) + ":" + value
    return False


def _mutate_control_char(rng, lines):
    ctl = rng.choice(("\x00", "\x0b", "\x0c", "\r", "\x7f"))
    lines.insert(rng.randrange(len(lines) + 1), f"X-Ctl: a{ctl}b")
    return False


_MUTATIONS = (_mutate_case, _mutate_ows, _mutate_duplicate, _mutate_no_colon,
              _mutate_folded, _mutate_space_before_colon, _mutate_control_char)


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

    def _assert_501(self, status, headers, reply):
        assert status == 501
        assert reply["error"]["code"] == "unsupported_transfer_encoding"
        assert headers.get("Connection") == "close"

    @pytest.mark.parametrize("content_length", [False, True],
                             ids=["chunked", "chunked_and_content_length"])
    def test_chunked_predict_is_501(self, aio_server, trained_hategen, content_length):
        # With Content-Length too, framing by either header would let the
        # other smuggle bytes.
        body = self._hategen_body(trained_hategen)
        chunked = f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        head = ("POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
                "Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n")
        if content_length:
            head += f"Content-Length: {len(chunked)}\r\n"
        self._assert_501(*_raw_exchange(aio_server, (head + "\r\n").encode() + chunked))

    def test_chunked_post_always_gets_its_501(self, aio_server, trained_hategen):
        """http.client sends an iterable body chunked, a write at a time.

        The server answers and closes before the last chunk arrives, so
        that write may fail; the typed 501 must still be readable, every
        time.
        """
        body = self._hategen_body(trained_hategen)
        host, port = aio_server.address
        for _ in range(50):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                try:
                    conn.request("POST", "/v1/predict/hategen", iter([body] * 8),
                                 {"Content-Type": "application/json"})
                except (BrokenPipeError, ConnectionResetError):
                    pass
                resp = conn.getresponse()
                self._assert_501(resp.status, dict(resp.getheaders()),
                                 json.loads(resp.read()))
            finally:
                conn.close()

    def test_chunked_reload_is_501_and_reloads_nothing(self, tmp_path, loaded_bundles):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save_bundle("hategen", loaded_bundles["hategen"])
        engine = engine_from_store(registry)
        with AsyncPredictionServer(engine, port=0, registry=registry) as srv:
            registry.save_bundle("hategen", loaded_bundles["hategen"])  # v2
            raw = _raw_bytes(srv, (
                "POST /v1/models/hategen/reload HTTP/1.1\r\nHost: x\r\n"
                "Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
            ).encode())
            assert raw.count(b"HTTP/1.1 ") == 1  # the chunk is never parsed as a request
            self._assert_501(*_parse_response(raw))
            _, _, health = raw_request(srv, "GET", "/v1/healthz")
        assert health["models"]["hategen"]["source"]["version"] == 1

    def test_get_body_is_read_before_the_next_request(self, aio_server):
        # A GET's body is framed by Content-Length like any other; left
        # unread, "hello" would prefix the next request line.
        get = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"
        raw = _raw_bytes(aio_server, get + b"Content-Length: 5\r\n\r\nhello"
                         + get + b"Connection: close\r\n\r\n")
        replies = _split_responses(raw)
        assert [status for status, _, _ in replies] == [200, 200]
        assert all(reply["status"] == "ok" for _, _, reply in replies)

    # int() takes all of these; Content-Length is 1*DIGIT (RFC 9112 8.6).
    @pytest.mark.parametrize("value", ["-1", "+0", "0_0", "1_0", ""],
                             ids=["minus", "plus", "underscore_0", "underscore_10",
                                  "empty"])
    def test_non_digit_content_length_is_400(self, aio_server, value):
        raw = _raw_bytes(aio_server, (
            "POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {value}\r\nConnection: close\r\n\r\n"
        ).encode() + b'{"a": 123}')
        assert raw.count(b"HTTP/1.1 ") == 1
        status, headers, reply = _parse_response(raw)
        assert status == 400 and reply["error"]["code"] == "bad_request"
        assert headers.get("Connection") == "close"

    # Both used to answer 200 and reload.  Whitespace before the colon is
    # a 400 by RFC 9112 5.1.
    @pytest.mark.parametrize("line", ["Content-Length: -1", "Content-Length : 0"])
    def test_bad_content_length_reloads_nothing(self, tmp_path, loaded_bundles, line):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save_bundle("hategen", loaded_bundles["hategen"])
        engine = engine_from_store(registry)
        with AsyncPredictionServer(engine, port=0, registry=registry) as srv:
            registry.save_bundle("hategen", loaded_bundles["hategen"])  # v2
            status, headers, reply = _raw_exchange(srv, (
                "POST /v1/models/hategen/reload HTTP/1.1\r\nHost: x\r\n"
                f"{line}\r\nConnection: close\r\n\r\n"
            ).encode())
            _, _, health = raw_request(srv, "GET", "/v1/healthz")
        assert status == 400 and reply["error"]["code"] == "bad_request"
        assert headers.get("Connection") == "close"
        assert health["models"]["hategen"]["source"]["version"] == 1

    # Seeded header-mutation fuzz.  A mutation that keeps the request's
    # meaning must give a byte-identical body; any other must get a typed
    # 400 or 431 and Connection: close — never a dropped socket or a hang.
    MUTATION_SEEDS = range(40)

    @pytest.mark.parametrize("seed", MUTATION_SEEDS)
    def test_header_mutations(self, aio_server, trained_hategen, seed):
        rng = random.Random(2000 + seed)
        if rng.random() < 0.5:
            start, lines, body = "GET /v1/healthz HTTP/1.1", [], b""
        else:
            body = self._hategen_body(trained_hategen)
            start = "POST /v1/predict/hategen HTTP/1.1"
            lines = ["Content-Type: application/json", f"Content-Length: {len(body)}"]
        lines = ["Host: x", "Accept: */*", *lines, "Connection: close"]

        def send(lines):
            head = "\r\n".join([start, *lines]) + "\r\n\r\n"
            raw = _raw_bytes(aio_server, head.encode("latin-1") + body)
            assert raw.count(b"HTTP/1.1 ") == 1, raw[:200]
            return raw

        expected = send(lines).partition(b"\r\n\r\n")[2]
        preserving = True
        # In table order, so a case or whitespace edit never gives a
        # garbage line the colon it lacked.
        chosen = rng.sample(_MUTATIONS, rng.randint(1, 3))
        for mutate in sorted(chosen, key=_MUTATIONS.index):
            preserving &= mutate(rng, lines)
        raw = send(lines)
        if preserving:
            assert raw.partition(b"\r\n\r\n")[2] == expected, lines
        else:
            status, headers, reply = _parse_response(raw)
            assert status in (400, 431), lines
            assert reply["error"]["code"] in ("bad_request", "header_too_large")
            assert headers.get("Connection") == "close"

    # Seeded framing fuzz: a pipeline of valid requests, split at random
    # byte offsets or truncated, gets in-order answers or a typed close.
    FUZZ_SEEDS = range(8)

    def _pipeline(self, rng, trained_hategen) -> list[bytes]:
        body = self._hategen_body(trained_hategen)
        get = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        post = (
            b"POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        return [rng.choice((get, post)) for _ in range(rng.randint(2, 6))]

    @staticmethod
    def _assert_answers(requests: list[bytes], replies: list) -> None:
        for request, (status, _, reply) in zip(requests, replies):
            assert status == 200
            if request.startswith(b"GET"):
                assert reply["status"] == "ok"
            else:
                assert reply["label"] in (0, 1)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_random_splits_answered_in_order(self, short_head_server,
                                             trained_hategen, seed):
        """Seeded cuts and pauses against a 0.2 s head budget.  A pause
        past the budget inside a request's head (after its request line,
        before the blank line) gets that request a typed 400 and a close;
        every request before it is answered in order, and with no such
        pause every request is."""
        rng = random.Random(seed)
        requests = self._pipeline(rng, trained_hategen)
        data = b"".join(requests)
        cuts = sorted(rng.sample(range(1, len(data)), rng.randint(1, 12)))
        pauses = [LONG_PAUSE if rng.random() < 0.25 else rng.uniform(0.0, 0.005)
                  for _ in cuts]
        heads, start = [], 0
        for request in requests:
            heads.append((start + request.index(b"\n") + 1,
                          start + request.index(b"\r\n\r\n") + 4))
            start += len(request)
        stalled = next((i for i, (lo, hi) in enumerate(heads)
                        if any(lo <= cut < hi and pause == LONG_PAUSE
                               for cut, pause in zip(cuts, pauses))),
                       len(requests))
        with socket.create_connection(short_head_server.address, timeout=10) as sock:
            try:
                for a, b, pause in zip([0] + cuts, cuts + [len(data)], pauses + [0]):
                    sock.sendall(data[a:b])
                    time.sleep(pause)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server has answered a stalled head and closed
            buf = b""
            try:
                while len(replies := _split_responses(buf)) < len(requests):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
            except ConnectionResetError:
                replies = _split_responses(buf)
        self._assert_answers(requests, replies[:stalled])
        if stalled == len(requests):
            assert len(replies) == len(requests)
        else:
            assert len(replies) == stalled + 1, f"{len(replies)} replies"
            status, headers, reply = replies[stalled]
            assert status == 400 and headers.get("connection") == "close"
            assert reply["error"] == {"code": "bad_request", "field": None,
                                      "message": "header read timed out"}

    # Seeded body fuzz: bytes that are not strict UTF-8 and integer literals
    # past the 4300-digit conversion limit fail with a ValueError that is
    # not a JSONDecodeError; they always get 400 ``invalid_json``, and the
    # body was read, so the connection stays open.
    _BAD_UTF8 = (b"\x80", b"\xbf", b"\xc0\xaf", b"\xc1\x81", b"\xe0\x80\x80",
                 b"\xed\xa0\x80", b"\xf5\x80\x80\x80", b"\xfe", b"\xff",
                 b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98")
    _BODY_ROUTES = ("/v1/predict/hategen", "/v1/predict/retweeters",
                    "/v1/batch/hategen", "/v1/ingest")

    def _bad_body(self, rng, trained_hategen) -> bytes:
        valid = self._hategen_body(trained_hategen)
        if rng.random() < 0.5:
            at = rng.randrange(1, len(valid) + 1)
            body = valid[:at] + rng.choice(self._BAD_UTF8) + valid[at:]
            with pytest.raises(UnicodeDecodeError):
                body.decode("utf-8")
            return body
        digits = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(rng.randint(4300, 6000))
        )
        literal = rng.choice(("", "-")) + digits
        name = rng.choice(("user_id", "timestamp", "extra"))
        value = rng.choice(("{}", "[1, {}]", '{{"x": {}}}')).format(literal)
        return valid[:-1] + f', "{name}": {value}}}'.encode()

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_undecodable_bodies_are_invalid_json(
        self, aio_server, trained_hategen, seed
    ):
        rng = random.Random(3000 + seed)
        n_bad = rng.randint(1, 4)
        data = b""
        for _ in range(n_bad):
            body = self._bad_body(rng, trained_hategen)
            data += (
                f"POST {rng.choice(self._BODY_ROUTES)} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
        data += b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        replies = _split_responses(_raw_bytes(aio_server, data))
        assert len(replies) == n_bad + 1
        for status, headers, reply in replies[:n_bad]:
            assert status == 400 and reply["error"]["code"] == "invalid_json"
            assert "connection" not in headers
        assert replies[-1][0] == 200

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_truncated_pipeline_then_half_close(self, aio_server, trained_hategen, seed):
        rng = random.Random(1000 + seed)
        requests = self._pipeline(rng, trained_hategen)
        data = b"".join(requests)
        cut = rng.randrange(1, len(data))
        complete, end = 0, 0
        for request in requests:
            end += len(request)
            if end > cut:
                break
            complete += 1
        with socket.create_connection(aio_server.address, timeout=10) as sock:
            sock.sendall(data[:cut])
            sock.shutdown(socket.SHUT_WR)
            buf = b""
            # A hang surfaces as socket.timeout, failing the test.
            while chunk := sock.recv(65536):
                buf += chunk
        replies = _split_responses(buf)
        self._assert_answers(requests, replies[:complete])
        assert len(replies) in (complete, complete + 1), f"{len(replies)} replies"
        if len(replies) > complete:
            status, _, reply = replies[complete]
            assert 400 <= status < 500 and reply["error"]["code"]


def _hold_slot(server, body: bytes) -> socket.socket:
    """A POST whose head is sent but whose body is held back: admitted,
    it keeps one ``max_pending`` slot until :func:`_finish_held` sends the
    body (admission runs before the body is read)."""
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=30)
    sock.sendall((
        "POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode())
    deadline = time.monotonic() + 10
    while server.admission.pending < 1:
        assert time.monotonic() < deadline, "held request never admitted"
        time.sleep(0.005)
    return sock


def _finish_held(sock: socket.socket, body: bytes) -> int:
    """Send the held body; the status of the reply."""
    with sock:
        sock.sendall(body)
        buf = b""
        while chunk := sock.recv(65536):
            buf += chunk
    return _parse_response(buf)[0]


class TestOverload:
    """Offered load > capacity: shed loudly, answer everything."""

    @pytest.fixture()
    def payload(self, trained_hategen):
        t = trained_hategen[1][0]
        return {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp}

    @pytest.fixture()
    def one_slot_server(self, registry):
        # One request in flight at a time, so overload is deterministic
        # regardless of host speed: a held request fills the server.
        engine = engine_from_store(registry, max_batch_size=32)
        with AsyncPredictionServer(
            engine, port=0, registry=registry,
            admission=AdmissionController(max_pending=1),
        ) as srv:
            yield srv

    def test_shed_with_retry_after_and_no_silent_drops(self, one_slot_server, payload):
        body = json.dumps(payload).encode()
        held = _hold_slot(one_slot_server, body)
        n_requests, n_threads = 40, 8
        results, lock = [], threading.Lock()

        def fire(n):
            got = []
            for _ in range(n):
                got.append(raw_request(
                    one_slot_server, "POST", "/v1/predict/hategen", payload
                ))
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
        assert _finish_held(held, body) == 200
        # The slot is free again once the held request is answered.
        after = raw_request(one_slot_server, "POST", "/v1/predict/hategen", payload)

        # Zero silent drops: every request got an HTTP response.
        assert len(results) == n_requests
        assert [status for status, _, _ in results] == [429] * n_requests
        for _, headers, body_ in results:
            assert int(headers["Retry-After"]) >= 1
            assert headers.get("Connection") == "close"
            assert body_["error"]["code"] == "shed_queue_full"
        assert after[0] == 200

        # The server releases a slot just after its reply is written.
        deadline = time.monotonic() + 10
        while one_slot_server.admission.pending and time.monotonic() < deadline:
            time.sleep(0.005)
        snap = one_slot_server.admission.snapshot()
        assert snap["admitted"] == 2
        assert snap["shed"] == n_requests
        assert snap["pending"] == 0  # every admitted request was released

    def test_client_retries_on_429_honouring_retry_after(self, one_slot_server, payload):
        body = json.dumps(payload).encode()
        held = _hold_slot(one_slot_server, body)
        # The held request finishes 0.2 s in, well before the client's
        # retry, which waits for the 429's Retry-After: 1.
        finisher = threading.Timer(0.2, _finish_held, args=(held, body))
        host, port = one_slot_server.address
        with ServingClient(host=host, port=port, retries=2, backoff=0.01) as client:
            start = time.monotonic()
            finisher.start()
            r = client.predict_hategen(
                payload["user_id"], payload["hashtag"], payload["timestamp"]
            )
            elapsed = time.monotonic() - start
        finisher.join()
        assert r.label in (0, 1)  # retried through the 429
        # The wait came from the server's Retry-After hint (1 s), not the
        # 10 ms client backoff.
        assert elapsed >= 0.5
        assert one_slot_server.admission.snapshot()["shed"] == 1

    def test_full_pending_sheds_typed_429(self, one_slot_server, payload):
        body = json.dumps(payload).encode()
        held = _hold_slot(one_slot_server, body)
        status, headers, reply = raw_request(
            one_slot_server, "POST", "/v1/predict/hategen", payload
        )
        assert _finish_held(held, body) == 200
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert headers.get("Connection") == "close"
        assert reply["error"]["code"] == "shed_queue_full"

    def test_queue_age_sheds_typed_429(self, registry, payload, on_loop):
        engine = engine_from_store(registry, max_batch_size=8)
        admission = AdmissionController(max_queue_age_s=0.05)
        with AsyncPredictionServer(
            engine, port=0, registry=registry, admission=admission
        ) as srv:
            gate = threading.Event()
            blocker = on_loop(srv, lambda: engine.submit_job(lambda: gate.wait(30)))
            # Waits behind the job.
            queued = on_loop(srv, lambda: engine.submit("hategen", payload))
            try:
                while engine.queue_age_s() < 0.1:
                    time.sleep(0.01)
                status, headers, reply = raw_request(
                    srv, "POST", "/v1/predict/hategen", payload
                )
            finally:
                gate.set()
            blocker.result(timeout=30)
            assert "label" in queued.result(timeout=30)
            after = raw_request(srv, "POST", "/v1/predict/hategen", payload)
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert headers.get("Connection") == "close"
        assert reply["error"]["code"] == "shed_engine_saturated"
        assert after[0] == 200  # the queue drained, so admission resumes


# ---------------------------------------------------------------------------
# The end-to-end serving acceptance path: train -> save bundle -> load (world
# read from the bundle) -> serve -> POST -> scores identical to in-process
# ``trainer.predict_static_scores`` — plus error handling over the same server.
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
def bundle_server(registry):
    """A live server over bundles loaded from disk with their saved worlds.

    The retina bundle reads its world from the bundle; the hategen bundle
    shares it — exactly what ``repro serve`` does.
    """
    retina = registry.load_bundle("retina")
    hategen = registry.load_bundle("hategen", world=retina.extractor.world)
    engine = InferenceEngine(
        {
            "retweeters": RetweeterPredictor(retina),
            "hategen": HateGenPredictor(hategen),
        },
        max_batch_size=32,
    )
    with AsyncPredictionServer(engine, port=0) as srv:
        yield srv


class TestEndToEnd:
    def test_retweeter_scores_identical_to_in_process(
        self, bundle_server, trained_retina
    ):
        trainer, _, test_samples = trained_retina
        for sample in test_samples[:3]:
            expected = trainer.predict_static_scores(sample)
            status, result = _post(
                bundle_server.url + "/v1/predict/retweeters",
                {
                    "cascade_id": sample.candidate_set.cascade.root.tweet_id,
                    "user_ids": sample.candidate_set.users,
                },
            )
            assert status == 200
            assert set(result) == {"cascade_id", "mode", "interval", "scores",
                                   "ranking"}
            got = np.array(
                [result["scores"][str(u)] for u in sample.candidate_set.users]
            )
            np.testing.assert_allclose(got, expected, atol=1e-12)



class TestLegacyEndToEnd:
    """Health and metrics over the bundle-loaded server.

    These checks began on the unversioned ``/healthz`` and ``/metrics``
    routes; those are retired, so the same assertions run on ``/v1``.
    """

    def test_healthz(self, bundle_server):
        status, body = _get(bundle_server.url + "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"]["retweeters"]["mode"] == "static"
        assert body["models"]["hategen"]["model_key"] == "logreg"

    def test_metrics_after_traffic(self, bundle_server, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        _post(bundle_server.url + "/v1/predict/retweeters",
              {"cascade_id": cid, "top_k": 3})
        status, body = _get(bundle_server.url + "/v1/metrics")
        assert status == 200
        snap = body["retweeters"]
        assert snap["requests"] >= 1
        assert "p50_ms" in snap and "p95_ms" in snap
        assert "features" in snap["caches"]


class TestErrorHandling:
    def _error(self, request):
        try:
            urllib.request.urlopen(request, timeout=60)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)
        raise AssertionError("expected an HTTP error")

    def _post_error(self, url, payload):
        return self._error(urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        ))

    def test_unknown_cascade_404(self, bundle_server):
        code, body = self._post_error(
            bundle_server.url + "/v1/predict/retweeters", {"cascade_id": 10**9}
        )
        assert code == 404
        assert body["error"]["code"] == "not_found"
        assert "unknown cascade" in body["error"]["message"]

    def test_missing_field_400(self, bundle_server):
        code, body = self._post_error(
            bundle_server.url + "/v1/predict/retweeters", {}
        )
        assert code == 400
        assert body["error"]["code"] == "missing_field"
        assert body["error"]["field"] == "cascade_id"

    def test_invalid_json_400(self, bundle_server):
        code, body = self._error(urllib.request.Request(
            bundle_server.url + "/v1/predict/retweeters",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
        ))
        assert code == 400
        assert body["error"]["code"] == "invalid_json"

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{",                          # not UTF-8 (UnicodeDecodeError)
        b'{"cascade_id": ' + b"9" * 5000 + b"}",  # past the int-digit limit
        b'{"cascade_id": 0, "\xed\xa0\x80": 1}',  # an encoded lone surrogate
        '{"cascade_id": 0}'.encode("utf-16"),     # JSON, but not UTF-8
    ], ids=["undecodable", "huge_int", "surrogate", "utf16"])
    def test_undecodable_json_400(self, bundle_server, data):
        code, body = self._error(urllib.request.Request(
            bundle_server.url + "/v1/predict/retweeters",
            data=data,
            headers={"Content-Type": "application/json"},
        ))
        assert code == 400
        assert body["error"]["code"] == "invalid_json"

    def test_get_unknown_route_404(self, bundle_server):
        code, body = self._error(bundle_server.url + "/nope")
        assert code == 404
        assert body["error"]["code"] == "unknown_route"
