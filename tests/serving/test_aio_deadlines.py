"""The asyncio front end's read deadlines, one per request stage.

The request line must arrive within ``keepalive_timeout`` (else a quiet
close), the rest of the head within one ``header_timeout`` budget (else
a typed 400 and a close, however many lines came), and the body within
``request_timeout`` (else an abort).  Each stage is one loop timer, so a
request creates no asyncio Task: the cost pin at the end counts them.
"""

import asyncio
import json
import logging
import socket
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.serving import AsyncPredictionServer, engine_from_store

#: Short enough to keep the suite fast, long enough that a request sent
#: at once never trips it.
TIMEOUT = 0.3
#: Slack for the server to notice, answer and close.
MARGIN = 2.0

_ABORTED = obs_metrics.REGISTRY.counter(
    "repro_aio_aborted_requests_total", labels=("stage",)
)


@pytest.fixture(scope="module")
def short_server(registry):
    engine = engine_from_store(registry, max_batch_size=8)
    with AsyncPredictionServer(
        engine, port=0, registry=registry, keepalive_timeout=TIMEOUT,
        header_timeout=TIMEOUT, request_timeout=TIMEOUT,
    ) as srv:
        yield srv


@pytest.fixture()
def aborted():
    """``aborted()`` -> ``{stage: count}`` since the test started."""
    before = {s: _ABORTED.value(stage=s) for s in ("head", "body")}
    return lambda: {s: _ABORTED.value(stage=s) - n for s, n in before.items()}


@pytest.fixture()
def asyncio_records():
    """Everything the ``asyncio`` logger emits during the test."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def _read_until_close(sock) -> bytes:
    """Every byte the server sends until it closes (a reset ends it too)."""
    buf = b""
    try:
        while chunk := sock.recv(65536):
            buf += chunk
    except ConnectionResetError:
        pass
    return buf


def _response(buf: bytes) -> tuple[int, dict, dict]:
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


def _content_length(buf: bytes) -> int:
    head = buf.partition(b"\r\n\r\n")[0].decode("latin-1")
    return int(next(line.split(": ", 1)[1] for line in head.split("\r\n")
                    if line.lower().startswith("content-length:")))


def _assert_head_timed_out(buf: bytes) -> None:
    assert buf.count(b"HTTP/1.1 ") == 1, buf[:200]
    status, headers, reply = _response(buf)
    assert status == 400
    assert reply["error"]["code"] == "bad_request"
    assert reply["error"]["message"] == "header read timed out"
    assert headers.get("Connection") == "close"


def test_trickled_request_line_closes_quietly(short_server, aborted):
    with socket.create_connection(short_server.address, timeout=10) as sock:
        start = time.monotonic()
        sock.sendall(b"GET /v1/heal")  # no newline, ever
        assert _read_until_close(sock) == b""
        elapsed = time.monotonic() - start
    assert TIMEOUT * 0.8 <= elapsed < TIMEOUT + MARGIN
    assert aborted() == {"head": 0, "body": 0}


def test_trickled_header_line_is_a_typed_400(short_server, aborted):
    with socket.create_connection(short_server.address, timeout=10) as sock:
        start = time.monotonic()
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Slow: a")
        buf = _read_until_close(sock)
        elapsed = time.monotonic() - start
    _assert_head_timed_out(buf)
    assert TIMEOUT * 0.8 <= elapsed < TIMEOUT + MARGIN
    assert aborted() == {"head": 1, "body": 0}


def test_complete_header_lines_share_one_budget(short_server, aborted):
    """One complete header line every 50 ms: each line is prompt, but the
    head as a whole is not, so it is refused within ``header_timeout``
    instead of being read until ``too many headers``."""
    with socket.create_connection(short_server.address, timeout=10) as sock:
        start = time.monotonic()
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
        sock.settimeout(0.05)
        buf, sent = b"", 0
        while time.monotonic() - start < TIMEOUT + MARGIN:
            try:
                sock.sendall(f"X-Line-{sent}: v\r\n".encode())
                sent += 1
            except (BrokenPipeError, ConnectionResetError):
                break
            try:
                buf = sock.recv(65536)
            except socket.timeout:
                continue
            except ConnectionResetError:
                break
            if buf:
                break
        sock.settimeout(10)
        buf += _read_until_close(sock)
        elapsed = time.monotonic() - start
    _assert_head_timed_out(buf)
    assert elapsed < TIMEOUT + MARGIN
    assert sent < 100  # well short of the header-count bound
    assert aborted() == {"head": 1, "body": 0}


def test_idle_keep_alive_connection_closes_quietly(short_server, aborted):
    with socket.create_connection(short_server.address, timeout=10) as sock:
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        start = time.monotonic()
        buf = _read_until_close(sock)
        elapsed = time.monotonic() - start
    status, headers, reply = _response(buf)
    assert status == 200 and reply["status"] == "ok"
    assert headers.get("Connection") != "close"  # kept alive, then idle
    assert buf.count(b"HTTP/1.1 ") == 1
    assert elapsed < TIMEOUT + MARGIN
    assert aborted() == {"head": 0, "body": 0}


def test_stalled_body_is_aborted(short_server, aborted):
    with socket.create_connection(short_server.address, timeout=10) as sock:
        start = time.monotonic()
        sock.sendall(
            b"POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
            b'{"user_id"'
        )
        assert _read_until_close(sock) == b""  # nobody to answer
        elapsed = time.monotonic() - start
    assert TIMEOUT * 0.8 <= elapsed < TIMEOUT + MARGIN
    assert aborted() == {"head": 0, "body": 1}


@pytest.mark.parametrize("stage", ["request_line", "header_line", "body"])
def test_peer_sending_after_the_deadline_is_harmless(
    short_server, aborted, asyncio_records, stage
):
    """Bytes that keep arriving after a deadline fired must not reach the
    reader it fed EOF to: no error inside the protocol callback, nothing
    on the ``asyncio`` logger, and the outcome of a plain stall."""
    heads = {
        "request_line": b"GET /v1/healthz?pad=",
        "header_line": b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Pad: ",
        "body": (b"POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
                 b"Content-Length: 100000\r\n\r\n"),
    }
    with socket.create_connection(short_server.address, timeout=10) as sock:
        sock.sendall(heads[stage])
        sock.settimeout(0.02)
        start, buf = time.monotonic(), b""
        # Trickle for well past the deadline, whatever the server says.
        while time.monotonic() - start < TIMEOUT + 0.5:
            try:
                sock.sendall(b"a")
            except (BrokenPipeError, ConnectionResetError):
                break
            try:
                buf += sock.recv(65536)
            except (socket.timeout, ConnectionResetError):
                pass
        sock.settimeout(10)
        buf += _read_until_close(sock)
    # The server is unharmed.
    with socket.create_connection(short_server.address, timeout=10) as sock:
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert _response(_read_until_close(sock))[0] == 200
    if stage == "header_line":
        _assert_head_timed_out(buf)
        assert aborted() == {"head": 1, "body": 0}
    else:
        assert buf == b""
        assert aborted() == {"head": 0, "body": int(stage == "body")}
    assert not asyncio_records, [r.getMessage() for r in asyncio_records]


def test_pipelined_requests_create_no_task(registry, trained_hategen):
    """Cost pin: reading and answering a request starts no asyncio Task.

    ``asyncio.wait_for`` over a read wraps it in a Task (Python
    3.10/3.11); the stage deadlines are plain loop timers.  Once the
    connection is up (the accept and the connection's own Task), a
    pipeline of keep-alive predict requests adds none.
    """
    t = trained_hategen[1][0]
    body = json.dumps({"user_id": t.user_id, "hashtag": t.hashtag,
                       "timestamp": t.timestamp}).encode()
    request = (
        b"POST /v1/predict/hategen HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    last = request.replace(b"Host: x\r\n", b"Host: x\r\nConnection: close\r\n")
    n = 24
    created = []

    def factory(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)

    engine = engine_from_store(registry, max_batch_size=8)
    with AsyncPredictionServer(engine, port=0, registry=registry) as srv:
        installed = threading.Event()

        def install():
            srv._loop.set_task_factory(factory)
            installed.set()

        srv._loop.call_soon_threadsafe(install)
        assert installed.wait(10)
        with socket.create_connection(srv.address, timeout=30) as sock:
            sock.sendall(request)
            buf = b""
            while (b"\r\n\r\n" not in buf
                   or len(buf.partition(b"\r\n\r\n")[2]) < _content_length(buf)):
                buf += sock.recv(65536)
            assert buf.startswith(b"HTTP/1.1 200 ")
            connection_tasks = list(created)
            sock.sendall(request * (n - 1) + last)
            buf = _read_until_close(sock)
            per_request = created[len(connection_tasks):]
    assert "AsyncPredictionServer._serve_connection" in connection_tasks
    assert buf.count(b"HTTP/1.1 200 ") == n
    assert per_request == []


def test_expired_deadline_stops_reading_while_the_connection_stays_open(
    asyncio_records,
):
    """Between a deadline firing and the close, the server may still wait
    (a drain behind a full write buffer); bytes the peer sends meanwhile
    must not be fed to the reader that was fed EOF."""
    from repro.serving.aio import _Deadline

    async def scenario():
        ours, theirs = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=ours)
        deadline = _Deadline(reader, writer.transport)
        theirs.send(b"partial")  # a line that never ends
        try:
            with deadline.stage(0.05):
                line = await reader.readline()
            assert deadline.expired and line == b"partial"
            for _ in range(5):  # the peer keeps sending; we keep waiting
                theirs.send(b"more")
                await asyncio.sleep(0.02)
            assert reader.at_eof()
        finally:
            writer.close()
            theirs.close()

    asyncio.run(scenario())
    assert not asyncio_records, [r.getMessage() for r in asyncio_records]
