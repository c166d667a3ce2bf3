"""Asyncio HTTP/1.1 server for the inference engine — API v1.

This module is the whole HTTP layer: the transport and every ``/v1/*``
route.  A single event loop on :func:`asyncio.start_server` runs:

- hand-rolled HTTP/1.1 parsing (request line + headers via
  ``readline``), keep-alive by default, and pipelined requests served
  in order straight out of the reader buffer; bodies are framed by a
  digits-only ``Content-Length`` (a ``Transfer-Encoding`` request gets
  501), and a malformed header line or a repeated ``Host`` gets 400 and
  a close; ``Connection`` is read as a token list over all its lines;
- one read deadline per request stage, each a single loop timer (no
  Task per read): the request line within ``keepalive_timeout`` (a
  quiet close), the whole rest of the head within ``header_timeout``
  (400 ``header read timed out`` and a close, however many lines came),
  the body within ``request_timeout`` (an abort); stalled heads and
  bodies are counted in ``repro_aio_aborted_requests_total{stage}``;
- one route table: a request's ``(method, path)`` is resolved once,
  before the body is read, into its metric label, whether it is a
  data-plane route (sheddable and traced), and its handler — so an
  unknown route or predictor kind is answered 404 without reading the
  payload;
- the engine's batcher as one task on the same loop
  (:meth:`InferenceEngine.batching`): :meth:`InferenceEngine.submit` (a
  read) and :meth:`InferenceEngine.submit_ingest` queue an asyncio
  future for it, so no request crosses a thread.  Reads run on the loop;
  ingest batches and model reloads, which block on the disk, run in the
  batcher's one-worker executor while the loop accepts and parses.  A
  handler waits at most ``request_timeout`` (``asyncio.wait_for`` on the
  future, which starts no Task), then answers 503 with ``Retry-After``;
- admission control (:mod:`repro.serving.admission`: an in-flight
  bound and a shed on the engine's queue age) runs after route
  resolution but before the body is read, so a shed request costs one
  decision and one small write.

The event loop runs in a daemon thread so synchronous callers (tests,
the benchmark, the CLI) use this class like any blocking server:
``start()``/``stop()``, ``with`` support, ``port=0`` for an ephemeral
port.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import socket
import threading
from typing import Callable, NamedTuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serving.admission import AdmissionController
from repro.serving.engine import InferenceEngine, ServingError
from repro.serving.registry import (
    ModelRegistry,
    RegistryCorruptError,
    RegistryError,
)
from repro.serving.schemas import (
    BatchRequest,
    IngestRequest,
    ReloadRequest,
    request_schema_for,
)
from repro.store import StoreIOError

__all__ = ["AsyncPredictionServer", "serve_forever_async"]

MAX_BODY_BYTES = 8 * 1024 * 1024

_log = obs_log.get_logger("repro.serving.aio")

#: Hard parser bounds — a hostile peer can't make us buffer unboundedly.
_MAX_LINE = 16 * 1024
_MAX_HEADERS = 100

#: A field name is an RFC 9110 token.  Whitespace before the colon and a
#: folded (whitespace-led) continuation line both fail it: 400 (RFC 9112
#: 5.1, 5.2).
_FIELD_NAME_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
#: Control characters other than HTAB (a bare CR, say) are invalid in a
#: field value.
_FIELD_CTL_RE = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")

#: Client-supplied trace ids are used verbatim when well-formed; anything
#: else is ignored so a hostile header can't pollute the trace store keys.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Requests that died before a reply could be computed: the peer vanished
#: or stalled while we were still reading its head or body.  Labelled by
#: where in the request the abort happened.
_ABORTED = obs_metrics.REGISTRY.counter(
    "repro_aio_aborted_requests_total",
    "Requests aborted mid-read (client disconnect or stall)",
    labels=("stage",),
)

HTTP_REQUESTS = obs_metrics.REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP responses by templated route, method, and status code.",
    ("route", "method", "status"),
)

_STATUS_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Content Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable",
}

_OVERLOADED_MSG = "the engine did not answer in time; retry later"


class _BadRequest(ServingError):
    """Protocol-level garbage: answer 400 (431 for an over-long line), if
    possible, and hang up."""

    def __init__(self, message: str, status: int = 400, code: str = "bad_request"):
        super().__init__(message, status, code=code)


class Reply:
    """One response: status, JSON-ready body (or text), headers, close."""

    __slots__ = ("status", "obj", "text", "content_type", "headers", "close")

    def __init__(self, status: int, obj: dict | None = None, *,
                 text: str | None = None,
                 content_type: str = "application/json",
                 headers: dict | None = None, close: bool = False):
        self.status = status
        self.obj = obj
        self.text = text
        self.content_type = content_type
        self.headers = headers or {}
        self.close = close

    def body_bytes(self) -> bytes:
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(self.obj).encode("utf-8")


class _Route(NamedTuple):
    #: ``async (server, path parameter, query, raw body) -> Reply``.
    handler: Callable
    #: Data-plane routes (predict, batch, ingest) pass admission control
    #: and get an ``http.request`` root span; control-plane routes do not.
    data_plane: bool = False


#: Paths that are their own metric label.
_EXACT_PATHS = frozenset(
    ("/", "/v1/healthz", "/v1/metrics", "/v1/models", "/v1/traces", "/v1/ingest")
)
#: ``(prefix, label)``: the rest of the path is the route's parameter.
_PREFIX_PATHS = (
    ("/v1/predict/", "/v1/predict/{kind}"),
    ("/v1/batch/", "/v1/batch/{kind}"),
    ("/v1/traces/", "/v1/traces/{id}"),
)
_MODEL_PATH_RE = re.compile(r"^/v1/models/([A-Za-z0-9._-]+)(/versions|/reload)?$")


def _template(path: str) -> tuple[str, str | None]:
    """``(metric label, path parameter)`` of a request path.

    The label has bounded cardinality: a route template, ``/``, or
    ``other``.  It depends on the path only, so a wrong method or an
    unknown kind is still counted under its template.
    """
    if path in _EXACT_PATHS:
        return path, None
    for prefix, label in _PREFIX_PATHS:
        if path.startswith(prefix):
            return label, path[len(prefix):]
    m = _MODEL_PATH_RE.match(path)
    if m:
        return "/v1/models/{name}" + (m.group(2) or ""), m.group(1)
    return "other", None


def _resolve(method: str, path: str, label: str, kind: str | None,
             headers: dict) -> _Route:
    """The route for a request, or the :class:`ServingError` refusing it
    before any body byte is read."""
    if "transfer-encoding" in headers:
        # Only Content-Length frames a body here: reading past a chunked
        # body would desync the connection, and with both headers the
        # framing is ambiguous (RFC 9112 6.3).  Refuse before routing.
        raise ServingError(
            "Transfer-Encoding is not supported; send Content-Length",
            status=501, code="unsupported_transfer_encoding",
        )
    if method not in ("GET", "POST"):
        raise ServingError(f"method {method!r} not supported",
                           status=405, code="method_not_allowed")
    route = _ROUTES.get((method, label))
    if route is None:
        raise ServingError(f"no route {path!r}", status=404, code="unknown_route")
    if label.endswith("{kind}"):
        request_schema_for(kind)  # unknown predictor kind -> 404
    return route


def _parse_body(raw: bytes, *, optional: bool = False) -> dict:
    """Parse already-read body bytes into a JSON object payload."""
    if not raw:
        if optional:
            return {}
        raise ServingError("request body required", code="missing_body")
    with obs_trace.span("handler.parse", bytes=len(raw)):
        try:
            # Strict UTF-8 (RFC 8259 8.1): ``json.loads`` on bytes would
            # also take UTF-16/32 and, through "surrogatepass", encoded
            # lone surrogates.
            payload = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int limit
            raise ServingError(
                f"invalid JSON body: {exc}", code="invalid_json"
            ) from exc
        if not isinstance(payload, dict):
            raise ServingError("body must be a JSON object", code="invalid_type")
    return payload


def _error_reply(exc: BaseException, *, close: bool = False,
                 headers: dict | None = None, label: str = "other",
                 method: str = "?") -> Reply:
    """Any handler exception -> the structured error reply."""
    if isinstance(exc, RegistryCorruptError):
        # The version exists but failed integrity checks; reload aborts
        # before any swap, so the old predictor keeps serving.
        exc = ServingError(str(exc), status=409, code="model_corrupt")
    elif isinstance(exc, RegistryError):
        exc = ServingError(str(exc), status=404, code="model_not_found")
    elif isinstance(exc, StoreIOError):
        # Append/fsync failure: nothing past the last acked event was
        # accepted, and acked events are durable — safe to retry.
        exc = ServingError(str(exc), status=503, code="store_io")
    if isinstance(exc, ServingError):
        return Reply(exc.status, exc.as_error(), headers=headers, close=close)
    _log.error(
        "http.internal_error",
        route=label,
        method=method,
        error=f"{type(exc).__name__}: {exc}"[:400],
    )
    message = f"{type(exc).__name__}: {exc}"
    body = {"error": {"code": "internal", "message": message, "field": None}}
    return Reply(500, body, headers=headers, close=close)


def _overloaded() -> ServingError:
    return ServingError(_OVERLOADED_MSG, status=503, code="overloaded")


def _aliases(registry: ModelRegistry, name: str) -> dict:
    return {
        alias: target["version"]
        for alias, target in registry.aliases(name).items()
    }


class _Deadline:
    """The read deadline of one connection's current request stage.

    ``with deadline.stage(seconds):`` arms one ``loop.call_later`` timer
    and cancels it when the stage's reads are done, so a read of bytes
    already buffered costs no Task and no extra loop iteration, unlike
    ``asyncio.wait_for``.  When the timer fires it ends the stalled read
    with ``reader.feed_eof()``, after it stops reading on the transport:
    ``StreamReader.feed_data`` asserts that nothing arrives after EOF.
    ``expired`` then tells the deadline apart from a peer that hung up,
    and the connection can only close.
    """

    __slots__ = ("_reader", "_transport", "_handle", "expired")

    def __init__(self, reader: asyncio.StreamReader, transport: asyncio.Transport):
        self._reader = reader
        self._transport = transport
        self._handle: asyncio.TimerHandle | None = None
        self.expired = False

    def stage(self, timeout: float) -> "_Deadline":
        self._handle = asyncio.get_running_loop().call_later(timeout, self._expire)
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        self._handle.cancel()

    def _expire(self) -> None:
        self.expired = True
        self._transport.pause_reading()
        self._reader.feed_eof()


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    """One head line; a 431 :class:`_BadRequest` when it is over a bound.

    ``StreamReader.readline`` raises ``ValueError`` for a line past the
    reader's buffer limit; lines under that limit but over ``_MAX_LINE``
    are refused the same way.
    """
    try:
        line = await reader.readline()
    except ValueError:
        line = None
    if line is None or len(line) > _MAX_LINE:
        raise _BadRequest(f"{what} too long", 431, "header_too_large")
    return line


class AsyncPredictionServer:
    """Owns the asyncio HTTP server, the ``/v1`` routes and the engine
    lifecycle.

    ``admission`` gates the data-plane routes on ``engine``'s queue age
    and surfaces its counters in the ``/v1/metrics`` body.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        registry: ModelRegistry | str | None = None,
        request_timeout: float = 60.0,
        admission: AdmissionController | None = None,
        keepalive_timeout: float = 75.0,
        header_timeout: float = 10.0,
    ):
        self.engine = engine
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.admission = admission
        #: Read deadlines, one per request stage: the request line (idle
        #: keep-alive wait), the rest of the head, and the body.  The body's
        #: also bounds the wait for the engine's answer.
        self.keepalive_timeout = keepalive_timeout
        self.header_timeout = header_timeout
        self.request_timeout = request_timeout
        self._host = host
        self._port = port
        self._bound: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound."""
        if self._bound is None:
            raise RuntimeError("server not started")
        return self._bound

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AsyncPredictionServer":
        """Start the engine and the event loop (daemon thread)."""
        self.engine.start()
        if self._thread is None or not self._thread.is_alive():
            self._started.clear()
            self._startup_error = None
            self._thread = threading.Thread(
                target=lambda: asyncio.run(self._main()),
                name="repro-serving-aio",
                daemon=True,
            )
            self._thread.start()
            if not self._started.wait(timeout=10.0):
                raise RuntimeError("asyncio front end failed to start in 10s")
            if self._startup_error is not None:
                raise self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=10.0)
        self._thread = None
        self.engine.stop()

    def __enter__(self) -> "AsyncPredictionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._serve_connection, self._host, self._port, backlog=512
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._bound = server.sockets[0].getsockname()[:2]
        async with self.engine.batching():
            self._started.set()
            async with server:
                await self._stop_event.wait()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ----------------------------------------------------------- connection
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # One response goes out as one write, but predict replies can
            # follow a tiny 100-ms-earlier write on keep-alive connections;
            # never let Nagle + delayed ACK stall them.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        deadline = _Deadline(reader, writer.transport)
        try:
            # Stopping closes a kept-alive connection after its reply: a read
            # the engine failed at shutdown is still answered (a done future
            # beats the cancel in ``wait_for``), and its handler comes back.
            while not self._stop_event.is_set():
                keep_alive = await self._serve_one(reader, writer, deadline)
                if not keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionError,
                asyncio.IncompleteReadError):
            pass
        except _BadRequest as exc:
            try:
                self._write_reply(writer, "other", "?", None,
                                  _error_reply(exc, close=True))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except Exception as exc:  # keep the listener alive
            _log.error(
                "aio.connection_error",
                error=f"{type(exc).__name__}: {exc}"[:400],
            )
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request_head(
        self, reader: asyncio.StreamReader, deadline: _Deadline
    ) -> tuple[str, str, str, dict] | None:
        """Parse ``(method, target, version, headers)``; None on clean EOF.

        The request line must arrive within ``keepalive_timeout`` (the
        idle wait; a quiet close), and then every header line within one
        ``header_timeout`` budget for the whole head.
        """
        with deadline.stage(self.keepalive_timeout):
            line = await _readline(reader, "request line")
        if not line or deadline.expired:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {line!r:.80}")
        method, target, version = parts
        headers: dict[str, str] = {}
        with deadline.stage(self.header_timeout):
            for _ in range(_MAX_HEADERS):
                line = await _readline(reader, "header line")
                if deadline.expired:
                    # Slow-loris: the head did not finish within its budget.
                    _ABORTED.inc(stage="head")
                    raise _BadRequest("header read timed out")
                if line == b"":
                    # Peer vanished mid-head: abort quietly, nothing to answer.
                    _ABORTED.inc(stage="head")
                    return None
                if line in (b"\r\n", b"\n"):
                    break
                text = line.decode("latin-1").removesuffix("\n").removesuffix("\r")
                name, sep, value = text.partition(":")
                value = value.strip(" \t")
                if (not sep or not _FIELD_NAME_RE.fullmatch(name)
                        or _FIELD_CTL_RE.search(value)):
                    raise _BadRequest(f"malformed header line {line!r:.80}")
                name = name.lower()
                if name == "content-length":
                    # 1*DIGIT, or the body's framing is unknown (RFC 9112
                    # 6.3): int() would also take "-1", "+0" and "1_0".
                    if not (value.isascii() and value.isdigit()):
                        raise _BadRequest(f"bad Content-Length {value!r:.40}")
                    if headers.get(name, value) != value:
                        # Which length frames the body is ambiguous.
                        raise _BadRequest("conflicting Content-Length headers")
                elif name == "host" and name in headers:
                    # Which authority is meant is ambiguous (RFC 9112 3.2).
                    raise _BadRequest("repeated Host header")
                elif name == "connection" and name in headers:
                    # A list field: its lines combine (RFC 9110 5.3).
                    value = f"{headers[name]}, {value}"
                headers[name] = value
            else:
                raise _BadRequest("too many headers")
        return method, target, version, headers

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        deadline: _Deadline,
    ) -> bool:
        """Serve one request; return False when the connection must close."""
        head = await self._read_request_head(reader, deadline)
        if head is None:
            return False
        method, target, version, headers = head
        # Connection is a case-insensitive token list (RFC 9110 7.6.1):
        # ``close`` anywhere in it closes.
        connection = {
            token.strip().lower() for token in headers.get("connection", "").split(",")
        }
        keep_alive = "close" not in connection and (
            version != "HTTP/1.0" or "keep-alive" in connection
        )
        path, query = _split_target(target)
        label, arg = _template(path)

        try:
            route = _resolve(method, path, label, arg, headers)
        except ServingError as exc:
            # Nothing of the body was read: a POST's is still on the wire,
            # and a refused method's framing is unknown — close.
            reply = _error_reply(exc, close=(method == "POST" or exc.status != 404))
            self._write_reply(writer, label, method, None, reply)
            await writer.drain()
            return keep_alive and not reply.close

        admitted = None
        if route.data_plane and self.admission is not None:
            admitted = self.admission.admit(label, self.engine.queue_age_s())
            if not admitted.admitted:
                # 429 + Retry-After; always closes (the body was never read).
                exc = ServingError(
                    f"request shed ({admitted.reason}); retry after "
                    f"{admitted.retry_after_header}s",
                    status=429,
                    code="shed_" + admitted.reason,
                )
                reply = _error_reply(
                    exc, close=True,
                    headers={"Retry-After": admitted.retry_after_header},
                )
                self._write_reply(writer, label, method, None, reply)
                await writer.drain()
                return False
        try:
            root = obs_trace.NOOP
            if route.data_plane:
                inbound = headers.get("x-trace-id", "")
                if not _TRACE_ID_RE.match(inbound):
                    inbound = ""
                root = obs_trace.start_trace(
                    "http.request",
                    trace_id=inbound or None,
                    sampled=True if inbound else None,
                    method=method,
                    route=label,
                )
            with root:
                reply = await self._dispatch(route, label, method, arg, query,
                                             headers, reader, deadline)
                self._write_reply(writer, label, method, root.trace_id, reply)
            await writer.drain()
            return keep_alive and not reply.close
        finally:
            if admitted is not None:
                self.admission.release()

    async def _dispatch(self, route: _Route, label: str, method: str,
                        arg: str | None, query: dict, headers: dict,
                        reader: asyncio.StreamReader, deadline: _Deadline) -> Reply:
        """Read the body, then run the route's handler."""
        # Body size policing before the read: answer 413 off the headers
        # alone so an oversized body is never buffered.  The length is
        # digits only; one longer than the limit's is over it unparsed.
        length = headers.get("content-length", "0").lstrip("0") or "0"
        if len(length) > len(str(MAX_BODY_BYTES)) or int(length) > MAX_BODY_BYTES:
            exc = ServingError(
                f"body too large ({length} bytes; the limit is {MAX_BODY_BYTES})",
                status=413, code="body_too_large",
            )
            return _error_reply(exc, close=True)
        raw = b""
        if length != "0":
            try:
                with deadline.stage(self.request_timeout):
                    raw = await reader.readexactly(int(length))
            except (asyncio.IncompleteReadError, ConnectionError):
                # The peer disconnected (or stalled past the deadline)
                # mid-body: nothing was dispatched, nobody to answer —
                # count and hang up.
                _ABORTED.inc(stage="body")
                raise
        try:
            return await route.handler(self, arg, query, raw)
        except Exception as exc:
            # An unparseable body was still *read*, so keep-alive survives;
            # a missing one means there is nothing to resync on — close.
            missing = isinstance(exc, ServingError) and exc.code == "missing_body"
            return _error_reply(exc, close=missing, label=label, method=method)

    # ------------------------------------------------------------- handlers
    # Each takes (path parameter, query, raw body) and returns a Reply;
    # ``_ROUTES`` below maps (method, label) to them.
    async def _healthz(self, arg, query, raw) -> Reply:
        return Reply(200, {"status": "ok", "api": "v1",
                           "models": self.engine.describe()})

    async def _metrics(self, arg, query, raw) -> Reply:
        if query.get("format", [""])[0] == "prometheus":
            return Reply(
                200,
                text=obs_metrics.REGISTRY.render(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        body = self.engine.metrics()
        body["http"] = {"responses": HTTP_REQUESTS.snapshot()}
        store = self.engine.store_stats()
        if store is not None:
            body["store"] = store
        if self.admission is not None:
            body["admission"] = self.admission.snapshot()
        return Reply(200, body)

    async def _traces(self, arg, query, raw) -> Reply:
        return Reply(200, {"traces": obs_trace.STORE.summaries()})

    async def _trace(self, trace_id, query, raw) -> Reply:
        tree = obs_trace.STORE.trace(trace_id)
        if tree is None:
            raise ServingError(
                f"unknown trace {trace_id!r}", status=404, code="unknown_trace"
            )
        return Reply(200, tree)

    async def _models(self, arg, query, raw) -> Reply:
        registry = self._registry()
        models = []
        for name in registry.list_models():
            versions = registry.list_versions(name)
            models.append(
                {
                    "name": name,
                    "kind": registry.manifest(name)["kind"],
                    "versions": versions,
                    "latest": versions[-1],
                    "aliases": _aliases(registry, name),
                }
            )
        return Reply(200, {"models": models})

    async def _model(self, name, query, raw) -> Reply:
        version = query.get("version")
        if version is not None:
            try:
                version = int(version[0])
            except ValueError:
                raise ServingError(
                    f"version: {version[0]!r} is not a valid int",
                    code="invalid_type",
                    field="version",
                ) from None
        return Reply(200, self._registry().manifest(name, version))

    async def _versions(self, name, query, raw) -> Reply:
        registry = self._registry()
        name, _ = registry.resolve(name)
        versions = registry.list_versions(name)
        return Reply(200, {
            "name": name,
            "versions": versions,
            "latest": versions[-1],
            "aliases": _aliases(registry, name),
        })

    async def _reload(self, name, query, raw) -> Reply:
        payload = _parse_body(raw, optional=True)
        # Alias reads and bundle deserialisation block: a batcher job runs
        # them off the loop, after the reads queued before it.
        return Reply(200, await self.engine.submit_job(
            lambda: self._reload_model(name, payload)
        ))

    def _reload_model(self, name: str, payload: dict) -> dict:
        registry = self._registry()
        req = ReloadRequest.validate(payload)
        version = req.version
        if req.alias is not None:
            alias_name, alias_version = registry.resolve(req.alias)
            if alias_name != registry.resolve(name)[0]:
                raise ServingError(
                    f"alias {req.alias!r} points at model {alias_name!r}, "
                    f"not {name!r}",
                    status=409,
                    code="alias_mismatch",
                    field="alias",
                )
            version = alias_version if version is None else version
        return self.engine.reload_model(registry, name, version)

    async def _engine_reply(self, kind: str, future) -> Reply:
        """Await an engine future for at most ``request_timeout``."""
        try:
            result = await asyncio.wait_for(future, timeout=self.request_timeout)
        except asyncio.TimeoutError:
            # Accepted but never answered: 503 + Retry-After.  ``wait_for``
            # cancelled the future, so a job that has not started never
            # runs; a started ingest completes, and its retry is acked by
            # dedup.
            self.engine.record_timeout(kind)
            return _error_reply(_overloaded(), headers={"Retry-After": "1"})
        if "error" in result:
            return Reply(int(result.get("status", 400)), {"error": result["error"]})
        return Reply(200, result)

    async def _ingest(self, arg, query, raw) -> Reply:
        req = IngestRequest.validate(_parse_body(raw))
        return await self._engine_reply("ingest", self.engine.submit_ingest(req.events))

    async def _predict(self, kind, query, raw) -> Reply:
        return await self._engine_reply(kind, self.engine.submit(kind, _parse_body(raw)))

    async def _batch(self, kind, query, raw) -> Reply:
        batch = BatchRequest.validate(_parse_body(raw))
        futures = [self.engine.submit(kind, item) for item in batch.requests]
        await asyncio.wait(futures, timeout=self.request_timeout)
        results = []
        for aw in futures:
            if not aw.done():
                self.engine.record_timeout(kind)
                aw.cancel()
                results.append(_overloaded().as_result())
            elif aw.cancelled():
                results.append(_overloaded().as_result())
            elif aw.exception() is not None:
                exc = aw.exception()
                results.append(
                    ServingError(
                        f"{type(exc).__name__}: {exc}", status=500, code="internal"
                    ).as_result()
                )
            else:
                results.append(aw.result())
        n_errors = sum(1 for result in results if "error" in result)
        return Reply(200, {"results": results, "n_ok": len(results) - n_errors,
                           "n_errors": n_errors})

    def _registry(self) -> ModelRegistry:
        if self.registry is None:
            raise ServingError(
                "no model registry attached to this server; start it with "
                "`repro serve --store ...` to enable model lifecycle routes",
                status=503,
                code="registry_unavailable",
            )
        return self.registry

    # --------------------------------------------------------------- writer
    def _write_reply(
        self,
        writer: asyncio.StreamWriter,
        route: str,
        method: str,
        trace_id: str | None,
        reply: Reply,
    ) -> None:
        """Serialise one response and queue it as a single write."""
        with obs_trace.span("http.serialize", status=reply.status):
            body = reply.body_bytes()
        HTTP_REQUESTS.inc(route=route, method=method, status=str(reply.status))
        phrase = _STATUS_PHRASES.get(reply.status, "Unknown")
        lines = [
            f"HTTP/1.1 {reply.status} {phrase}",
            "Server: repro-serving-aio/1",
            f"Content-Type: {reply.content_type}",
            f"Content-Length: {len(body)}",
        ]
        headers = dict(reply.headers)
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        if reply.close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)


#: The API v1 surface: ``(method, label) -> route``.
_ROUTES = {
    ("GET", "/v1/healthz"): _Route(AsyncPredictionServer._healthz),
    ("GET", "/v1/metrics"): _Route(AsyncPredictionServer._metrics),
    ("GET", "/v1/traces"): _Route(AsyncPredictionServer._traces),
    ("GET", "/v1/traces/{id}"): _Route(AsyncPredictionServer._trace),
    ("GET", "/v1/models"): _Route(AsyncPredictionServer._models),
    ("GET", "/v1/models/{name}"): _Route(AsyncPredictionServer._model),
    ("GET", "/v1/models/{name}/versions"): _Route(AsyncPredictionServer._versions),
    ("POST", "/v1/models/{name}/reload"): _Route(AsyncPredictionServer._reload),
    ("POST", "/v1/predict/{kind}"): _Route(AsyncPredictionServer._predict, data_plane=True),
    ("POST", "/v1/batch/{kind}"): _Route(AsyncPredictionServer._batch, data_plane=True),
    # An overloaded server refuses ingest before the body read too; the
    # client retries safely (dedup makes a replayed POST idempotent).
    ("POST", "/v1/ingest"): _Route(AsyncPredictionServer._ingest, data_plane=True),
}


def _split_target(target: str) -> tuple[str, dict]:
    """Split a request target into (path, query dict-of-lists)."""
    parts = urlsplit(target)
    return parts.path.rstrip("/") or "/", parse_qs(parts.query)


def serve_forever_async(
    engine: InferenceEngine,
    host: str,
    port: int,
    *,
    registry: ModelRegistry | str | None = None,
    admission: AdmissionController | None = None,
) -> None:
    """Blocking serve loop for the CLI; Ctrl-C or SIGTERM stops it.

    SIGTERM takes the same path as Ctrl-C: it raises ``KeyboardInterrupt``
    in the main thread, which stops the server.  A process started with
    SIGINT ignored (a background job of a non-interactive shell) gets the
    default SIGINT handler back, so Ctrl-C / ``kill -INT`` stop it too.
    """
    server = AsyncPredictionServer(
        engine, host, port, registry=registry, admission=admission
    )
    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous[signal.SIGTERM] = signal.signal(signal.SIGTERM, _raise_interrupt)
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            previous[signal.SIGINT] = signal.signal(
                signal.SIGINT, signal.default_int_handler
            )
    try:
        server.start()
        host_, port_ = server.address
        print(
            f"serving on http://{host_}:{port_}  "
            f"(async front end; models: {sorted(engine.predictors)})"
        )
        while True:
            server._thread.join(timeout=1.0)
            if not server._thread.is_alive():
                break
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt
