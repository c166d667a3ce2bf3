"""Asyncio HTTP/1.1 front-end for the inference engine — API v1.

The server drives the front-end-agnostic
:class:`~repro.serving.routes.RouteCore` (which owns every ``/v1/*``
route, error shape, and the legacy deprecation shim); the transport is a
single event loop on :func:`asyncio.start_server`:

- hand-rolled HTTP/1.1 parsing (request line + headers via
  ``readline``), keep-alive by default, and pipelined requests served
  in order straight out of the reader buffer;
- engine hand-off via :func:`asyncio.wrap_future` around the
  ``concurrent.futures.Future`` that :meth:`InferenceEngine.submit`
  already returns — the event loop *awaits* the micro-batcher without
  parking a thread per in-flight request, so thousands of concurrent
  requests cost coroutines, not stacks;
- admission control (:mod:`repro.serving.admission`) runs after route
  resolution but before the body is read, so a shed request costs one
  decision and one small write;
- the only executor hop is ``asyncio.to_thread`` around model reloads,
  which genuinely block (bundle deserialisation).

The event loop runs in a daemon thread so synchronous callers (tests,
the benchmark, the CLI) use this class like any blocking server:
``start()``/``stop()``, ``with`` support, ``port=0`` for an ephemeral
port.  (The historical ``ThreadingHTTPServer`` front end was retired
after its one-release deprecation window; ``PredictionServer`` is now an
alias of this class.)
"""

from __future__ import annotations

import asyncio
import signal
import socket
import threading

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.engine import InferenceEngine, ServingError
from repro.serving.registry import ModelRegistry
from repro.serving.routes import (
    HTTP_REQUESTS,
    MAX_BODY_BYTES,
    TENANT_HEADER,
    TRACE_ID_RE,
    Reply,
    Resolved,
    RouteCore,
    route_label,
)

__all__ = ["AsyncPredictionServer", "serve_forever_async"]


def _build_admission(admission, engine) -> AdmissionController | None:
    """Normalise the ``admission=`` argument the server accepts."""
    if admission is None:
        return None
    if isinstance(admission, AdmissionConfig):
        admission = AdmissionController(admission)
    if admission._depth_fn is None:
        admission.bind_engine(engine)
    return admission

_log = obs_log.get_logger("repro.serving.aio")

#: Hard parser bounds — a hostile peer can't make us buffer unboundedly.
_MAX_LINE = 16 * 1024
_MAX_HEADERS = 100

#: Requests that died before a reply could be computed: the peer vanished
#: or stalled while we were still reading its head or body.  Labelled by
#: where in the request the abort happened.
_ABORTED = obs_metrics.REGISTRY.counter(
    "repro_aio_aborted_requests_total",
    "Requests aborted mid-read (client disconnect or stall)",
    labels=("stage",),
)

_STATUS_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Content Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Protocol-level garbage: answer 400 (if possible) and hang up."""

    status = 400
    code = "bad_request"


class _HeadTooLarge(_BadRequest):
    """A request or header line over the parser bound: 431, then hang up."""

    status = 431
    code = "header_too_large"


async def _readline(reader: asyncio.StreamReader, timeout: float, what: str) -> bytes:
    """One head line, or :class:`_HeadTooLarge` when it is over a bound.

    ``StreamReader.readline`` raises ``ValueError`` for a line past the
    reader's buffer limit; lines under that limit but over ``_MAX_LINE``
    are refused the same way.
    """
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    except ValueError:
        raise _HeadTooLarge(f"{what} too long") from None
    if len(line) > _MAX_LINE:
        raise _HeadTooLarge(f"{what} too long")
    return line


class AsyncPredictionServer:
    """Owns the asyncio HTTP server + engine lifecycle.

    Exported as ``repro.serving.PredictionServer`` as well (the alias the
    retired threaded front end left behind): same constructor shape,
    ``start``/``stop``/``address``/``url`` surface, and route behaviour
    (all routing delegates to :class:`~repro.serving.routes.RouteCore`).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        registry: ModelRegistry | str | None = None,
        verbose: bool = False,
        request_timeout: float = 60.0,
        admission: AdmissionController | AdmissionConfig | None = None,
        keepalive_timeout: float = 75.0,
        header_timeout: float = 10.0,
    ):
        self.engine = engine
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.admission = _build_admission(admission, engine)
        self.core = RouteCore(
            engine,
            registry=registry,
            request_timeout=request_timeout,
            admission=self.admission,
        )
        self.verbose = verbose
        self.request_timeout = request_timeout
        self.keepalive_timeout = keepalive_timeout
        #: Budget for each *subsequent* line of a request head.  A slow-loris
        #: peer that trickles one header byte at a time can hold the first
        #: line open for the keep-alive window, but after that every line
        #: must arrive within this budget or the connection is dropped.
        self.header_timeout = header_timeout
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
        """Start the engine worker and the event loop (daemon thread)."""
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
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionError,
                asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        except _BadRequest as exc:
            try:
                self._write_reply(
                    writer, "other", "?", None,
                    Reply(exc.status, {"error": {"code": exc.code,
                                                 "message": str(exc), "field": None}},
                          close=True),
                )
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
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict] | None:
        """Parse ``(method, target, version, headers)``; None on clean EOF.

        The keep-alive idle timeout applies only to the *first* line of a
        request — mid-request stalls fall under the body-read timeout.
        """
        try:
            line = await _readline(reader, self.keepalive_timeout, "request line")
        except asyncio.TimeoutError:
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {line!r:.80}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                line = await _readline(reader, self.header_timeout, "header line")
            except asyncio.TimeoutError:
                # Slow-loris: the head started but a header line stalled.
                _ABORTED.inc(stage="head")
                raise _BadRequest("header read timed out") from None
            if line == b"":
                # Peer vanished mid-head: abort quietly, nothing to answer.
                _ABORTED.inc(stage="head")
                return None
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r:.80}")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                # Which length frames the body is ambiguous (RFC 9112 6.3).
                raise _BadRequest("conflicting Content-Length headers")
            headers[name] = value
        else:
            raise _BadRequest("too many headers")
        return method, target, version, headers

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; return False when the connection must close."""
        head = await self._read_request_head(reader)
        if head is None:
            return False
        method, target, version, headers = head
        wants_close = (
            headers.get("connection", "").lower() == "close"
            or (version == "HTTP/1.0"
                and headers.get("connection", "").lower() != "keep-alive")
        )
        path, query = _split_target(target)
        route = route_label(path)
        core = self.core

        if method not in ("GET", "POST"):
            self._write_reply(
                writer, route, method, None,
                Reply(405, {"error": {"code": "method_not_allowed",
                                      "message": f"method {method!r} not supported",
                                      "field": None}},
                      close=True),
            )
            await writer.drain()
            return False

        try:
            resolved = core.resolve(method, path)
        except ServingError as exc:
            # Unknown route / unknown kind: any POST body was never read,
            # so the connection is out of sync — close it.
            reply = core.error_reply(
                exc, core.unresolved(method, path), close=(method == "POST")
            )
            self._write_reply(writer, route, method, None, reply)
            await writer.drain()
            return not reply.close and not wants_close

        if method == "GET":
            reply = await self._handle_get(core, resolved, query)
            self._write_reply(writer, route, method, None, reply)
            await writer.drain()
            return not wants_close

        # POST: admission gate before the body read, then trace + dispatch.
        admitted = core.check_admission(resolved, headers.get(TENANT_HEADER.lower()))
        if admitted is not None and not admitted.admitted:
            self._write_reply(
                writer, route, method, None, core.shed_reply(admitted, resolved)
            )
            await writer.drain()
            return False
        try:
            inbound = (headers.get("x-trace-id") or "").strip()
            if not TRACE_ID_RE.match(inbound):
                inbound = ""
            root = (
                obs_trace.start_trace(
                    "http.request",
                    trace_id=inbound or None,
                    sampled=True if inbound else None,
                    method="POST",
                    route=route,
                )
                if resolved.traced
                else obs_trace.NOOP
            )
            with root:
                reply = await self._handle_post(
                    core, resolved, reader, headers, query
                )
                self._write_reply(writer, route, method, root.trace_id, reply)
            await writer.drain()
            return not reply.close and not wants_close
        finally:
            if admitted is not None:
                core.admission.release()

    # ------------------------------------------------------------- handlers
    async def _handle_get(
        self, core: RouteCore, resolved: Resolved, query: dict
    ) -> Reply:
        try:
            return core.dispatch_simple(resolved, query, {})
        except Exception as exc:
            return core.error_reply(exc, resolved)

    async def _handle_post(
        self,
        core: RouteCore,
        resolved: Resolved,
        reader: asyncio.StreamReader,
        headers: dict,
        query: dict,
    ) -> Reply:
        # Body size policing before the read: answer 413 off the headers
        # alone so an oversized body is never buffered.
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest("bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            return core.error_reply(core.body_too_large(length), resolved, close=True)
        raw = b""
        if length > 0:
            try:
                raw = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.request_timeout
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ConnectionError):
                # The peer disconnected (or stalled) mid-body: nothing was
                # dispatched, nobody to answer — count and hang up.
                _ABORTED.inc(stage="body")
                raise
        try:
            payload = core.parse_body(raw, optional=(resolved.op == "reload"))
        except ServingError as exc:
            # An unparseable body was still *read*, so keep-alive survives;
            # a missing one means there is nothing to resync on — close.
            return core.error_reply(
                exc, resolved, close=(exc.code == "missing_body")
            )

        try:
            if resolved.op == "predict":
                return await self._predict(core, resolved, payload)
            if resolved.op == "batch":
                return await self._batch(core, resolved, payload)
            # Reload genuinely blocks (bundle deserialisation): the one
            # executor hop in this front end.
            return await asyncio.to_thread(
                core.dispatch_simple, resolved, query, payload
            )
        except Exception as exc:
            return core.error_reply(exc, resolved)

    async def _predict(
        self, core: RouteCore, resolved: Resolved, payload: dict
    ) -> Reply:
        future = core.submit(resolved.kind, payload)
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=self.request_timeout
            )
        except asyncio.TimeoutError:
            core.engine.record_timeout(resolved.kind)
            future.cancel()
            return core.overloaded_reply(resolved)
        return core.predict_reply(result, resolved)

    async def _batch(
        self, core: RouteCore, resolved: Resolved, payload: dict
    ) -> Reply:
        futures = core.submit_batch(resolved.kind, payload)
        wrapped = [asyncio.wrap_future(f) for f in futures]
        if wrapped:
            await asyncio.wait(wrapped, timeout=self.request_timeout)
        results = []
        for aw in wrapped:
            if not aw.done():
                core.engine.record_timeout(resolved.kind)
                aw.cancel()
                results.append(core.overloaded_result())
            elif aw.cancelled():
                results.append(core.overloaded_result())
            elif aw.exception() is not None:
                exc = aw.exception()
                results.append(
                    ServingError(
                        f"{type(exc).__name__}: {exc}", status=500, code="internal"
                    ).as_result()
                )
            else:
                results.append(aw.result())
        return core.batch_reply(results)

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


def _split_target(target: str) -> tuple[str, dict]:
    """Split a request target into (path, query dict-of-lists)."""
    from urllib.parse import parse_qs, urlsplit

    parts = urlsplit(target)
    return parts.path.rstrip("/") or "/", parse_qs(parts.query)


def serve_forever_async(
    engine: InferenceEngine,
    host: str,
    port: int,
    *,
    registry: ModelRegistry | str | None = None,
    verbose: bool = True,
    admission: AdmissionController | AdmissionConfig | None = None,
) -> None:
    """Blocking serve loop for the CLI; Ctrl-C or SIGTERM stops it.

    SIGTERM takes the same path as Ctrl-C: it raises ``KeyboardInterrupt``
    in the main thread, which stops the server.  A process started with
    SIGINT ignored (a background job of a non-interactive shell) gets the
    default SIGINT handler back, so Ctrl-C / ``kill -INT`` stop it too.
    """
    server = AsyncPredictionServer(
        engine, host, port, registry=registry, verbose=verbose, admission=admission
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
