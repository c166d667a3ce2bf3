"""Route core behind the HTTP serving front end.

The asyncio front end (:mod:`repro.serving.aio`) owns the transport and
no route logic; this module owns the API v1 contract:

1. :meth:`RouteCore.resolve` maps ``(method, path)`` to a
   :class:`Resolved` route *before any body bytes are read*, so unknown
   routes (and unknown predictor kinds) are answered 404 with
   ``Connection: close`` without consuming the payload, and admission
   control can refuse a request before waiting on its body;
2. the front end reads the body bytes;
3. :meth:`RouteCore.dispatch_simple` (or the ``submit``/``*_reply``
   pieces the front end awaits for engine-bound routes) turns the
   parsed payload into a :class:`Reply` — status, JSON-ready body,
   headers, and whether the connection must close.

The structured-error contract (:meth:`RouteCore.error_reply`) lives
here too.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import Future

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
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

__all__ = [
    "MAX_BODY_BYTES",
    "Reply",
    "Resolved",
    "RouteCore",
    "route_label",
    "HTTP_REQUESTS",
    "TRACE_ID_RE",
    "TENANT_HEADER",
]

MAX_BODY_BYTES = 8 * 1024 * 1024

#: Request header naming the tenant for per-tenant admission quotas.
TENANT_HEADER = "X-Api-Key"

_MODEL_PATH_RE = re.compile(r"^/v1/models/([A-Za-z0-9._-]+)(/versions|/reload)?$")

#: Client-supplied trace ids are used verbatim when well-formed; anything
#: else is ignored so a hostile header can't pollute the trace store keys.
TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

_log = obs_log.get_logger("repro.serving.routes")

HTTP_REQUESTS = obs_metrics.REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP responses by templated route, method, and status code.",
    ("route", "method", "status"),
)


def route_label(path: str) -> str:
    """Template a request path into a bounded-cardinality metric label."""
    if path in ("/", "/v1/healthz", "/v1/metrics", "/v1/models", "/v1/traces",
                "/v1/ingest"):
        return path
    if path.startswith("/v1/predict/"):
        return "/v1/predict/{kind}"
    if path.startswith("/v1/batch/"):
        return "/v1/batch/{kind}"
    if path.startswith("/v1/traces/"):
        return "/v1/traces/{id}"
    m = _MODEL_PATH_RE.match(path)
    if m:
        return "/v1/models/{name}" + (m.group(2) or "")
    return "other"


class Reply:
    """One response, transport-agnostic: the front end serialises it."""

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


class Resolved:
    """One resolved route: everything known before the body is read."""

    __slots__ = ("op", "method", "label", "kind", "name", "trace_id", "traced",
                 "sheddable")

    def __init__(self, op: str, method: str, label: str, *,
                 kind: str | None = None, name: str | None = None,
                 trace_id: str | None = None, traced: bool = False,
                 sheddable: bool = False):
        self.op = op
        self.method = method
        self.label = label
        self.kind = kind
        self.name = name
        self.trace_id = trace_id
        self.traced = traced
        self.sheddable = sheddable


_OVERLOADED_MSG = "the engine did not answer in time; retry later"


class RouteCore:
    """The route table and its handlers.

    ``admission`` (an :class:`~repro.serving.admission.AdmissionController`
    or ``None``) gates the sheddable routes and surfaces its counters in
    the ``/v1/metrics`` body.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        registry: ModelRegistry | None = None,
        admission=None,
    ):
        self.engine = engine
        self.registry = registry
        self.admission = admission

    # ------------------------------------------------------------ resolve
    def resolve(self, method: str, path: str) -> Resolved:
        """Map ``(method, path)`` to a route, *before* any body is read.

        Raises :class:`ServingError` 404 for unknown routes and unknown
        predictor kinds — the front ends answer those with
        ``Connection: close`` since the request body was never consumed.
        """
        label = route_label(path)
        if method == "GET":
            if path == "/v1/healthz":
                return Resolved("healthz", method, label)
            if path == "/v1/metrics":
                return Resolved("metrics", method, label)
            if path == "/v1/traces":
                return Resolved("traces", method, label)
            if path.startswith("/v1/traces/"):
                return Resolved("trace", method, label,
                                trace_id=path[len("/v1/traces/"):])
            if path == "/v1/models":
                return Resolved("models", method, label)
            m = _MODEL_PATH_RE.match(path)
            if m and m.group(2) in (None, "/versions"):
                op = "versions" if m.group(2) == "/versions" else "model"
                return Resolved(op, method, label, name=m.group(1))
        elif method == "POST":
            if path.startswith("/v1/predict/"):
                kind = path[len("/v1/predict/"):]
                request_schema_for(kind)  # unknown kind -> 404 before body
                return Resolved("predict", method, label, kind=kind, traced=True,
                                sheddable=True)
            if path.startswith("/v1/batch/"):
                kind = path[len("/v1/batch/"):]
                request_schema_for(kind)
                return Resolved("batch", method, label, kind=kind, traced=True,
                                sheddable=True)
            if path == "/v1/ingest":
                # Sheddable: an overloaded server refuses ingest before the
                # body read, and the client retries safely (dedup makes a
                # replayed POST idempotent).
                return Resolved("ingest", method, label, traced=True,
                                sheddable=True)
            m = _MODEL_PATH_RE.match(path)
            if m and m.group(2) == "/reload":
                return Resolved("reload", method, label, name=m.group(1))
        raise ServingError(
            f"no route {path!r}", status=404, code="unknown_route"
        )

    # --------------------------------------------------------------- body
    def parse_body(self, raw: bytes, *, optional: bool = False) -> dict:
        """Parse already-read body bytes into a JSON object payload."""
        if not raw:
            if optional:
                return {}
            raise ServingError("request body required", code="missing_body")
        with obs_trace.span("handler.parse", bytes=len(raw)):
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServingError(
                    f"invalid JSON body: {exc}", code="invalid_json"
                ) from exc
            if not isinstance(payload, dict):
                raise ServingError("body must be a JSON object", code="invalid_type")
        return payload

    def body_too_large(self, length: int) -> ServingError:
        return ServingError(
            f"body too large ({length} bytes; the limit is {MAX_BODY_BYTES})",
            status=413,
            code="body_too_large",
        )

    # ----------------------------------------------------------- dispatch
    def dispatch_simple(self, r: Resolved, query: dict, payload: dict) -> Reply:
        """Every route that does not go through the engine's batcher."""
        if r.op == "healthz":
            return Reply(200, {"status": "ok", "api": "v1",
                               "models": self.engine.describe()})
        if r.op == "metrics":
            if query.get("format", [""])[0] == "prometheus":
                return self.prometheus_reply()
            body = self.engine.metrics()
            body["http"] = {"responses": HTTP_REQUESTS.snapshot()}
            store = self.engine.store_stats()
            if store is not None:
                body["store"] = store
            if self.admission is not None:
                body["admission"] = self.admission.snapshot()
            return Reply(200, body)
        if r.op == "traces":
            return Reply(200, {"traces": obs_trace.STORE.summaries()})
        if r.op == "trace":
            tree = obs_trace.STORE.trace(r.trace_id)
            if tree is None:
                raise ServingError(
                    f"unknown trace {r.trace_id!r}", status=404,
                    code="unknown_trace",
                )
            return Reply(200, tree)
        if r.op == "models":
            return Reply(200, self._models_payload())
        if r.op == "model":
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
            return Reply(200, self._registry().manifest(r.name, version))
        if r.op == "versions":
            return Reply(200, self._versions_payload(r.name))
        if r.op == "reload":
            return Reply(200, self._handle_reload(r.name, payload))
        if r.op == "ingest":
            req = IngestRequest.validate(payload)
            return Reply(200, self.engine.ingest(req.events))
        raise ServingError(f"no route for op {r.op!r}", status=404,
                           code="unknown_route")

    # ------------------------------------------------------ predict/batch
    def submit(self, kind: str, payload: dict) -> Future:
        """Engine handoff for one request (the async path awaits this)."""
        return self.engine.submit(kind, payload)

    def predict_reply(self, result: dict) -> Reply:
        if "error" in result:
            return Reply(int(result.get("status", 400)), {"error": result["error"]})
        return Reply(200, result)

    def submit_batch(self, kind: str, payload: dict) -> list[Future]:
        batch = BatchRequest.validate(payload)
        return [self.engine.submit(kind, item) for item in batch.requests]

    def batch_reply(self, results: list[dict]) -> Reply:
        n_errors = sum(1 for result in results if "error" in result)
        return Reply(
            200,
            {"results": results, "n_ok": len(results) - n_errors,
             "n_errors": n_errors},
        )

    def overloaded_result(self) -> dict:
        return ServingError(
            _OVERLOADED_MSG, status=503, code="overloaded"
        ).as_result()

    def overloaded_reply(self, r: Resolved) -> Reply:
        """503 for a request the engine accepted but never answered."""
        return self.error_reply(
            ServingError(_OVERLOADED_MSG, status=503, code="overloaded"),
            r,
            extra_headers={"Retry-After": "1"},
        )

    # ---------------------------------------------------------- admission
    def check_admission(self, r: Resolved, tenant: str | None):
        """Admit-or-shed decision for a resolved route (None = no gate)."""
        if self.admission is None or not r.sheddable:
            return None
        return self.admission.admit(r.label, tenant)

    def shed_reply(self, decision, r: Resolved) -> Reply:
        """429 + ``Retry-After``; always closes (the body was never read)."""
        exc = ServingError(
            f"request shed ({decision.reason}); retry after "
            f"{decision.retry_after_header}s",
            status=429,
            code="shed_" + decision.reason,
        )
        reply = self.error_reply(
            exc, r, extra_headers={"Retry-After": decision.retry_after_header}
        )
        reply.close = True
        return reply

    # -------------------------------------------------------------- errors
    def error_reply(self, exc: BaseException, r: Resolved | None, *,
                    close: bool = False, extra_headers: dict | None = None) -> Reply:
        """Any handler exception -> the structured error reply."""
        headers = dict(extra_headers or {})
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
            route=r.label if r is not None else "other",
            method=r.method if r is not None else "?",
            error=f"{type(exc).__name__}: {exc}"[:400],
        )
        message = f"{type(exc).__name__}: {exc}"
        body = {"error": {"code": "internal", "message": message, "field": None}}
        return Reply(500, body, headers=headers, close=close)

    # ------------------------------------------------------------ helpers
    def _registry(self) -> ModelRegistry:
        if self.registry is None:
            raise ServingError(
                "no model registry attached to this server; start it with "
                "`repro serve --store ...` to enable model lifecycle routes",
                status=503,
                code="registry_unavailable",
            )
        return self.registry

    def _models_payload(self) -> dict:
        registry = self._registry()
        models = []
        for name in registry.list_models():
            versions = registry.list_versions(name)
            manifest = registry.manifest(name)
            models.append(
                {
                    "name": name,
                    "kind": manifest["kind"],
                    "versions": versions,
                    "latest": versions[-1],
                    "aliases": {
                        alias: target["version"]
                        for alias, target in registry.aliases(name).items()
                    },
                }
            )
        return {"models": models}

    def _versions_payload(self, name: str) -> dict:
        registry = self._registry()
        name, _ = registry.resolve(name)
        versions = registry.list_versions(name)
        return {
            "name": name,
            "versions": versions,
            "latest": versions[-1],
            "aliases": {
                alias: target["version"]
                for alias, target in registry.aliases(name).items()
            },
        }

    def _handle_reload(self, name: str, payload: dict) -> dict:
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

    def prometheus_reply(self) -> Reply:
        """``/v1/metrics?format=prometheus`` — text exposition of the registry."""
        return Reply(
            200,
            text=obs_metrics.REGISTRY.render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
