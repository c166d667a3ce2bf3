"""API v1 schemas: declarative request/response contracts + validation.

One validation layer shared by every surface of the serving API — the
HTTP server, the inference engine's predictors, and the Python client —
so a payload is checked by exactly the same code no matter where it
enters the system.

A schema is a dataclass plus a tuple of :class:`FieldSpec` entries
(type, required/default, range, item type, size caps).  ``validate``
coerces and checks a wire dict into a typed instance; failures raise
:class:`ServingError` carrying a machine-readable ``code``, the
offending ``field``, and the HTTP status — serialised on the wire as::

    {"error": {"code": "out_of_range", "message": "...", "field": "top_k"}}

Unknown keys are rejected by default (``unknown="error"``) so typos like
``"casacde_id"`` fail loudly instead of silently predicting for the
default audience.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, ClassVar

__all__ = [
    "ServingError",
    "FieldSpec",
    "Schema",
    "RetweeterRequest",
    "HateGenRequest",
    "BatchRequest",
    "ReloadRequest",
    "IngestRequest",
    "IngestResponse",
    "validate_event_payload",
    "EVENT_FIELDS",
    "MAX_INGEST_EVENTS",
    "PredictResponse",
    "RetweeterResponse",
    "HateGenResponse",
    "BatchPredictResponse",
    "ErrorResponse",
    "ModelInfo",
    "ModelsResponse",
    "VersionsResponse",
    "ReloadResponse",
    "HealthResponse",
    "request_schema_for",
    "response_schema_for",
    "MAX_BATCH_REQUESTS",
]

#: Per-call cap on ``/v1/batch/{kind}`` fan-out (keeps one HTTP request
#: from monopolising the micro-batcher).
MAX_BATCH_REQUESTS = 1024


class ServingError(ValueError):
    """Request-level failure with a machine-readable error contract.

    Carries the HTTP ``status``, a stable ``code`` (``missing_field``,
    ``invalid_type``, ``out_of_range``, ``unknown_field``, ``not_found``,
    ``overloaded``, ...) and optionally the ``field`` that failed.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        *,
        code: str = "invalid_request",
        field: str | None = None,
    ):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.field = field

    def as_error(self) -> dict:
        """The v1 wire body: ``{"error": {"code", "message", "field"}}``."""
        return {
            "error": {"code": self.code, "message": str(self), "field": self.field}
        }

    def as_result(self) -> dict:
        """Engine-internal per-payload result (wire body + resolved status)."""
        out = self.as_error()
        out["status"] = self.status
        return out


# ------------------------------------------------------------- field specs
@dataclass(frozen=True)
class FieldSpec:
    """One declaratively validated field of a request/response schema.

    ``type`` is the target builtin (``int``/``float``/``str``/``bool``/
    ``list``/``dict``); numeric fields coerce ints, floats and numeric
    strings but never booleans, an ``int`` field takes only integral
    floats, and a ``float`` field only finite values.  ``ge``/``lt``
    bound numerics, ``item`` coerces list elements,
    ``non_empty``/``max_len`` bound containers, and ``check`` is an
    escape hatch for shapes the spec can't express (it receives the
    coerced value and returns the final one).
    """

    name: str
    type: type
    required: bool = False
    default: Any = None
    ge: float | None = None
    lt: float | None = None
    item: type | None = None
    non_empty: bool = False
    max_len: int | None = None
    check: Callable[[Any], Any] | None = None


def _coerce(value, target: type, field: str):
    """Coerce one scalar to ``target`` or raise a typed ServingError."""
    if type(value) is target and (target is not float or math.isfinite(value)):
        # Exact-type fast path for the hot serving path; ``type() is``
        # (not isinstance) so bool never slips through an int/float spec.
        return value
    if target in (int, float):
        try:
            if isinstance(value, bool):
                raise TypeError("bool is not a number")
            if target is int and isinstance(value, float) and not value.is_integer():
                raise ValueError("not an integral number")  # never truncate
            out = target(value)
            if target is float and not math.isfinite(out):
                raise ValueError("not a finite number")
            return out
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServingError(
                f"{field}: {value!r} is not a valid {target.__name__}",
                code="invalid_type",
                field=field,
            ) from exc
    if target is str:
        if not isinstance(value, str):
            raise ServingError(
                f"{field}: expected a string, got {type(value).__name__}",
                code="invalid_type",
                field=field,
            )
        return value
    if target is bool:
        if not isinstance(value, bool):
            raise ServingError(
                f"{field}: expected a boolean, got {type(value).__name__}",
                code="invalid_type",
                field=field,
            )
        return value
    if target is list:
        if not isinstance(value, (list, tuple)):
            raise ServingError(
                f"{field}: expected a list, got {type(value).__name__}",
                code="invalid_type",
                field=field,
            )
        return list(value)
    if target is dict:
        if not isinstance(value, dict):
            raise ServingError(
                f"{field}: expected an object, got {type(value).__name__}",
                code="invalid_type",
                field=field,
            )
        return value
    raise TypeError(f"unsupported field type {target!r} for {field}")  # spec bug


def _validate_field(spec: FieldSpec, value):
    value = _coerce(value, spec.type, spec.name)
    if spec.type is list:
        if spec.non_empty and not value:
            raise ServingError(
                f"{spec.name} must be a non-empty list",
                code="empty",
                field=spec.name,
            )
        if spec.max_len is not None and len(value) > spec.max_len:
            raise ServingError(
                f"{spec.name} holds {len(value)} entries; the limit is {spec.max_len}",
                code="too_large",
                field=spec.name,
            )
        if spec.item is not None and any(type(v) is not spec.item for v in value):
            value = [_coerce(v, spec.item, f"{spec.name} entry") for v in value]
    if spec.ge is not None and value < spec.ge:
        raise ServingError(
            f"{spec.name} must be >= {spec.ge:g}, got {value}",
            code="out_of_range",
            field=spec.name,
        )
    if spec.lt is not None and value >= spec.lt:
        raise ServingError(
            f"{spec.name} must be < {spec.lt:g}, got {value}",
            code="out_of_range",
            field=spec.name,
        )
    if spec.check is not None:
        value = spec.check(value)
    return value


def validate_payload(
    payload,
    fields: tuple[FieldSpec, ...],
    *,
    schema: str,
    unknown: str = "error",
    known: frozenset | None = None,
) -> dict:
    """Validate a wire dict against a field-spec tuple; return typed values.

    ``unknown`` is the unknown-key policy: ``"error"`` rejects keys no
    spec names, ``"ignore"`` drops them.  A present-but-``null`` optional
    field counts as absent; a ``null`` required field is missing.
    """
    if not isinstance(payload, dict):
        raise ServingError(
            f"{schema} payload must be a JSON object, got {type(payload).__name__}",
            code="invalid_type",
        )
    if unknown == "error":
        if known is None:
            known = frozenset(f.name for f in fields)
        for key in payload:
            if key not in known:
                raise ServingError(
                    f"{schema} does not accept field {key!r}",
                    code="unknown_field",
                    field=str(key),
                )
    values: dict[str, Any] = {}
    for spec in fields:
        value = payload.get(spec.name)
        if value is None:
            if spec.required:
                raise ServingError(
                    f"missing required field {spec.name!r}",
                    code="missing_field",
                    field=spec.name,
                )
            values[spec.name] = spec.default
            continue
        values[spec.name] = _validate_field(spec, value)
    return values


# ------------------------------------------------------------ schema base
class Schema:
    """Base for declarative wire schemas (dataclass + ``__fields__``)."""

    __fields__: ClassVar[tuple[FieldSpec, ...]] = ()
    #: Requests drop ``None`` optionals from the wire; responses keep them
    #: (``"interval": null`` is part of the response contract).
    __omit_none__: ClassVar[bool] = False

    @classmethod
    def _known_fields(cls) -> frozenset:
        known = cls.__dict__.get("_known_cache")
        if known is None:
            known = frozenset(f.name for f in cls.__fields__)
            cls._known_cache = known
        return known

    @classmethod
    def validate(cls, payload, *, unknown: str = "error"):
        """Coerce + check a wire dict into a typed instance."""
        return cls(**validate_payload(
            payload, cls.__fields__, schema=cls.__name__, unknown=unknown,
            known=cls._known_fields(),
        ))

    @classmethod
    def from_wire(cls, body: dict):
        """Trusting constructor for server responses: no re-validation,
        unknown keys dropped.  The client hot path uses this (the server
        already built the body from validated inputs); ``validate`` is the
        strict variant the CI contract check runs."""
        return cls(**{f.name: body.get(f.name, f.default) for f in cls.__fields__})

    def to_dict(self) -> dict:
        """The wire representation."""
        out = {}
        for spec in self.__fields__:
            value = getattr(self, spec.name)
            if value is None and self.__omit_none__:
                continue
            out[spec.name] = value
        return out


def _scores_check(value: dict) -> dict:
    for k, v in value.items():
        if not isinstance(k, str) or isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ServingError(
                f"scores must map user-id strings to numbers (got {k!r}: {v!r})",
                code="invalid_type",
                field="scores",
            )
    return value


def _ranking_check(value: list) -> list:
    for entry in value:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or isinstance(entry[1], bool)
            or not isinstance(entry[1], (int, float))
        ):
            raise ServingError(
                f"ranking entries must be [user_id, score] pairs (got {entry!r})",
                code="invalid_type",
                field="ranking",
            )
    return [list(entry) for entry in value]


# --------------------------------------------------------------- requests
@dataclass
class RetweeterRequest(Schema):
    """``POST /v1/predict/retweeters`` — who will retweet cascade ``cascade_id``?"""

    cascade_id: int
    user_ids: list[int] | None = None
    interval: int | None = None
    top_k: int | None = None

    __omit_none__ = True
    __fields__ = (
        FieldSpec("cascade_id", int, required=True),
        FieldSpec("user_ids", list, item=int, non_empty=True),
        FieldSpec("interval", int, ge=0),
        FieldSpec("top_k", int, ge=1),
    )


@dataclass
class HateGenRequest(Schema):
    """``POST /v1/predict/hategen`` — will the user post hate on the hashtag at ``timestamp``?"""

    user_id: int
    hashtag: str
    timestamp: float

    __omit_none__ = True
    __fields__ = (
        FieldSpec("user_id", int, required=True),
        FieldSpec("hashtag", str, required=True),
        FieldSpec("timestamp", float, required=True),
    )


@dataclass
class BatchRequest(Schema):
    """``POST /v1/batch/{kind}`` — many predict payloads in one HTTP call."""

    requests: list

    __fields__ = (
        FieldSpec(
            "requests", list, required=True, non_empty=True, max_len=MAX_BATCH_REQUESTS
        ),
    )


#: Per-call cap on ``/v1/ingest`` batch size (mirrors the batch route cap).
MAX_INGEST_EVENTS = 1024

#: Wire contract of one ingest event, per kind.  The same FieldSpec layer
#: that checks predict payloads checks events — on the server before the
#: append, and in the client before the POST.
EVENT_FIELDS: dict[str, tuple[FieldSpec, ...]] = {
    "tweet": (
        FieldSpec("kind", str, required=True),
        FieldSpec("tweet_id", int, required=True, ge=0),
        FieldSpec("user_id", int, required=True, ge=0),
        FieldSpec("hashtag", str, required=True),
        FieldSpec("text", str, required=True),
        FieldSpec("timestamp", float, required=True, ge=0),
        FieldSpec("is_hate", bool, default=False),
    ),
    "retweet": (
        FieldSpec("kind", str, required=True),
        FieldSpec("tweet_id", int, required=True, ge=0),
        FieldSpec("user_id", int, required=True, ge=0),
        FieldSpec("timestamp", float, required=True, ge=0),
    ),
    "follow": (
        FieldSpec("kind", str, required=True),
        FieldSpec("followee", int, required=True, ge=0),
        FieldSpec("follower", int, required=True, ge=0),
    ),
    "hashtag": (
        FieldSpec("kind", str, required=True),
        FieldSpec("tag", str, required=True),
        FieldSpec("theme", str, default="none"),
    ),
}


def validate_event_payload(item) -> dict:
    """Schema-validate one ingest event dict; returns the coerced wire dict.

    Dispatches on ``kind`` then runs the matching FieldSpec tuple, so a
    typo'd field or a boolean user id fails with the same typed error
    contract every other route speaks.
    """
    if not isinstance(item, dict):
        raise ServingError(
            f"event must be a JSON object, got {type(item).__name__}",
            code="invalid_type",
        )
    kind = item.get("kind")
    if not isinstance(kind, str) or kind not in EVENT_FIELDS:
        raise ServingError(
            f"unknown event kind {kind!r}; expected one of {sorted(EVENT_FIELDS)}",
            code="unknown_event_kind",
            field="kind",
        )
    return validate_payload(item, EVENT_FIELDS[kind], schema=f"{kind} event")


@dataclass
class IngestRequest(Schema):
    """``POST /v1/ingest`` — a batch of events for the durable store.

    Item-level validation (kind dispatch + per-kind fields) happens in
    the engine so each bad item becomes a per-item error instead of
    failing the batch.
    """

    events: list

    __fields__ = (
        FieldSpec(
            "events", list, required=True, non_empty=True,
            max_len=MAX_INGEST_EVENTS,
        ),
    )


@dataclass
class ReloadRequest(Schema):
    """``POST /v1/models/{name}/reload`` body (may be empty: latest version)."""

    version: int | None = None
    alias: str | None = None

    __omit_none__ = True
    __fields__ = (
        FieldSpec("version", int, ge=1),
        FieldSpec("alias", str),
    )


# -------------------------------------------------------------- responses
@dataclass
class PredictResponse(Schema):
    """Marker base for per-request prediction responses."""


@dataclass
class RetweeterResponse(PredictResponse):
    """Scores + descending ranking for one retweeter query."""

    cascade_id: int
    mode: str
    scores: dict
    ranking: list
    interval: int | None = None

    __fields__ = (
        FieldSpec("cascade_id", int, required=True),
        FieldSpec("mode", str, required=True),
        FieldSpec("scores", dict, required=True, check=_scores_check),
        FieldSpec("ranking", list, required=True, check=_ranking_check),
        FieldSpec("interval", int, ge=0),
    )


@dataclass
class HateGenResponse(PredictResponse):
    """Score + label for one (user, hashtag, timestamp) hate-gen query."""

    user_id: int
    hashtag: str
    timestamp: float
    score: float
    label: int
    probabilistic: bool

    __fields__ = (
        FieldSpec("user_id", int, required=True),
        FieldSpec("hashtag", str, required=True),
        FieldSpec("timestamp", float, required=True),
        FieldSpec("score", float, required=True),
        FieldSpec("label", int, required=True),
        FieldSpec("probabilistic", bool, required=True),
    )


@dataclass
class ErrorResponse(Schema):
    """Structured error: stable code, human message, offending field."""

    code: str
    message: str
    field: str | None = None
    status: int = 400

    __fields__ = (
        FieldSpec("code", str, required=True),
        FieldSpec("message", str, required=True),
        FieldSpec("field", str),
        FieldSpec("status", int, default=400),
    )

    def to_dict(self) -> dict:
        """The v1 wire body (``status`` travels as the HTTP status)."""
        return {
            "error": {"code": self.code, "message": self.message, "field": self.field}
        }

    @classmethod
    def from_body(cls, body: dict, status: int = 400) -> "ErrorResponse":
        """Parse a v1 error body; any other shape maps to code ``error``.

        Bodies come from outside (a proxy, an older server), so a string
        ``error`` or a non-JSON-object body still yields a typed error.
        """
        err = body.get("error") if isinstance(body, dict) else None
        if isinstance(err, dict):
            return cls(
                code=str(err.get("code", "error")),
                message=str(err.get("message", "")),
                field=err.get("field"),
                status=int(body.get("status", status)),
            )
        return cls(
            code="error",
            message=str(err if err is not None else body),
            status=int(body.get("status", status)) if isinstance(body, dict) else status,
        )


@dataclass
class BatchPredictResponse:
    """``/v1/batch/{kind}`` result: per-item responses in request order.

    ``results`` holds one :class:`PredictResponse` subclass instance per
    successful item and one :class:`ErrorResponse` per failed item.
    """

    results: list
    n_ok: int = 0
    n_errors: int = 0

    def to_dict(self) -> dict:
        items = []
        for r in self.results:
            if isinstance(r, ErrorResponse):
                item = r.to_dict()
                item["status"] = r.status
            else:
                item = r.to_dict()
            items.append(item)
        return {"results": items, "n_ok": self.n_ok, "n_errors": self.n_errors}

    @classmethod
    def from_dict(cls, kind: str, body: dict, *, strict: bool = False) -> "BatchPredictResponse":
        schema = response_schema_for(kind)
        results = []
        for item in body.get("results", []):
            if isinstance(item, dict) and "error" in item:
                results.append(ErrorResponse.from_body(item))
            elif strict:
                results.append(schema.validate(item, unknown="ignore"))
            else:
                results.append(schema.from_wire(item))
        return cls(
            results=results,
            n_ok=int(body.get("n_ok", sum(not isinstance(r, ErrorResponse) for r in results))),
            n_errors=int(body.get("n_errors", sum(isinstance(r, ErrorResponse) for r in results))),
        )


@dataclass
class IngestResponse:
    """``POST /v1/ingest`` result: per-event acks in request order.

    Each ``results`` entry is either an ack — ``{"seq", "hash",
    "deduped", "kind"}`` — or a per-item error body (``{"error": {...},
    "status": ...}``); a duplicate submission acks with the original
    event's sequence number and ``deduped: true``.
    """

    results: list
    accepted: int = 0
    deduped: int = 0
    n_errors: int = 0
    last_seq: int = 0

    def to_dict(self) -> dict:
        return {
            "results": self.results,
            "accepted": self.accepted,
            "deduped": self.deduped,
            "n_errors": self.n_errors,
            "last_seq": self.last_seq,
        }

    @classmethod
    def from_dict(cls, body: dict) -> "IngestResponse":
        results = list(body.get("results", []))
        return cls(
            results=results,
            accepted=int(body.get("accepted", 0)),
            deduped=int(body.get("deduped", 0)),
            n_errors=int(
                body.get("n_errors", sum("error" in r for r in results))
            ),
            last_seq=int(body.get("last_seq", 0)),
        )

    @property
    def seqs(self) -> list:
        """Assigned sequence number per event (``None`` for failed items)."""
        return [r.get("seq") for r in self.results]


@dataclass
class ModelInfo(Schema):
    """One registry model in ``GET /v1/models``."""

    name: str
    kind: str
    versions: list
    latest: int
    aliases: dict = dc_field(default_factory=dict)

    __fields__ = (
        FieldSpec("name", str, required=True),
        FieldSpec("kind", str, required=True),
        FieldSpec("versions", list, required=True, item=int),
        FieldSpec("latest", int, required=True),
        FieldSpec("aliases", dict, default=None),
    )

    def __post_init__(self):
        if self.aliases is None:
            self.aliases = {}


@dataclass
class ModelsResponse:
    """``GET /v1/models`` — every committed model with versions + aliases."""

    models: list

    def to_dict(self) -> dict:
        return {"models": [m.to_dict() for m in self.models]}

    @classmethod
    def from_dict(cls, body: dict) -> "ModelsResponse":
        return cls(
            models=[
                ModelInfo.validate(m, unknown="ignore")
                for m in body.get("models", [])
            ]
        )


@dataclass
class VersionsResponse(Schema):
    """``GET /v1/models/{name}/versions``."""

    name: str
    versions: list
    latest: int
    aliases: dict = dc_field(default_factory=dict)

    __fields__ = (
        FieldSpec("name", str, required=True),
        FieldSpec("versions", list, required=True, item=int),
        FieldSpec("latest", int, required=True),
        FieldSpec("aliases", dict, default=None),
    )

    def __post_init__(self):
        if self.aliases is None:
            self.aliases = {}


@dataclass
class ReloadResponse(Schema):
    """``POST /v1/models/{name}/reload`` — which bundle is now serving."""

    name: str
    version: int
    kind: str
    previous_version: int | None = None

    __fields__ = (
        FieldSpec("name", str, required=True),
        FieldSpec("version", int, required=True),
        FieldSpec("kind", str, required=True),
        FieldSpec("previous_version", int),
    )


@dataclass
class HealthResponse(Schema):
    """``GET /v1/healthz`` — liveness + loaded-model descriptions."""

    status: str
    models: dict
    api: str = "v1"

    __fields__ = (
        FieldSpec("status", str, required=True),
        FieldSpec("models", dict, required=True),
        FieldSpec("api", str, default="v1"),
    )


# ------------------------------------------------------------- dispatch
_REQUEST_SCHEMAS: dict[str, type[Schema]] = {
    "retweeters": RetweeterRequest,
    "hategen": HateGenRequest,
}
_RESPONSE_SCHEMAS: dict[str, type[PredictResponse]] = {
    "retweeters": RetweeterResponse,
    "hategen": HateGenResponse,
}


def request_schema_for(kind: str) -> type[Schema]:
    """The request schema validating ``/v1/predict/{kind}`` payloads."""
    try:
        return _REQUEST_SCHEMAS[kind]
    except KeyError:
        raise ServingError(
            f"unknown predictor kind {kind!r}; expected one of {sorted(_REQUEST_SCHEMAS)}",
            status=404,
            code="unknown_predictor",
        ) from None


def response_schema_for(kind: str) -> type[PredictResponse]:
    """The response schema for ``/v1/predict/{kind}`` results."""
    try:
        return _RESPONSE_SCHEMAS[kind]
    except KeyError:
        raise ServingError(
            f"unknown predictor kind {kind!r}; expected one of {sorted(_RESPONSE_SCHEMAS)}",
            status=404,
            code="unknown_predictor",
        ) from None
