"""Request tracing: spans, context-local propagation, a bounded store.

A *trace* is one request's timeline; a *span* is one named, timed stage
inside it (handler parse, queue wait, feature build, model forward, ...).
Spans carry ``(trace_id, span_id, parent_id)`` so a trace renders as a
tree, and timestamps are ``time.perf_counter()`` values, so spans
recorded on the engine thread line up with handler spans on one axis.

Three recording styles cover every call site in the repo:

- :func:`span` — ambient context manager for code running inside the
  thread that started the trace (HTTP handler stages).  Propagation is
  a :mod:`contextvars` variable, so nested spans parent correctly.
- :func:`record_span` — explicit recording with caller-supplied
  timestamps, for stages whose start/end were measured elsewhere (the
  engine's queue-wait span starts at ``submit`` time in another thread).
- :func:`batch_span` — one timed block attributed to *several* traces at
  once: a micro-batch's feature build / model forward serves many
  requests, and each sampled request's trace gets a copy of the span.

Everything is a no-op when telemetry is disabled or the trace was not
sampled: the fast path is one attribute read plus one context-var read.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.obs import config

__all__ = [
    "Span",
    "TraceStore",
    "STORE",
    "start_trace",
    "span",
    "record_span",
    "batch_context",
    "batch_span",
    "current_context",
    "current_trace_id",
    "new_trace_id",
]

_TRACE_ID_BYTES = 8
_SPAN_ID_BYTES = 4


def new_trace_id() -> str:
    return os.urandom(_TRACE_ID_BYTES).hex()


def _new_span_id() -> str:
    return os.urandom(_SPAN_ID_BYTES).hex()


# ------------------------------------------------------------------ spans
@dataclass
class Span:
    """One named, timed stage of a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float
    fields: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_dict(self, origin: float = 0.0) -> dict:
        """JSON-ready form; ``origin`` rebases starts for readability."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round((self.start - origin) * 1e3, 3),
            "duration_ms": round(self.duration_ms, 3),
            "fields": dict(self.fields),
        }


class TraceStore:
    """Bounded in-memory map of recent traces (oldest evicted first).

    The server's ``/v1/traces`` routes read from the process-global
    :data:`STORE`.
    """

    def __init__(self, max_traces: int = 256):
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: dict[str, list[Span]] = {}
        self._order: list[str] = []

    def add(self, span: Span) -> None:
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                self._traces[span.trace_id] = spans = []
                self._order.append(span.trace_id)
                while len(self._order) > self.max_traces:
                    self._traces.pop(self._order.pop(0), None)
            spans.append(span)

    def spans(self, trace_id: str) -> list[Span]:
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def trace(self, trace_id: str) -> dict | None:
        """JSON-ready span tree for one trace (None when unknown)."""
        spans = self.spans(trace_id)
        if not spans:
            return None
        origin = min(sp.start for sp in spans)
        ordered = sorted(spans, key=lambda sp: (sp.start, sp.end))
        return {
            "trace_id": trace_id,
            "n_spans": len(ordered),
            "duration_ms": round((max(sp.end for sp in spans) - origin) * 1e3, 3),
            "spans": [sp.to_dict(origin) for sp in ordered],
        }

    def summaries(self, limit: int = 50) -> list[dict]:
        """Most-recent-first one-line summaries for ``/v1/traces``."""
        with self._lock:
            ids = list(self._order[-limit:])[::-1]
            traces = {tid: list(self._traces[tid]) for tid in ids}
        out = []
        for tid in ids:
            spans = traces[tid]
            root = next((sp for sp in spans if sp.parent_id is None), spans[0])
            out.append(
                {
                    "trace_id": tid,
                    "root": root.name,
                    "n_spans": len(spans),
                    "duration_ms": round(
                        (max(sp.end for sp in spans) - min(sp.start for sp in spans))
                        * 1e3,
                        3,
                    ),
                    "fields": dict(root.fields),
                }
            )
        return out

    def slowest_spans(self, limit: int = 5) -> list[dict]:
        """The slowest individual spans across all retained traces."""
        with self._lock:
            spans = [sp for group in self._traces.values() for sp in group]
        spans.sort(key=lambda sp: sp.end - sp.start, reverse=True)
        return [
            {
                "name": sp.name,
                "trace_id": sp.trace_id,
                "duration_ms": round(sp.duration_ms, 3),
            }
            for sp in spans[:limit]
        ]

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._order.clear()


STORE = TraceStore()


# ------------------------------------------------- ambient (context-local)
#: ``(trace_id, current_span_id)`` of the active sampled trace, or None.
_ctx: ContextVar[tuple[str, str] | None] = ContextVar("repro_obs_ctx", default=None)


def current_context() -> tuple[str, str] | None:
    """The ambient ``(trace_id, span_id)``, or None outside a sampled trace."""
    if not config.STATE.enabled:
        return None
    return _ctx.get()


def current_trace_id() -> str | None:
    ctx = current_context()
    return ctx[0] if ctx else None


class _NoopSpan:
    """Shared do-nothing span: the disabled/unsampled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **fields) -> None:
        pass

    trace_id = None
    sampled = False


NOOP = _NoopSpan()


class _ActiveSpan:
    """A live ambient span: times the block, maintains the context var."""

    __slots__ = ("name", "trace_id", "parent_id", "span_id", "fields", "start",
                 "_token", "_store")
    sampled = True

    def __init__(self, name: str, trace_id: str, parent_id: str | None,
                 fields: dict, store: TraceStore):
        self.name = name
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.span_id = _new_span_id()
        self.fields = fields
        self._store = store

    def __enter__(self):
        self._token = _ctx.set((self.trace_id, self.span_id))
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        _ctx.reset(self._token)
        if exc_type is not None:
            self.fields.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._store.add(
            Span(self.trace_id, self.span_id, self.parent_id, self.name,
                 self.start, end, self.fields)
        )
        return False

    def annotate(self, **fields) -> None:
        self.fields.update(fields)


def span(name: str, **fields):
    """Time a block as a child of the ambient trace (no-op outside one)."""
    if not config.STATE.enabled:
        return NOOP
    ctx = _ctx.get()
    if ctx is None:
        return NOOP
    return _ActiveSpan(name, ctx[0], ctx[1], fields, STORE)


def start_trace(name: str, *, trace_id: str | None = None,
                sampled: bool | None = None, **fields):
    """Open a new trace with ``name`` as its root span.

    ``trace_id=None`` generates one.  ``sampled=None`` defers to the
    configured sampling rate; passing ``True`` forces the trace (the
    server does this when the client supplied an ``X-Trace-Id`` header).
    Returns a context manager whose ``trace_id`` is ``None`` when the
    trace was not sampled.
    """
    if sampled is None:
        sampled = config.should_sample()
    elif sampled and not config.STATE.enabled:
        sampled = False
    if not sampled:
        return NOOP
    return _ActiveSpan(name, trace_id or new_trace_id(), None, fields, STORE)


def record_span(trace_id: str, name: str, start: float, end: float, *,
                parent_id: str | None = None, **fields) -> None:
    """Record a span whose timestamps were measured by the caller."""
    if not config.STATE.enabled:
        return
    STORE.add(Span(trace_id, _new_span_id(), parent_id, name, start, end, fields))


# ------------------------------------------------------- batch attribution
class _BatchState(threading.local):
    contexts: list | None = None


_batch = _BatchState()


class batch_context:
    """Declare the traced requests a micro-batch is serving.

    ``contexts`` is a list of ``(trace_id, parent_span_id)`` pairs — one
    per sampled request in the batch.  While active, :func:`batch_span`
    blocks in the predictor record one span per context.
    """

    def __init__(self, contexts):
        self.contexts = [c for c in contexts if c]

    def __enter__(self):
        self._prev = _batch.contexts
        _batch.contexts = self.contexts
        return self

    def __exit__(self, *exc):
        _batch.contexts = self._prev
        return False


class _BatchSpan:
    __slots__ = ("name", "contexts", "fields", "start")

    def __init__(self, name, contexts, fields):
        self.name = name
        self.contexts = contexts
        self.fields = fields

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        if exc_type is not None:
            self.fields.setdefault("error", f"{exc_type.__name__}: {exc}")
        for trace_id, parent_id in self.contexts:
            STORE.add(Span(trace_id, _new_span_id(), parent_id, self.name,
                           self.start, end, dict(self.fields)))
        return False

    def annotate(self, **fields) -> None:
        self.fields.update(fields)


def batch_span(name: str, **fields):
    """Time one batch stage, attributed to every trace in the batch context."""
    if not config.STATE.enabled:
        return NOOP
    contexts = _batch.contexts
    if not contexts:
        return NOOP
    return _BatchSpan(name, contexts, fields)
