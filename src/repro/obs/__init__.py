"""``repro.obs`` — stdlib-only telemetry: tracing, metrics, logging.

Four pieces, wired through the serving and training layers:

- :mod:`repro.obs.trace` — ``Trace``/``Span`` recording with
  context-local propagation and batch-level attribution (one micro-batch
  span copied into every traced request it served); recent traces are
  retrievable via the server's ``/v1/traces`` routes.
- :mod:`repro.obs.metrics` — typed counters / gauges / histograms with
  fixed log-scale latency buckets (mergeable across scrapes) and a
  Prometheus text exposition next to the existing JSON one.
- :mod:`repro.obs.log` — JSON-lines structured logging, automatically
  stamped with the ambient trace id.
- :mod:`repro.obs.runrecord` — self-describing run records stamped into
  every benchmark JSON (git SHA, obs summary, slowest spans).

Everything honours two process-wide switches (:func:`configure`, or the
``REPRO_OBS`` / ``REPRO_OBS_SAMPLE`` environment variables) and
collapses to a near-zero-cost no-op fast path when disabled.
"""

from repro.obs.config import configure, enabled, sample_rate, snapshot
from repro.obs.log import JsonLogger, get_logger
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runrecord import git_sha, max_rss_kb, run_record
from repro.obs.trace import (
    STORE,
    Span,
    TraceStore,
    batch_context,
    batch_span,
    current_context,
    current_trace_id,
    new_trace_id,
    record_span,
    span,
    start_trace,
)

__all__ = [
    "configure",
    "enabled",
    "sample_rate",
    "snapshot",
    "JsonLogger",
    "get_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "LATENCY_BUCKETS",
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
    "git_sha",
    "max_rss_kb",
    "run_record",
]
