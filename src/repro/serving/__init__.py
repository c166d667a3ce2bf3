"""Online inference: model registry, micro-batching engine, HTTP API v1.

Turns trained pipelines into persistent, low-latency prediction services:

- :mod:`repro.serving.registry` — versioned on-disk bundles (weights +
  fitted feature-extractor state + manifest metadata) with aliases;
- :mod:`repro.serving.schemas` — declarative request/response schemas,
  one validation layer shared by server, engine, and client;
- :mod:`repro.serving.engine` — predictors with vectorised micro-batching
  (a batch is whatever is queued when the engine is free), candidate
  features read from the feature store, and atomic model hot-swap;
- :mod:`repro.serving.aio` — the whole HTTP layer: a single-event-loop
  ``asyncio`` HTTP/1.1 server (keep-alive, pipelining, future bridging
  into the micro-batcher) with one route table, resolved once per
  request before its body is read, answering ``/v1/predict/{kind}``,
  ``/v1/batch/{kind}``, ``/v1/models*``, ``/v1/ingest``, ``/v1/traces*``,
  ``/v1/healthz`` and ``/v1/metrics``, and the structured-error shape;
- :mod:`repro.serving.admission` — load shedding (429 +
  ``Retry-After``) on the engine's queue age, and a bound on requests
  in flight.

The matching Python client lives in :mod:`repro.client`.
"""

from repro.serving.admission import AdmissionController
from repro.serving.aio import AsyncPredictionServer, serve_forever_async
from repro.serving.cache import LRUCache
from repro.serving.engine import (
    HateGenPredictor,
    InferenceEngine,
    RetweeterPredictor,
    ServingError,
    engine_from_store,
    predictor_for_bundle,
)
from repro.serving.registry import (
    HateGenBundle,
    ModelRegistry,
    RegistryCorruptError,
    RegistryError,
    RetinaBundle,
)
from repro.serving import schemas

__all__ = [
    "AdmissionController",
    "AsyncPredictionServer",
    "serve_forever_async",
    "LRUCache",
    "ModelRegistry",
    "RegistryCorruptError",
    "RegistryError",
    "RetinaBundle",
    "HateGenBundle",
    "RetweeterPredictor",
    "HateGenPredictor",
    "InferenceEngine",
    "ServingError",
    "engine_from_store",
    "predictor_for_bundle",
    "schemas",
]
