"""Online inference engine: predictors + vectorised micro-batching.

Two predictor classes answer queries against a loaded bundle:

- :class:`RetweeterPredictor` — "who will retweet cascade c?" — scores
  candidate users with a trained RETINA model;
- :class:`HateGenPredictor` — "will user u post hate on hashtag h at t?" —
  scores (user, hashtag, time) triples with a fitted classifier chain.

Both validate payloads through :mod:`repro.serving.schemas` (the same
layer the HTTP server and the Python client use) and expose
``predict_batch(payloads)`` whose work is vectorised: per-candidate
feature blocks are read straight from the extractor's
:class:`~repro.features.store.FeatureStore` (the one cache of built user
rows, patched in place by ingest), full rows are assembled once per
micro-batch, and a single model forward covers every request that shares
a context.  :class:`InferenceEngine` runs the predictors inline on the
caller's thread, or, in ``repro serve``, as one batcher task on the
server's event loop that coalesces concurrent requests into
micro-batches.  Ingest batches and model swaps are jobs on the same
queue as the reads, run in arrival order: a read queued after an ingest
ack sees that ack's events, and a reload cannot miss an event acked
while it loads.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import contextvars
import dataclasses
import functools
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.schema import DAY_HOURS
from repro.diffusion.cascade import build_candidate_set
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serving.cache import LRUCache
from repro.serving.registry import HateGenBundle, ModelRegistry, RetinaBundle
from repro.serving.schemas import (
    HateGenRequest,
    RetweeterRequest,
    ServingError,
    validate_event_payload,
)
from repro.store import (
    EventLog,
    StoredEvent,
    apply_events_to_world,
    event_from_wire,
    event_hash,
    validate_event_for_world,
)

__all__ = [
    "ServingError",
    "RetweeterPredictor",
    "HateGenPredictor",
    "InferenceEngine",
    "predictor_for_bundle",
    "engine_from_store",
    "KIND_FOR_BUNDLE",
]

#: Bundle kind (registry manifest) -> predictor kind (API route).
KIND_FOR_BUNDLE = {"retina": "retweeters", "hategen": "hategen"}

_log = obs_log.get_logger("repro.serving.engine")

#: The engine's request metrics live only here: ``metrics()`` (the JSON
#: ``/v1/metrics`` body) and the Prometheus exposition read the same series.
_LATENCY = obs_metrics.REGISTRY.histogram(
    "repro_request_latency_seconds",
    "End-to-end request latency through the inference engine (seconds).",
    ("kind",),
)
_QUEUE_DEPTH = obs_metrics.REGISTRY.gauge(
    "repro_engine_queue_depth",
    "Requests sitting in the engine queue, not yet gathered into a batch.",
)
_QUEUE_AGE = obs_metrics.REGISTRY.gauge(
    "repro_engine_queue_age_seconds",
    "Age of the oldest request still waiting in the engine queue.",
)
_BATCHES = obs_metrics.REGISTRY.counter(
    "repro_engine_batches_total",
    "Micro-batches executed, by predictor kind.",
    ("kind",),
)
_PREDICTIONS = obs_metrics.REGISTRY.counter(
    "repro_predictions_total",
    "Predictions returned (scored candidates, or one per label), by kind.",
    ("kind",),
)
_ERRORS = obs_metrics.REGISTRY.counter(
    "repro_request_errors_total",
    "Requests answered with an error, by predictor kind.",
    ("kind",),
)
_CACHE_HIT_RATIO = obs_metrics.REGISTRY.gauge(
    "repro_cache_hit_ratio",
    "Serving cache hit ratio per predictor/cache.",
    ("kind", "cache"),
)
_TIMEOUTS = obs_metrics.REGISTRY.counter(
    "repro_requests_timed_out_total",
    "Requests whose waiter gave up before the engine answered, by kind.",
    ("kind",),
)

#: Per-cascade context entries the retweeter keeps (LRU).
_CONTEXT_CACHE_SIZE = 128


# ------------------------------------------------------------- retweeters
class RetweeterPredictor:
    """Scores candidate retweeters of a cascade with a RETINA bundle.

    Payloads validate against :class:`~repro.serving.schemas.RetweeterRequest`
    (``cascade_id`` required; optional ``user_ids``/``interval``/``top_k``,
    the candidate audience defaulting to the cascade's deterministic one).

    Per-candidate feature blocks (peer + history, without the per-cascade
    tail) are built on every request by the extractor's columnar
    ``candidate_block``: a gather from a cached BFS array plus a gather of
    history rows from the feature store, which builds a row once and
    patches it in place on ingest.  Only the per-cascade context
    (tweet/news embeddings, shared endogenous + tweet block) is cached,
    and full rows are assembled once per micro-batch.
    """

    kind = "retweeters"

    def __init__(self, bundle: RetinaBundle):
        self.bundle = bundle
        self.model = bundle.model
        self.extractor = bundle.extractor
        self.world = bundle.extractor.world
        self.context_cache = LRUCache(_CONTEXT_CACHE_SIZE)
        #: The one event-log watermark of this predictor and the feature
        #: layers under it: the highest seq folded in.  The extractor was
        #: built over the world as it stands, so it starts at ``world.seq``.
        self.seq = self.world.seq
        #: ``{"name", "version"}`` of the registry bundle this predictor
        #: serves, set by :func:`engine_from_store` / reloads.
        self.source: dict | None = None

    @property
    def feature_store(self):
        """The store candidate rows are read from (``caches.features``)."""
        return self.extractor.store_

    def describe(self) -> dict:
        out = {
            "kind": self.kind,
            "mode": self.model.mode,
            "use_exogenous": self.model.use_exogenous,
            "n_parameters": self.model.n_parameters(),
            "n_cascades": len(self.world.cascade_by_root),
            "user_feature_dim": self.extractor.user_feature_dim,
        }
        if self.source is not None:
            out["source"] = dict(self.source)
        return out

    # ------------------------------------------------------------ features
    def _cascade(self, cascade_id: int):
        cascade = self.world.cascade_by_root.get(cascade_id)
        if cascade is None:
            raise ServingError(
                f"unknown cascade_id {cascade_id}",
                status=404,
                code="not_found",
                field="cascade_id",
            )
        return cascade

    def _context(self, cascade) -> dict:
        """Per-cascade blocks shared by every candidate row.

        ``shared`` is the endogenous + root-tweet block stored once per
        cascade; the full matrix is assembled per micro-batch.
        """
        ctx = self.context_cache.get(cascade.root.tweet_id)
        if ctx is None:
            ext = self.extractor
            root = cascade.root
            ctx = {
                "shared": np.concatenate(
                    [ext.base_._endogen_block(root.timestamp),
                     ext._root_tweet_block(cascade)]
                ),
                "tweet_vec": ext.store_.tweet_vec(root),
                "news_vecs": ext._news_vectors(root.timestamp),
            }
            self.context_cache.put(cascade.root.tweet_id, ctx)
        return ctx

    def default_candidates(self, cascade) -> list[int]:
        """Deterministic candidate audience when the query names no users."""
        cs = build_candidate_set(
            cascade,
            self.world.network,
            n_negatives=self.extractor.n_negatives,
            random_state=0,
        )
        return list(cs.users)

    # ---------------------------------------------------------- live ingest
    def apply_events(self, stored_events: list[StoredEvent]) -> dict:
        """Fold the durable store events past :attr:`seq` into serving state.

        Applies them to the world (a no-op when a co-resident predictor
        sharing the world got there first) and hands the same list to the
        extractor once.  Candidate rows need no eviction: the store patches
        the counter scalars of built rows in place and drops the BFS arrays
        a follow stales, and every read builds its rows from the store.
        What is evicted is the per-cascade contexts whose day's trending
        set a new tweet moved.
        """
        events = [s for s in stored_events if s.seq > self.seq]
        if not events:
            return {}
        apply_events_to_world(self.world, events)
        counts = self.extractor.apply_events(events)
        self.seq = events[-1].seq
        dirty_days = {
            int(s.event.timestamp // DAY_HOURS)
            for s in events if s.event.kind == "tweet"
        }
        evicted = 0
        if dirty_days:
            cascades = self.world.cascade_by_root

            def _stale_context(cid) -> bool:
                c = cascades.get(cid)
                return (
                    c is not None
                    and int(c.root.timestamp // DAY_HOURS) in dirty_days
                )

            evicted = self.context_cache.evict_if(_stale_context)
        counts["cache_evictions"] = evicted
        return counts

    # ----------------------------------------------------------- prediction
    def _validate(self, payload: dict) -> dict:
        req = RetweeterRequest.validate(payload)
        cascade = self._cascade(req.cascade_id)
        user_ids = req.user_ids
        if user_ids is None:
            user_ids = self.default_candidates(cascade)
        unknown = [u for u in user_ids if u not in self.world.users]
        if unknown:
            raise ServingError(
                f"unknown user_ids {unknown[:5]}",
                status=404,
                code="not_found",
                field="user_ids",
            )
        if req.interval is not None:
            if self.model.mode != "dynamic":
                raise ServingError(
                    "interval queries require a dynamic-mode model",
                    code="invalid_request",
                    field="interval",
                )
            if req.interval >= self.model.n_intervals:
                raise ServingError(
                    f"interval must be in [0, {self.model.n_intervals}), "
                    f"got {req.interval}",
                    code="out_of_range",
                    field="interval",
                )
        return {
            "cascade": cascade,
            "user_ids": user_ids,
            "interval": req.interval,
            "top_k": req.top_k,
        }

    def predict_batch(self, payloads: list[dict]) -> list[dict]:
        """Answer a micro-batch; per-payload errors become error results.

        Requests sharing a cascade share one candidate batch, and *all*
        cascades in the micro-batch are scored by one packed, mask-aware
        forward (``RETINA.predict_proba_packed``): candidate rows stack
        into a single matrix, the exogenous attention runs over the padded
        per-cascade news sequences, and no tape is built.  A micro-batch
        spanning one cascade produces bit-identical scores to the tape
        forward; packing more cascades changes BLAS row counts, which can
        move scores by ~1 ulp (the same sensitivity a request already has
        to its candidate-set composition).
        """
        results: list[dict | None] = [None] * len(payloads)
        groups: dict[int, list[int]] = {}
        parsed: list[dict | None] = [None] * len(payloads)
        for i, payload in enumerate(payloads):
            try:
                parsed[i] = self._validate(payload)
            except ServingError as exc:
                results[i] = exc.as_result()
                continue
            groups.setdefault(parsed[i]["cascade"].root.tweet_id, []).append(i)

        packs, positions = [], []
        n_rows = 0
        feature_span = obs_trace.batch_span("serve.feature_build")
        with feature_span:
            for cascade_id, idxs in groups.items():
                cascade = parsed[idxs[0]]["cascade"]
                ctx = self._context(cascade)
                users: list[int] = []
                position: dict[int, int] = {}
                for i in idxs:
                    for uid in parsed[i]["user_ids"]:
                        if uid not in position:
                            position[uid] = len(users)
                            users.append(uid)
                cand = self.extractor.candidate_block(cascade, users)
                n_rows += len(users)
                packs.append((cand, ctx["shared"], ctx["tweet_vec"], ctx["news_vecs"]))
                positions.append(position)
            feature_span.annotate(rows=n_rows)

        with obs_trace.batch_span(
            "model.forward", kind=self.kind, rows=n_rows, cascades=len(groups)
        ):
            probas = self.model.predict_proba_packed(packs)
        for (cascade_id, idxs), position, proba in zip(groups.items(), positions, probas):
            if self.model.mode == "dynamic":
                static_scores = self.model.static_score_from_dynamic(proba)
            else:
                static_scores = proba
            for i in idxs:
                req = parsed[i]
                if req["interval"] is not None:
                    scores = proba[:, req["interval"]]
                else:
                    scores = static_scores
                picked = [(uid, float(scores[position[uid]])) for uid in req["user_ids"]]
                ranking = sorted(picked, key=lambda us: -us[1])
                if req["top_k"] is not None:
                    ranking = ranking[: req["top_k"]]
                results[i] = {
                    "cascade_id": cascade_id,
                    "mode": self.model.mode,
                    "interval": req["interval"],
                    "scores": {str(uid): score for uid, score in picked},
                    "ranking": [[uid, score] for uid, score in ranking],
                }
        return results


# ---------------------------------------------------------------- hategen
class HateGenPredictor:
    """Scores (user, hashtag, timestamp) hate-generation queries.

    Payloads validate against :class:`~repro.serving.schemas.HateGenRequest`.
    Each query's feature vector is assembled from the extractor's feature
    store on every request; the whole micro-batch is transformed and
    scored in one classifier call.
    """

    kind = "hategen"

    def __init__(self, bundle: HateGenBundle):
        self.bundle = bundle
        self.model = bundle.model
        self.transforms = list(bundle.transforms)
        self.extractor = bundle.extractor
        self.world = bundle.extractor.world
        #: Event-log watermark (see :class:`RetweeterPredictor`).
        self.seq = self.world.seq
        self.source: dict | None = None

    @property
    def feature_store(self):
        """The store query vectors are read from (``caches.features``)."""
        return self.extractor.store_

    def describe(self) -> dict:
        out = {
            "kind": self.kind,
            "model_key": self.bundle.model_key,
            "variant": self.bundle.variant,
            "n_users": len(self.world.users),
            "n_hashtags": len(self.world.theme_of),
        }
        if self.source is not None:
            out["source"] = dict(self.source)
        return out

    # ---------------------------------------------------------- live ingest
    def apply_events(self, stored_events: list[StoredEvent]) -> dict:
        """Fold the durable store events past :attr:`seq` into serving state.

        As :meth:`RetweeterPredictor.apply_events`.  Newly registered
        hashtags become queryable — scored with a zero endogenous slot,
        since the fitted dimensionality is pinned to the catalog at fit
        time.  Nothing here is cached, so nothing is evicted: the next
        query reads the patched store rows and the extractor's updated
        trending sets.
        """
        events = [s for s in stored_events if s.seq > self.seq]
        if not events:
            return {}
        apply_events_to_world(self.world, events)
        counts = self.extractor.apply_events(events)
        self.seq = events[-1].seq
        return counts

    def _validate(self, payload: dict) -> dict:
        req = HateGenRequest.validate(payload)
        if req.user_id not in self.world.users:
            raise ServingError(
                f"unknown user_id {req.user_id}",
                status=404,
                code="not_found",
                field="user_id",
            )
        if req.hashtag not in self.world.theme_of:
            raise ServingError(
                f"unknown hashtag {req.hashtag!r}",
                status=404,
                code="not_found",
                field="hashtag",
            )
        return {
            "user_id": req.user_id,
            "hashtag": req.hashtag,
            "timestamp": req.timestamp,
        }

    def _scores(self, X: np.ndarray) -> np.ndarray:
        if hasattr(self.model, "predict_proba"):
            return self.model.predict_proba(X)[:, 1]
        return self.model.decision_function(X)

    def predict_batch(self, payloads: list[dict]) -> list[dict]:
        results: list[dict | None] = [None] * len(payloads)
        parsed, live = [], []
        for i, payload in enumerate(payloads):
            try:
                parsed.append(self._validate(payload))
                live.append(i)
            except ServingError as exc:
                results[i] = exc.as_result()
        if live:
            feature_span = obs_trace.batch_span("serve.feature_build")
            with feature_span:
                sample_vector = self.extractor.sample_vector
                X = np.stack(
                    [sample_vector(r["user_id"], r["hashtag"], r["timestamp"]) for r in parsed]
                )
                feature_span.annotate(rows=len(parsed))
            with obs_trace.batch_span("model.forward", kind=self.kind, rows=len(parsed)):
                for t in self.transforms:
                    X = t.transform(X)
                scores = self._scores(X)
                labels = self.model.predict(X)
            for req, i, score, label in zip(parsed, live, scores, labels):
                results[i] = {
                    **req,
                    "score": float(score),
                    "label": int(label),
                    "probabilistic": hasattr(self.model, "predict_proba"),
                }
        return results


# ----------------------------------------------------------------- engine
@dataclass
class _Request:
    kind: str
    payload: dict
    #: ``(trace_id, parent_span_id)`` of the sampled trace this request
    #: belongs to (None when untraced), so batch spans land in its trace.
    trace: tuple[str, str] | None = None
    #: A job (ingest, model swap) instead of a read.
    job: Callable[[], object] | None = None
    submitted_at: float = field(default_factory=time.perf_counter)
    future: object = None  # asyncio's when queued, else concurrent.futures'


class InferenceEngine:
    """Runs reads as vectorised micro-batches, never beside a write.

    One engine lock is held around every read batch, ingest and model
    swap.  Off a server's loop, reads and writes run inline on the
    caller's thread (a read is a batch of one).  A server runs inside
    :meth:`batching`: requests submitted on its loop queue for one
    batcher task there.  A batch is whatever is queued when the batcher
    is free, up to ``max_batch_size``; a job (ingest, model swap) ends
    it.  The reads run on the loop, one ``predict_batch`` per kind; the
    job then runs in a one-worker executor while the loop goes on
    accepting and parsing (Flash's AMPED split: the loop computes, a
    helper thread blocks on the disk).  Reads queued behind a job wait
    for it, so a read queued after an ingest ack sees its events.
    """

    def __init__(
        self,
        predictors: dict[str, object],
        *,
        max_batch_size: int = 64,
    ):
        if not predictors:
            raise ValueError("engine needs at least one predictor")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.predictors = dict(predictors)
        self.max_batch_size = max_batch_size
        self._lock = threading.Lock()
        #: Requests queued for the batcher, oldest first.
        self._pending: collections.deque[_Request] = collections.deque()
        self._wakeup: asyncio.Event | None = None
        #: Thread of the loop inside :meth:`batching`; None when none is.
        self._loop_thread: int | None = None
        #: New submissions are refused with a typed 503 once set.
        self._stopping = False
        self._closed = False
        #: Durable event log (see :mod:`repro.store`) backing live ingest;
        #: attached by :meth:`attach_store`, ``None`` = ingest disabled.
        self.event_log: EventLog | None = None

    def queue_age_s(self) -> float:
        """Seconds the oldest queued, not yet batched request has waited
        (0 for an empty queue): the admission controller's shed signal."""
        try:
            return time.perf_counter() - self._pending[0].submitted_at
        except IndexError:
            return 0.0

    def _cache_hit_ratios(self) -> dict[tuple[str, str], float]:
        return {
            (kind, cache): stats["hit_rate"]
            for kind, predictor in self.predictors.items()
            for cache, stats in _predictor_cache_stats(predictor).items()
        }

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "InferenceEngine":
        """Accept requests and claim the queue gauges; starts no thread."""
        self._stopping = False
        # How deep the request queue is and how long its head has been
        # waiting.  The last started engine owns the gauges (one engine
        # per serving process).
        _QUEUE_DEPTH.set_fn(self._pending.__len__)
        _QUEUE_AGE.set_fn(self.queue_age_s)
        _CACHE_HIT_RATIO.set_fn(self._cache_hit_ratios)
        return self

    def stop(self) -> None:
        """Refuse new requests, let one in flight finish, then close what
        the engine owns: the event log and each predictor's feature store.
        A second call does nothing.
        """
        self._stopping = True
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if _QUEUE_AGE._fn == self.queue_age_s:
                # Unwire only our own callbacks: a newer engine may have
                # claimed the gauges since this one started.
                _QUEUE_DEPTH.set_fn(None)
                _QUEUE_AGE.set_fn(None)
                _CACHE_HIT_RATIO.set_fn(None)
            if self.event_log is not None:
                self.event_log.close()
            for predictor in self.predictors.values():
                store = getattr(predictor, "feature_store", None)
                if store is not None:
                    store.close()

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @contextlib.asynccontextmanager
    async def batching(self):
        """Queue requests submitted on the running loop for one batcher
        task on it.  On exit the batch or job in progress finishes, the
        engine refuses new requests, and those still queued fail with a
        typed 503 ``engine_shutdown``.
        """
        self._wakeup = asyncio.Event()
        self._loop_thread = threading.get_ident()
        batcher = asyncio.create_task(self._batcher())
        try:
            yield
        finally:
            self._stopping = True
            self._wakeup.set()
            await batcher
            self._loop_thread = None

    async def _batcher(self) -> None:
        pending = self._pending
        # Its one thread starts with the first job.
        io = ThreadPoolExecutor(1, thread_name_prefix="repro-engine-io")
        try:
            while not self._stopping:
                if not pending:
                    self._wakeup.clear()
                    await self._wakeup.wait()
                    continue
                reads, job = [], None
                while pending and len(reads) < self.max_batch_size:
                    request = pending.popleft()
                    if request.job is not None:
                        job = request
                        break
                    if not request.future.done():  # else its waiter gave up
                        reads.append(request)
                if reads:
                    self._run_reads(reads)
                if job is not None and not job.future.done():
                    loop = asyncio.get_running_loop()
                    try:
                        _settle(job.future, await loop.run_in_executor(io, job.job))
                    except Exception as exc:
                        _settle(job.future, exc=exc)
                if pending:
                    # Let the loop accept and parse before the next batch.
                    await asyncio.sleep(0)
        finally:
            exc = ServingError(
                "engine shut down before the request was served",
                status=503,
                code="engine_shutdown",
            )
            while pending:
                _settle(pending.popleft().future, exc=exc)
            io.shutdown(wait=False)

    # ------------------------------------------------------ model lifecycle
    def swap_predictor(self, kind: str, predictor):
        """Replace the predictor serving ``kind``; returns the old one.

        Call it under the engine lock (:meth:`reload_model` does), so the
        reads before it ran on the old predictor and the reads after it
        run on the new one.
        """
        old = self.predictors.get(kind)
        self.predictors[kind] = predictor
        return old

    def reload_model(
        self, registry: ModelRegistry | str, name: str, version: int | None = None
    ) -> dict:
        """Load a registry bundle and swap it in; returns what's serving now.

        ``name`` may be a model name or an alias.  Loading the bundle
        (over the live world when the manifest records the same world
        config, otherwise over the bundle's saved world), replaying the
        event log past the new predictor's watermark and the swap hold
        the engine lock: no ingest lands between them.  A server runs
        this call as one batcher job.

        Over the live world the new predictor starts at ``world.seq``, but
        a RETINA bundle's prior-retweet counts come from training alone:
        the log's retweets up to ``world.seq`` are folded in first.
        """
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        manifest = registry.manifest(name, version)
        kind = KIND_FOR_BUNDLE[manifest["kind"]]
        with self._lock:
            old = self.predictors.get(kind)
            config = dataclasses.asdict(old.world.config) if old is not None else None
            world = old.world if config == manifest["world_config"] else None
            bundle = registry.load_bundle(manifest["name"], manifest["version"], world=world)
            predictor = predictor_for_bundle(bundle)
            predictor.source = {"name": manifest["name"], "version": manifest["version"]}
            if self.event_log is not None:
                events = self.event_log.events(0)
                if predictor.kind == "retweeters":
                    predictor.extractor.add_prior_retweets(events[: predictor.seq])
                predictor.apply_events(events)
            previous = self.swap_predictor(kind, predictor)
        prev_source = getattr(previous, "source", None) or {}
        return {
            "name": manifest["name"],
            "version": manifest["version"],
            "kind": kind,
            "previous_version": prev_source.get("version"),
        }

    # ------------------------------------------------------------- ingest
    def attach_store(self, event_log: EventLog) -> int:
        """Attach the durable event log and replay it into every predictor.

        Call before serving: the replay runs on the calling thread.  The
        engine owns the log from here on: :meth:`stop` closes it.

        Replays the full log through each predictor, which keeps the
        events past its own watermark, so events ingested before a restart
        are reconstructed.  The shared world applies each event once.
        Returns the number of log events.
        """
        self.event_log = event_log
        events = event_log.events(0)
        if events:
            for predictor in self.predictors.values():
                predictor.apply_events(events)
            _log.info(
                "store.replayed",
                events=len(events),
                last_seq=event_log.last_seq,
            )
        return len(events)

    def ingest(self, items: list[dict]) -> dict:
        """Durably append a batch of events and fold them into serving state.

        Holds the engine lock, so no read runs beside it.

        Per item: schema validation, then semantic validation against the
        serving world(s), then a crash-safe append to the event log — the
        item is acked (its assigned ``seq`` returned) only after fsync.
        A content-hash duplicate skips validation and application and is
        acked with its original seq, which is what makes the whole POST
        idempotent and safe to retry.  Item failures don't fail the batch;
        a :class:`~repro.store.StoreIOError` does (nothing past the last
        acked item was accepted).

        Inside one batch, earlier items take effect before later ones are
        validated (a tweet can be retweeted by the next item).
        """
        with self._lock:
            worlds = {id(p.world): p.world for p in self.predictors.values()}.values()
            results: list[dict] = []
            applied: list[StoredEvent] = []
            with obs_trace.span("ingest.append", events=len(items)):
                for item in items:
                    try:
                        event = event_from_wire(validate_event_payload(item))
                        h = event_hash(event)
                        # Duplicates skip semantic validation: the original is
                        # already applied, so re-validating would reject it
                        # ("already retweeted") instead of acking its seq.
                        if self.event_log.seq_for_hash(h) is None:
                            for world in worlds:
                                msg = validate_event_for_world(world, event)
                                if msg is not None:
                                    raise ServingError(msg, status=409,
                                                       code="invalid_event")
                    except (ServingError, ValueError) as exc:
                        if not isinstance(exc, ServingError):
                            exc = ServingError(str(exc), code="invalid_event")
                        results.append(exc.as_result())
                        continue
                    seq, h, was_dup = self.event_log.append(event, h)
                    if not was_dup:
                        stored = StoredEvent(seq=seq, hash=h, event=event)
                        # Apply to the world(s) now so later items in this
                        # batch validate against the updated state.
                        for world in worlds:
                            apply_events_to_world(world, [stored])
                        applied.append(stored)
                    results.append(
                        {"seq": seq, "hash": h, "deduped": was_dup, "kind": event.kind}
                    )
            if applied:
                with obs_trace.span("ingest.invalidate", events=len(applied)):
                    for predictor in self.predictors.values():
                        predictor.apply_events(applied)
            with obs_trace.span("ingest.reply"):
                return {
                    "results": results,
                    "accepted": len(applied),
                    "deduped": sum(1 for r in results if r.get("deduped")),
                    "n_errors": sum(1 for r in results if "error" in r),
                    "last_seq": self.event_log.last_seq,
                }

    def store_stats(self) -> dict | None:
        """Event-log + watermark block for the ``/v1/metrics`` body."""
        if self.event_log is None:
            return None
        stats = self.event_log.stats()
        stats["watermarks"] = {
            kind: p.seq for kind, p in self.predictors.items()
        }
        return stats

    # ------------------------------------------------------------- submit
    def submit(self, kind: str, payload: dict):
        """Submit one read; the returned future holds its answer or error:
        an :class:`asyncio.Future` queued for the batcher on its loop, else
        a :class:`concurrent.futures.Future` already settled inline.
        """
        if kind not in self.predictors:
            raise ServingError(
                f"unknown predictor {kind!r}; loaded: {sorted(self.predictors)}",
                status=404,
                code="unknown_predictor",
            )
        request = _Request(kind, payload, trace=obs_trace.current_context())
        if not self._enqueue(request):
            self._run_reads([request])
        return request.future

    def submit_ingest(self, items: list[dict]):
        """Submit an ingest batch as a job (see :meth:`submit_job`); the
        future holds its ack."""
        if self.event_log is None:
            raise ServingError(
                "no event log attached to this engine; start the server "
                "from a model store to enable ingest",
                status=503,
                code="store_unavailable",
            )
        return self.submit_job(lambda: self.ingest(items))

    def submit_job(self, fn: Callable[[], object]):
        """Submit ``fn`` to run alone; the future holds its result or error.

        On the batcher's loop ``fn`` runs in its executor, after the reads
        queued before it, in a copy of the caller's context (so its spans
        join the caller's trace); anywhere else, inline.  ``fn`` takes the
        engine lock itself, as :meth:`ingest` and :meth:`reload_model` do.
        """
        request = _Request(
            "job", {}, job=functools.partial(contextvars.copy_context().run, fn)
        )
        if not self._enqueue(request):
            try:
                _settle(request.future, fn())
            except Exception as exc:
                _settle(request.future, exc=exc)
        return request.future

    def _enqueue(self, request: _Request) -> bool:
        """Queue ``request`` for the batcher when called on its loop;
        otherwise give it a future to settle inline and return False."""
        if self._stopping:
            raise ServingError(
                "engine is shutting down; request refused",
                status=503,
                code="engine_shutdown",
            )
        if threading.get_ident() != self._loop_thread:
            request.future = Future()
            return False
        request.future = asyncio.get_running_loop().create_future()
        self._pending.append(request)
        self._wakeup.set()
        return True

    def predict(self, kind: str, payload: dict) -> dict:
        """Answer one read inline (for callers off the server's loop)."""
        return self.submit(kind, payload).result()

    def record_timeout(self, kind: str) -> None:
        """A waiter gave up on a request: count it, and emit a
        zero-duration ``request_timeout`` span into the caller's trace (when
        sampled) so the trace tree shows *why* the request ended."""
        _TIMEOUTS.inc(kind=kind)
        ctx = obs_trace.current_context()
        if ctx is not None:
            trace_id, parent_id = ctx
            now = time.perf_counter()
            obs_trace.record_span(
                trace_id, "request_timeout", now, now,
                parent_id=parent_id, kind=kind,
            )

    # -------------------------------------------------------------- reads
    def _run_reads(self, reads: list[_Request]) -> None:
        """Run reads as one micro-batch per predictor kind, under the lock,
        and settle their futures."""
        with self._lock:
            started = time.perf_counter()
            by_kind: dict[str, list[_Request]] = {}
            for r in reads:
                by_kind.setdefault(r.kind, []).append(r)
            assembled = time.perf_counter()
            for r in reads:
                if r.trace is None:
                    continue
                trace_id, parent_id = r.trace
                obs_trace.record_span(
                    trace_id, "engine.queue_wait", r.submitted_at, started,
                    parent_id=parent_id,
                )
                obs_trace.record_span(
                    trace_id, "engine.batch_assembly", started, assembled,
                    parent_id=parent_id, batch_size=len(by_kind[r.kind]),
                )
            for kind, group in by_kind.items():
                _BATCHES.inc(kind=kind)
                self._execute(kind, group)

    def _execute(self, kind: str, group: list[_Request]) -> None:
        predictor = self.predictors[kind]
        try:
            with obs_trace.batch_context([r.trace for r in group]):
                outcomes = predictor.predict_batch([r.payload for r in group])
        except Exception as exc:  # engine must survive bad batches
            _ERRORS.inc(len(group), kind=kind)
            for r in group:
                _settle(r.future, exc=exc)
            return
        now = time.perf_counter()
        for r, outcome in zip(group, outcomes):
            if isinstance(outcome, dict) and "error" in outcome:
                _ERRORS.inc(kind=kind)
            elif isinstance(outcome, dict) and "scores" in outcome:
                _PREDICTIONS.inc(len(outcome["scores"]), kind=kind)
            else:
                _PREDICTIONS.inc(kind=kind)
            _LATENCY.observe(now - r.submitted_at, kind=kind)
            _settle(r.future, outcome)

    # ------------------------------------------------------------- health
    def metrics(self) -> dict:
        """Per-kind counters from the obs registry + cache stats for ``/v1/metrics``.

        Counts are per process since startup; ``p50_ms``/``p95_ms`` are
        the latency histogram's bucket upper bounds.
        """
        out = {}
        for kind, predictor in self.predictors.items():
            requests = _LATENCY.merge_counts(kind=kind)[-1]
            batches = int(_BATCHES.value(kind=kind))
            out[kind] = {
                "requests": requests,
                "predictions": int(_PREDICTIONS.value(kind=kind)),
                "batches": batches,
                "errors": int(_ERRORS.value(kind=kind)),
                "mean_batch_size": round(requests / batches, 3) if batches else 0.0,
                "p50_ms": round(_LATENCY.quantile(0.50, kind=kind) * 1e3, 3),
                "p95_ms": round(_LATENCY.quantile(0.95, kind=kind) * 1e3, 3),
                "caches": _predictor_cache_stats(predictor),
            }
        return out

    def describe(self) -> dict:
        """Static model info for ``/healthz``."""
        return {kind: p.describe() for kind, p in self.predictors.items()}


def _settle(future, result=None, *, exc: BaseException | None = None) -> None:
    """Settle ``future`` unless its waiter has given up on it already."""
    if future.done():
        return
    if exc is not None:
        future.set_exception(exc)
    else:
        future.set_result(result)


# ---------------------------------------------------------- cache plumbing
def _predictor_cache_stats(predictor) -> dict:
    """Stats of a predictor's feature store and its context LRU, if any.

    ``features`` is the store that holds the predictor's candidate rows;
    ``contexts`` is the retweeter's per-cascade context LRU.
    """
    caches = {}
    if hasattr(predictor, "feature_store"):
        caches["features"] = predictor.feature_store.stats()
    if hasattr(predictor, "context_cache"):
        caches["contexts"] = predictor.context_cache.stats()
    return caches


# -------------------------------------------------------------- bootstrap
def predictor_for_bundle(bundle):
    """The predictor class matching a bundle's kind."""
    if bundle.kind == "retina":
        return RetweeterPredictor(bundle)
    return HateGenPredictor(bundle)


def engine_from_store(
    store: str | ModelRegistry,
    names: list[str] | None = None,
    *,
    max_batch_size: int = 64,
    workers: int | None = None,
    with_events: bool = True,
) -> InferenceEngine:
    """Build an engine from registry bundles (what ``repro serve`` runs).

    ``workers`` is accepted for ``perfbench/reproduce.py``, its only
    caller, and ignored: the engine always serves in-process.

    Loads the latest version of each named model (default: every model in
    the store); bundles recorded against the same world config share the
    first one's world, so startup reads (or, for a bundle saved without
    its world, generates) it once.  Each predictor remembers its registry
    source, so ``/v1/models/{name}/reload`` can swap it later.

    With ``with_events`` (the default) the durable event log living at
    ``<store>/events`` is opened and replayed through every predictor, so
    events ingested before a restart are already serving when this
    returns.  One ``engine.ready`` log line then says where startup went:
    seconds spent on the world(s) and where each came from, on the rest of
    the bundle loads, and on the replay.
    """
    registry = store if isinstance(store, ModelRegistry) else ModelRegistry(store)
    names = list(names) if names else registry.list_models()
    if not names:
        from repro.serving.registry import RegistryError

        raise RegistryError(
            f"no models found in registry {registry.root!r}", root=registry.root
        )
    predictors: dict[str, object] = {}
    world = None
    world_from: list[str] = []
    world_s = bundle_s = 0.0
    for name in names:
        manifest = registry.manifest(name)
        if world is None or dataclasses.asdict(world.config) != manifest["world_config"]:
            t0 = time.perf_counter()
            world, source = registry.load_world(manifest)
            world_s += time.perf_counter() - t0
            world_from.append(source)
        t0 = time.perf_counter()
        bundle = registry.load_bundle(name, manifest["version"], world=world)
        bundle_s += time.perf_counter() - t0
        predictor = predictor_for_bundle(bundle)
        predictor.source = {"name": manifest["name"], "version": manifest["version"]}
        if predictor.kind in predictors:
            raise ValueError(
                f"two bundles of kind {predictor.kind!r} requested; each kind "
                f"can only be served by one model (got {names})"
            )
        predictors[predictor.kind] = predictor
    engine = InferenceEngine(predictors, max_batch_size=max_batch_size)
    t0 = time.perf_counter()
    if with_events:
        engine.attach_store(EventLog(os.path.join(registry.root, "events")))
    _log.info(
        "engine.ready",
        models=names,
        world_s=round(world_s, 4),
        world_from=world_from,
        load_bundle_s=round(bundle_s, 4),
        replay_s=round(time.perf_counter() - t0, 4),
    )
    return engine
