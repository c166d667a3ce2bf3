"""Online inference engine: predictors + vectorised micro-batching.

Two predictor classes answer queries against a loaded bundle:

- :class:`RetweeterPredictor` — "who will retweet cascade c?" — scores
  candidate users with a trained RETINA model;
- :class:`HateGenPredictor` — "will user u post hate on hashtag h at t?" —
  scores (user, hashtag, time) triples with a fitted classifier chain.

Both validate payloads through :mod:`repro.serving.schemas` (the same
layer the HTTP server and the Python client use) and expose
``predict_batch(payloads)`` whose work is vectorised: small per-candidate
feature blocks are LRU-cached by (user, cascade, interval) and
batch-built through the columnar extractor on misses, full rows are
assembled once per micro-batch, and a single model forward covers every
request that shares a context.  :class:`InferenceEngine` wraps the
predictors with a queue + worker thread that coalesces concurrent
requests into micro-batches, which is what the HTTP layer submits to.

Model lifecycle: :meth:`InferenceEngine.reload_model` loads a bundle
version from a registry and atomically swaps the serving predictor —
the micro-batch in flight finishes on the old predictor, later ones run
on the new one.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field

import numpy as np

from repro.diffusion.cascade import build_candidate_set
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.core.hategen.features import DAY_HOURS
from repro.serving.cache import LRUCache
from repro.serving.metrics import ServingMetrics
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

#: End-to-end latency through the engine in fixed log-scale buckets —
#: mergeable across processes/scrapes, unlike the rolling deque window.
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
_TIMEOUTS = obs_metrics.REGISTRY.counter(
    "repro_requests_timed_out_total",
    "Requests whose waiter gave up before the engine answered, by kind.",
    ("kind",),
)


# ------------------------------------------------------------- retweeters
class RetweeterPredictor:
    """Scores candidate retweeters of a cascade with a RETINA bundle.

    Payloads validate against :class:`~repro.serving.schemas.RetweeterRequest`
    (``cascade_id`` required; optional ``user_ids``/``interval``/``top_k``,
    the candidate audience defaulting to the cascade's deterministic one).

    Per-candidate feature blocks (peer + history, without the per-cascade
    tail) are cached by ``(user, cascade, interval)``; the per-cascade
    context (tweet/news embeddings, shared endogenous + tweet block) is
    cached separately, so a cold user on a warm cascade only pays its small
    block — built batched through the columnar extractor — and full rows are
    assembled once per micro-batch.
    """

    kind = "retweeters"

    def __init__(self, bundle: RetinaBundle, *, cache_size: int = 8192):
        self.bundle = bundle
        self.model = bundle.model
        self.extractor = bundle.extractor
        self.world = bundle.extractor.world
        self._cascades = {c.root.tweet_id: c for c in self.world.cascades}
        # Dynamic-mode rows are identical across intervals (features are
        # interval-independent); the interval tag keys the cache per the
        # model's unroll length so a bundle swap cannot alias rows.
        self._interval_tag = self.model.n_intervals if self.model.mode == "dynamic" else 0
        self.feature_cache = LRUCache(cache_size)
        self.context_cache = LRUCache(max(64, cache_size // 64))
        self.metrics = ServingMetrics()
        #: Event-log watermark: highest store seq already folded into this
        #: predictor's caches.  A predictor built over an already-replayed
        #: world starts at the world's watermark (its ``_cascades`` map and
        #: empty caches already reflect those events).
        self._applied_seq = int(getattr(self.world, "_store_watermark", 0))
        #: ``{"name", "version"}`` of the registry bundle this predictor
        #: serves, set by :func:`engine_from_store` / reloads.
        self.source: dict | None = None

    def describe(self) -> dict:
        out = {
            "kind": self.kind,
            "mode": self.model.mode,
            "use_exogenous": self.model.use_exogenous,
            "n_parameters": self.model.n_parameters(),
            "n_cascades": len(self._cascades),
            "user_feature_dim": self.extractor.user_feature_dim,
        }
        if self.source is not None:
            out["source"] = dict(self.source)
        return out

    # ------------------------------------------------------------ features
    def _cascade(self, cascade_id: int):
        cascade = self._cascades.get(cascade_id)
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
        cascade; candidate rows cache only their small per-user block and
        the full matrix is assembled per micro-batch.
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

    def _candidate_rows(self, cascade, uids: list[int]) -> np.ndarray:
        """(n, d_cand) per-candidate blocks, cache-first with batched misses.

        Cache hits are per-(user, cascade, interval) lookups as before, but
        every miss in the batch is built in one call to the extractor's
        columnar ``candidate_block`` — one BFS and one store gather instead
        of per-key scalar lookups.
        """
        rows: list[np.ndarray | None] = [None] * len(uids)
        missing: list[tuple[int, int]] = []
        cid = cascade.root.tweet_id
        for i, uid in enumerate(uids):
            row = self.feature_cache.get((uid, cid, self._interval_tag))
            if row is None:
                missing.append((i, uid))
            else:
                rows[i] = row
        if missing:
            built = self.extractor.candidate_block(cascade, [u for _, u in missing])
            for (i, uid), row in zip(missing, built):
                row = row.copy()  # a view would pin the whole batch buffer
                rows[i] = row
                self.feature_cache.put((uid, cid, self._interval_tag), row)
        return np.stack(rows)

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
        """Fold durable store events into the live serving state.

        Applies the events to the world (watermark-guarded no-op when a
        co-resident predictor sharing the world got there first) and the
        extractor, registers new cascades for lookup, then surgically
        evicts only the cache entries the events invalidate:

        - candidate rows for users whose history row / prior-retweet count
          changed (tweet author, retweet root author, retweeter, followee);
        - per-cascade contexts whose day's trending set a new tweet moved;
        - the whole candidate-row cache on a follow — rows embed
          shortest-path lengths and the changed distances cannot be mapped
          back to cached keys without a BFS per cached cascade.
        """
        events = [s for s in stored_events if s.seq > self._applied_seq]
        if not events:
            return {}
        apply_events_to_world(self.world, events)
        counts = self.extractor.apply_events(events)
        index = getattr(self.world, "_store_cascade_index", None) or {}
        dirty_users: set[int] = set()
        dirty_days: set[int] = set()
        clear_features = False
        for s in events:
            ev = s.event
            if ev.kind == "tweet":
                cascade = index.get(ev.tweet_id)
                if cascade is not None:
                    self._cascades[ev.tweet_id] = cascade
                dirty_users.add(ev.user_id)
                dirty_days.add(int(ev.timestamp // DAY_HOURS))
            elif ev.kind == "retweet":
                dirty_users.add(ev.user_id)
                cascade = self._cascades.get(ev.tweet_id)
                if cascade is not None:
                    dirty_users.add(cascade.root.user_id)
            elif ev.kind == "follow":
                dirty_users.add(ev.followee)
                clear_features = True
        self._applied_seq = events[-1].seq
        evicted = 0
        if clear_features:
            evicted += len(self.feature_cache)
            self.feature_cache.clear()
        elif dirty_users:
            evicted += self.feature_cache.evict_if(lambda k: k[0] in dirty_users)
        if dirty_days:
            cascades = self._cascades

            def _stale_context(cid) -> bool:
                c = cascades.get(cid)
                return (
                    c is not None
                    and int(c.root.timestamp // DAY_HOURS) in dirty_days
                )

            evicted += self.context_cache.evict_if(_stale_context)
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
            hits0 = self.feature_cache.hits
            misses0 = self.feature_cache.misses
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
                cand = self._candidate_rows(cascade, users)
                n_rows += len(users)
                packs.append((cand, ctx["shared"], ctx["tweet_vec"], ctx["news_vecs"]))
                positions.append(position)
            feature_span.annotate(
                cache_hits=self.feature_cache.hits - hits0,
                cache_misses=self.feature_cache.misses - misses0,
                rows=n_rows,
            )

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
    Feature vectors are cached by the query triple; the whole micro-batch
    is transformed and scored in one classifier call.
    """

    kind = "hategen"

    def __init__(self, bundle: HateGenBundle, *, cache_size: int = 8192):
        self.bundle = bundle
        self.model = bundle.model
        self.transforms = list(bundle.transforms)
        self.extractor = bundle.extractor
        self.world = bundle.extractor.world
        self._hashtags = {spec.tag for spec in self.world.catalog}
        self.feature_cache = LRUCache(cache_size)
        self.metrics = ServingMetrics()
        #: Event-log watermark (see :class:`RetweeterPredictor`).
        self._applied_seq = int(getattr(self.world, "_store_watermark", 0))
        self.source: dict | None = None

    def describe(self) -> dict:
        out = {
            "kind": self.kind,
            "model_key": self.bundle.model_key,
            "variant": self.bundle.variant,
            "n_users": len(self.world.users),
            "n_hashtags": len(self._hashtags),
        }
        if self.source is not None:
            out["source"] = dict(self.source)
        return out

    # ---------------------------------------------------------- live ingest
    def apply_events(self, stored_events: list[StoredEvent]) -> dict:
        """Fold durable store events into the live serving state.

        World + extractor application are watermark-guarded (shared worlds
        apply once).  Newly registered hashtags become queryable — scored
        with a zero endogenous slot, since the fitted dimensionality is
        pinned to the catalog at fit time.  Cached sample vectors are
        evicted for users whose history row changed and for timestamps on
        days whose trending set moved.
        """
        events = [s for s in stored_events if s.seq > self._applied_seq]
        if not events:
            return {}
        apply_events_to_world(self.world, events)
        counts = self.extractor.apply_events(events)
        index = getattr(self.world, "_store_cascade_index", None) or {}
        dirty_users: set[int] = set()
        dirty_days: set[int] = set()
        for s in events:
            ev = s.event
            if ev.kind == "tweet":
                dirty_users.add(ev.user_id)
                dirty_days.add(int(ev.timestamp // DAY_HOURS))
            elif ev.kind == "retweet":
                dirty_users.add(ev.user_id)
                cascade = index.get(ev.tweet_id)
                if cascade is not None:
                    dirty_users.add(cascade.root.user_id)
            elif ev.kind == "follow":
                dirty_users.add(ev.followee)
            elif ev.kind == "hashtag":
                self._hashtags.add(ev.tag)
        self._applied_seq = events[-1].seq
        evicted = 0
        if dirty_users or dirty_days:
            evicted = self.feature_cache.evict_if(
                lambda k: k[0] in dirty_users
                or int(k[2] // DAY_HOURS) in dirty_days
            )
        counts["cache_evictions"] = evicted
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
        if req.hashtag not in self._hashtags:
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

    def _vector(self, req: dict) -> np.ndarray:
        key = (req["user_id"], req["hashtag"], req["timestamp"])
        vec = self.feature_cache.get(key)
        if vec is None:
            vec = self.extractor.sample_vector(
                req["user_id"], req["hashtag"], req["timestamp"]
            )
            self.feature_cache.put(key, vec)
        return vec

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
                hits0, misses0 = self.feature_cache.hits, self.feature_cache.misses
                X = np.stack([self._vector(req) for req in parsed])
                feature_span.annotate(
                    cache_hits=self.feature_cache.hits - hits0,
                    cache_misses=self.feature_cache.misses - misses0,
                    rows=len(parsed),
                )
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
    future: Future
    submitted_at: float = field(default_factory=time.perf_counter)
    #: ``(trace_id, parent_span_id)`` of the sampled trace this request
    #: belongs to (None when untraced), so batch spans land in its trace.
    trace: tuple[str, str] | None = None
    dequeued_at: float = 0.0


_SHUTDOWN = object()


class InferenceEngine:
    """Coalesces concurrent requests into vectorised micro-batches.

    A gather thread drains the request queue: the first request is taken
    blocking, then up to ``max_batch_size - 1`` more are gathered until
    ``max_wait_ms`` elapses, grouped by predictor kind, and executed via
    ``predict_batch``.  Under load, batches fill instantly; an idle stream
    degenerates to per-request execution with ~``max_wait_ms`` of added
    latency at most.

    :meth:`swap_predictor` replaces the predictor serving a kind with
    zero dropped requests: the predictor reference is swapped (atomic
    under the GIL) and the batch in flight finishes on the old one.
    """

    def __init__(
        self,
        predictors: dict[str, object],
        *,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
    ):
        if not predictors:
            raise ValueError("engine needs at least one predictor")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.predictors = dict(predictors)
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._worker: threading.Thread | None = None
        #: Arrival stamps of queued-but-ungathered requests (deque ops are
        #: atomic), backing the queue depth/age saturation gauges.
        self._queued_arrivals: collections.deque[float] = collections.deque()
        self._depth_fn = None
        #: Set at the top of :meth:`stop`: new submissions are refused with
        #: a typed 503 and the gather loop fails whatever is still queued.
        self._stopping = threading.Event()
        #: Durable event log (see :mod:`repro.store`) backing live ingest;
        #: attached by :meth:`attach_store`, ``None`` = ingest disabled.
        self.event_log: EventLog | None = None
        #: Serialises ingest batches: append order defines the replayable
        #: history, so two concurrent POSTs must not interleave validation
        #: against a half-applied world.
        self._ingest_lock = threading.Lock()

    def _queue_age_s(self) -> float:
        try:
            return time.perf_counter() - self._queued_arrivals[0]
        except IndexError:
            return 0.0

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "InferenceEngine":
        if self._worker is not None and self._worker.is_alive():
            return self
        self._stopping.clear()
        # Saturation signals for admission control: how deep the request
        # queue is and how long its head has been waiting.  The last
        # started engine owns the gauges (one engine per serving process).
        self._depth_fn = lambda: len(self._queued_arrivals)
        _QUEUE_DEPTH.set_fn(self._depth_fn)
        _QUEUE_AGE.set_fn(self._queue_age_s)
        self._worker = threading.Thread(
            target=self._run, name="repro-inference-engine", daemon=True
        )
        self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the gather thread and fail whatever is still queued.

        Safe to call repeatedly (and from ``__exit__`` after a crash): every
        step is guarded, so a second call is a no-op.
        """
        self._stopping.set()
        if self._worker is not None:
            self._queue.put(_SHUTDOWN)
            self._worker.join(timeout=10.0)
            self._worker = None
            if _QUEUE_DEPTH._fn is getattr(self, "_depth_fn", None):
                # Unwire only our own callbacks: a newer engine may have
                # claimed the gauges since this one started.
                _QUEUE_DEPTH.set_fn(None)
                _QUEUE_AGE.set_fn(None)
        # The gather loop is gone (or never ran): anything still queued —
        # a submit that raced past the _stopping gate, or one made before
        # start() — would leave its waiter to hit the generic timeout.
        # Fail it with a typed shutdown error instead.
        self._fail_queued()

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------ model lifecycle
    def swap_predictor(self, kind: str, predictor):
        """Atomically replace the predictor serving ``kind``; returns the old.

        The micro-batch in flight finishes on the old predictor.
        """
        old = self.predictors.get(kind)
        self.predictors[kind] = predictor
        return old

    def reload_model(
        self, registry: ModelRegistry | str, name: str, version: int | None = None
    ) -> dict:
        """Load a registry bundle and swap it in; returns what's serving now.

        ``name`` may be a model name or an alias.  The existing predictor's
        world is reused when the manifest records the same world config, so
        a reload pays bundle I/O — not world regeneration.
        """
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        manifest = registry.manifest(name, version)
        kind = KIND_FOR_BUNDLE[manifest["kind"]]
        old = self.predictors.get(kind)
        world = None
        if old is not None and dataclasses.asdict(old.world.config) == manifest["world_config"]:
            world = old.world
        bundle = registry.load_bundle(manifest["name"], manifest["version"], world=world)
        predictor = predictor_for_bundle(bundle)
        predictor.source = {"name": manifest["name"], "version": manifest["version"]}
        if self.event_log is not None:
            # Replay the durable log through the incoming predictor before
            # it serves: ingested events survive a model swap, whether the
            # new bundle shares the old (already-replayed) world or brings
            # a fresh one.
            predictor.apply_events(self.event_log.events(0))
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

        Replays the full log: each predictor resumes past its own
        watermark (the bundle's recorded ``prior_seq`` / the shared
        world's ``_store_watermark``), so events ingested before a restart
        are reconstructed and events a bundle was fitted on are not
        double-applied.  Returns the number of log events.
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
        if self.event_log is None:
            raise ServingError(
                "no event log attached to this engine; start the server "
                "from a model store to enable ingest",
                status=503,
                code="store_unavailable",
            )
        if self._stopping.is_set():
            raise ServingError(
                "engine is shutting down; request refused",
                status=503,
                code="engine_shutdown",
            )
        worlds: dict[int, object] = {
            id(p.world): p.world for p in self.predictors.values()
        }
        results: list[dict] = []
        accepted = deduped = errors = 0
        applied: list[StoredEvent] = []
        with self._ingest_lock:
            with obs_trace.span("ingest.append", events=len(items)):
                for item in items:
                    try:
                        wire = validate_event_payload(item)
                        event = event_from_wire(wire)
                    except ServingError as exc:
                        results.append(exc.as_result())
                        errors += 1
                        continue
                    except ValueError as exc:
                        results.append(
                            ServingError(
                                str(exc), code="invalid_event"
                            ).as_result()
                        )
                        errors += 1
                        continue
                    # Duplicates skip semantic validation: the original is
                    # already applied, so re-validating would reject it
                    # ("already retweeted") instead of acking its seq.
                    if self.event_log.seq_for_hash(event_hash(event)) is None:
                        msg = None
                        for world in worlds.values():
                            msg = validate_event_for_world(world, event)
                            if msg is not None:
                                break
                        if msg is not None:
                            results.append(
                                ServingError(
                                    msg, status=409, code="invalid_event"
                                ).as_result()
                            )
                            errors += 1
                            continue
                    seq, h, was_dup = self.event_log.append(event)
                    if was_dup:
                        deduped += 1
                    else:
                        stored = StoredEvent(seq=seq, hash=h, event=event)
                        # Apply to the world(s) now so later items in this
                        # batch validate against the updated state.
                        for world in worlds.values():
                            apply_events_to_world(world, [stored])
                        applied.append(stored)
                        accepted += 1
                    results.append(
                        {"seq": seq, "hash": h, "deduped": was_dup,
                         "kind": event.kind}
                    )
            if applied:
                with obs_trace.span("ingest.invalidate", events=len(applied)):
                    for predictor in self.predictors.values():
                        predictor.apply_events(applied)
        with obs_trace.span("ingest.reply"):
            return {
                "results": results,
                "accepted": accepted,
                "deduped": deduped,
                "n_errors": errors,
                "last_seq": self.event_log.last_seq,
            }

    def store_stats(self) -> dict | None:
        """Event-log + watermark block for the ``/v1/metrics`` body."""
        if self.event_log is None:
            return None
        stats = self.event_log.stats()
        stats["watermarks"] = {
            kind: int(getattr(p, "_applied_seq", 0))
            for kind, p in self.predictors.items()
        }
        return stats

    # ------------------------------------------------------------- submit
    def submit(self, kind: str, payload: dict) -> Future:
        """Enqueue one request; resolve its result via the returned future.

        Requests submitted before :meth:`start` are buffered and served in
        the first micro-batch once the worker runs.
        """
        if self._stopping.is_set():
            raise ServingError(
                "engine is shutting down; request refused",
                status=503,
                code="engine_shutdown",
            )
        predictor = self.predictors.get(kind)
        if predictor is None:
            raise ServingError(
                f"unknown predictor {kind!r}; loaded: {sorted(self.predictors)}",
                status=404,
                code="unknown_predictor",
            )
        request = _Request(
            kind=kind,
            payload=payload,
            future=Future(),
            trace=obs_trace.current_context(),
        )
        self._queued_arrivals.append(request.submitted_at)
        self._queue.put(request)
        return request.future

    def predict(self, kind: str, payload: dict, timeout: float | None = 30.0) -> dict:
        """Blocking convenience wrapper around :meth:`submit`.

        A timed-out wait is not silent: it emits a ``request_timeout``
        span event and bumps ``repro_requests_timed_out_total`` before
        cancelling the future and re-raising.
        """
        future = self.submit(kind, payload)
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            self.record_timeout(kind)
            future.cancel()
            raise

    def record_timeout(self, kind: str) -> None:
        """A waiter gave up on a submitted request before it was answered.

        Emits a zero-duration ``request_timeout`` span event into the
        caller's trace (when sampled) so the trace tree shows *why* the
        request ended, and counts it in
        ``repro_requests_timed_out_total``.
        """
        _TIMEOUTS.inc(kind=kind)
        ctx = obs_trace.current_context()
        if ctx is not None:
            trace_id, parent_id = ctx
            now = time.perf_counter()
            obs_trace.record_span(
                trace_id, "request_timeout", now, now,
                parent_id=parent_id, kind=kind,
            )

    # ------------------------------------------------------------- worker
    def _gather(self) -> list:
        """Block for one request, then coalesce more until batch/deadline."""
        first = self._queue.get()
        if first is _SHUTDOWN:
            return [first]
        self._dequeue(first)
        batch = [first]
        deadline = time.perf_counter() + self.max_wait_ms / 1e3
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            batch.append(item)
            if item is _SHUTDOWN:
                break
            self._dequeue(item)
        return batch

    def _dequeue(self, request: _Request) -> None:
        request.dequeued_at = time.perf_counter()
        try:
            self._queued_arrivals.popleft()
        except IndexError:
            pass

    def _run(self) -> None:
        while True:
            batch = self._gather()
            shutdown = _SHUTDOWN in batch
            requests = [r for r in batch if r is not _SHUTDOWN]
            by_kind: dict[str, list[_Request]] = {}
            for r in requests:
                by_kind.setdefault(r.kind, []).append(r)
            assembled_at = time.perf_counter()
            for r in requests:
                if r.trace is None:
                    continue
                trace_id, parent_id = r.trace
                obs_trace.record_span(
                    trace_id,
                    "engine.queue_wait",
                    r.submitted_at,
                    r.dequeued_at,
                    parent_id=parent_id,
                )
                obs_trace.record_span(
                    trace_id,
                    "engine.batch_assembly",
                    r.dequeued_at,
                    assembled_at,
                    parent_id=parent_id,
                    batch_size=len(by_kind[r.kind]),
                )
            for kind, group in by_kind.items():
                self.predictors[kind].metrics.record_batch()
                _BATCHES.inc(kind=kind)
                self._execute(kind, group)
            if shutdown:
                self._fail_queued()
                return

    def _fail_queued(self) -> None:
        """Fail every request still in the queue with a typed shutdown error."""
        exc = ServingError(
            "engine shut down before the request was served",
            status=503,
            code="engine_shutdown",
        )
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SHUTDOWN:
                continue
            self._dequeue(item)
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(exc)

    def _execute(self, kind: str, group: list[_Request]) -> None:
        predictor = self.predictors[kind]
        try:
            with obs_trace.batch_context([r.trace for r in group]):
                outcomes = predictor.predict_batch([r.payload for r in group])
        except BaseException as exc:  # engine must survive bad batches
            predictor.metrics.record_error()
            for r in group:
                if not r.future.set_running_or_notify_cancel():
                    continue
                r.future.set_exception(exc)
            return
        self._deliver(predictor, group, outcomes)

    def _deliver(self, predictor, group: list[_Request], outcomes: list) -> None:
        now = time.perf_counter()
        for r, outcome in zip(group, outcomes):
            if isinstance(outcome, dict) and "error" in outcome:
                predictor.metrics.record_error()
                n_items = 0
            elif isinstance(outcome, dict) and "scores" in outcome:
                n_items = len(outcome["scores"])
            else:
                n_items = 1
            predictor.metrics.record(now - r.submitted_at, n_items=n_items)
            _LATENCY.observe(now - r.submitted_at, kind=predictor.kind)
            if r.future.set_running_or_notify_cancel():
                r.future.set_result(outcome)

    # ------------------------------------------------------------- health
    def metrics(self) -> dict:
        """Per-predictor counters + cache stats for ``/metrics``."""
        out = {}
        for kind, predictor in self.predictors.items():
            entry = dict(predictor.metrics.snapshot())
            entry["caches"] = _predictor_cache_stats(predictor)
            out[kind] = entry
        return out

    def describe(self) -> dict:
        """Static model info for ``/healthz``."""
        return {kind: p.describe() for kind, p in self.predictors.items()}


# ---------------------------------------------------------- cache plumbing
def _predictor_cache_stats(predictor) -> dict:
    """Atomic stats of every LRU cache a predictor exposes."""
    caches = {}
    if hasattr(predictor, "feature_cache"):
        caches["features"] = predictor.feature_cache.stats()
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
    max_wait_ms: float = 2.0,
    workers: int | None = None,
    with_events: bool = True,
) -> InferenceEngine:
    """Build an engine from registry bundles (what ``repro serve`` runs).

    ``workers`` is accepted for ``perfbench/reproduce.py``, its only
    caller, and ignored: the engine always serves in-process.

    Loads the latest version of each named model (default: every model in
    the store); bundles recorded against the same world config share one
    regenerated world so startup pays world generation once.  Each
    predictor remembers its registry source, so ``/v1/models/{name}/reload``
    can swap it later.

    With ``with_events`` (the default) the durable event log living at
    ``<store>/events`` is opened and replayed through every predictor, so
    events ingested before a restart are already serving when this
    returns.
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
    for name in names:
        manifest = registry.manifest(name)
        shared = (
            world
            if world is not None
            and dataclasses.asdict(world.config) == manifest["world_config"]
            else None
        )
        bundle = registry.load_bundle(name, world=shared)
        world = bundle.extractor.world
        predictor = predictor_for_bundle(bundle)
        predictor.source = {"name": manifest["name"], "version": manifest["version"]}
        if predictor.kind in predictors:
            raise ValueError(
                f"two bundles of kind {predictor.kind!r} requested; each kind "
                f"can only be served by one model (got {names})"
            )
        predictors[predictor.kind] = predictor
    engine = InferenceEngine(
        predictors,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
    )
    if with_events:
        engine.attach_store(EventLog(os.path.join(registry.root, "events")))
    return engine
