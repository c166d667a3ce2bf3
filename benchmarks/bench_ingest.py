"""Ingest path: sustained events/s, ingest latency, read-path isolation.

Trains a small RETINA bundle once, serves it through a registry-backed
engine with a durable event log attached (exactly what ``repro serve``
runs), then measures the ``POST /v1/ingest`` write path through the real
SDK (:meth:`repro.client.ServingClient.ingest` — client-side schema
validation, idempotent retry policy, keep-alive pooling):

- **sustained ingest** — one closed-loop writer streams batches of
  unique tweet/retweet events; reports events/s and per-batch p50/p95
  latency (append + incremental feature invalidation + durable fsync).
- **read-path isolation** — closed-loop ``/v1/predict/retweeters`` load
  is measured alone, then again while a paced background writer ingests
  at a fixed rate.  ``--check`` enforces that reads keep >= 90% of their
  baseline throughput (the <= 10% regression gate) when the host has at
  least 2 cores; on a single core the writer and the readers share the
  CPU and the bound is not a claim the serving stack can make.

Synthetic events use a small fixed author set and far-future timestamps
so invalidation stays surgical (a handful of dirty user rows per batch,
no existing cascade contexts dirtied) — the measured interference is the
write path itself, not a cache-eviction storm the schema would never
produce organically.

Every measured leg runs twice and the better run is reported (max-of-2
noise damping; CI hosts are shared).

Runnable standalone: ``PYTHONPATH=src python benchmarks/bench_ingest.py``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # executed as a script: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import (
    add_json_out,
    available_cores,
    emit_report,
    floor_enforceable,
)
from repro.client import ServingClient
from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.obs import config as obs_config
from repro.serving import AsyncPredictionServer, ModelRegistry, RetinaBundle
from repro.serving.engine import engine_from_store

INGEST_BATCH = 64       # events per POST /v1/ingest call
AUTHORS = 4             # distinct tweet authors (bounds row invalidation)
FAR_FUTURE_HOURS = 1e6  # keeps ingested roots off existing cascades' days
CANDIDATES_PER_REQUEST = 8


@lru_cache(maxsize=1)
def _fixture():
    """(bundle, cascade_ids, user_pool, known_tag) — trained once."""
    cfg = SyntheticWorldConfig(
        scale=0.01, n_hashtags=5, n_users=150, n_news=300, seed=13
    )
    ds = HateDiffusionDataset.generate(cfg)
    train, _ = ds.cascade_split(random_state=0)
    extractor = RetinaFeatureExtractor(ds.world, random_state=0).fit(train)
    edges = RetinaTrainer.default_interval_edges()
    tr = extractor.build_samples(train[:30], interval_edges_hours=edges, random_state=0)
    model = RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode="static",
        random_state=0,
    )
    RetinaTrainer(model, epochs=1, random_state=0).fit(tr)
    bundle = RetinaBundle(model=model, extractor=extractor, world_config=cfg)
    cascade_ids = [c.root.tweet_id for c in ds.world.cascades[:40]]
    user_pool = sorted(ds.world.users)
    return bundle, cascade_ids, user_pool, ds.world.catalog[0].tag


def _serve(tmp: str):
    """A fresh registry + event log + engine + server for one leg."""
    bundle, _, _, _ = _fixture()
    registry = ModelRegistry(tmp)
    registry.save_bundle("retina", bundle)
    engine = engine_from_store(registry, max_wait_ms=2.0)
    return engine, AsyncPredictionServer(engine, port=0)


def _event_batch(index: int, user_pool: list, tag: str,
                 batch: int = INGEST_BATCH) -> list[dict]:
    """One batch of unique, world-valid events (tweets + retweets).

    Tweet ids are globally unique per ``index``; every odd slot retweets
    the tweet created in the previous slot (same batch — the ingest
    route applies earlier items before validating later ones).
    """
    base = 10_000_000 + index * batch
    events: list[dict] = []
    for j in range(batch):
        tid = base + j
        if j % 2 == 1:
            events.append({
                "kind": "retweet", "tweet_id": tid - 1,
                "user_id": user_pool[AUTHORS + (j % AUTHORS)],
                "timestamp": FAR_FUTURE_HOURS + index + 0.5,
            })
        else:
            events.append({
                "kind": "tweet", "tweet_id": tid,
                "user_id": user_pool[j % AUTHORS], "hashtag": tag,
                "text": f"bench tweet {tid}",
                "timestamp": FAR_FUTURE_HOURS + float(index),
            })
    return events


class _BatchCounter:
    """Hands out unique batch indexes across legs (no id reuse, no dedup)."""

    def __init__(self):
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> int:
        with self._lock:
            i = self._next
            self._next += 1
            return i


def _ingest_leg(host: str, port: int, seconds: float, counter: _BatchCounter,
                user_pool, tag) -> dict:
    """Closed-loop writer: stream unique batches as fast as acks return."""
    lat: list[float] = []
    events = errors = 0
    with ServingClient(host=host, port=port, timeout=60, retries=0,
                       pool_size=1) as client:
        stop = time.perf_counter() + seconds
        started = time.perf_counter()
        while time.perf_counter() < stop:
            batch = _event_batch(counter.take(), user_pool, tag)
            t0 = time.perf_counter()
            resp = client.ingest(batch)
            lat.append(time.perf_counter() - t0)
            events += resp.accepted
            errors += resp.n_errors + resp.deduped  # both mean a bad batch here
        elapsed = time.perf_counter() - started
    arr = np.array(lat)
    return {
        "batches": len(lat),
        "batch_size": INGEST_BATCH,
        "events": events,
        "item_errors": errors,
        "events_per_s": round(events / elapsed, 1),
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 2),
        "p95_ms": round(float(np.percentile(arr, 95)) * 1e3, 2),
    }


def _read_leg(host: str, port: int, payloads: list[dict], concurrency: int,
              seconds: float) -> dict:
    """Closed-loop read load (same shape as the serving-throughput bench)."""
    stop_at = time.perf_counter() + seconds
    lat_per_thread: list[list[float]] = [[] for _ in range(concurrency)]
    errors: list[str] = []

    def loop(slot: int):
        with ServingClient(host=host, port=port, timeout=60, retries=0,
                           pool_size=1) as client:
            i = slot
            while time.perf_counter() < stop_at:
                p = payloads[i % len(payloads)]
                t0 = time.perf_counter()
                try:
                    client.predict_retweeters(p["cascade_id"],
                                              user_ids=p["user_ids"])
                except Exception as exc:  # pragma: no cover - bench robustness
                    errors.append(repr(exc))
                    return
                lat_per_thread[slot].append(time.perf_counter() - t0)
                i += concurrency

    started = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(s,)) for s in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"read load failed: {errors[:3]}")
    lat = np.array([x for per in lat_per_thread for x in per])
    return {
        "concurrency": concurrency,
        "requests": int(lat.size),
        "requests_per_s": round(lat.size / elapsed, 1),
        "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 2),
        "p95_ms": round(float(np.percentile(lat, 95)) * 1e3, 2),
    }


def _paced_writer(host: str, port: int, rate: float, counter: _BatchCounter,
                  user_pool, tag, stop: threading.Event) -> dict:
    """Background ingest at ``rate`` events/s until ``stop`` is set."""
    sent = 0
    period = INGEST_BATCH / rate
    with ServingClient(host=host, port=port, timeout=60, retries=0,
                       pool_size=1) as client:
        next_due = time.perf_counter()
        while not stop.is_set():
            delay = next_due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            resp = client.ingest(_event_batch(counter.take(), user_pool, tag))
            sent += resp.accepted
            next_due += period
    return {"events": sent, "target_rate": rate}


def _best(runs: list[dict], key: str) -> dict:
    return max(runs, key=lambda r: r[key])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="duration of each measured leg")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="client threads for the read legs")
    parser.add_argument("--ingest-rate", type=float, default=256.0,
                        help="paced background ingest rate (events/s) for "
                             "the read-isolation leg")
    parser.add_argument("--min-events-per-s", type=float, default=500.0,
                        help="sustained ingest events/s floor (--check)")
    parser.add_argument("--max-p95-ms", type=float, default=500.0,
                        help="ingest per-batch p95 latency ceiling (--check)")
    parser.add_argument("--max-read-regression", type=float, default=0.10,
                        help="allowed read-throughput loss while ingesting")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any floor is missed")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI preset (implies --check)")
    add_json_out(parser)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 2.0)
        args.check = True
    return args


def _run(args) -> dict:
    obs_config.configure(enabled=True, sample_rate=0.0)
    _, cascade_ids, user_pool, tag = _fixture()
    rng = np.random.default_rng(0)
    payloads = [
        {
            "cascade_id": int(rng.choice(cascade_ids)),
            "user_ids": [
                int(u) for u in
                rng.choice(user_pool, size=CANDIDATES_PER_REQUEST, replace=False)
            ],
        }
        for _ in range(256)
    ]
    counter = _BatchCounter()
    with tempfile.TemporaryDirectory() as tmp:
        engine, server = _serve(tmp)
        with server:
            host, port = server.address
            _read_leg(host, port, payloads, 2, 0.5)  # warm caches

            # ---- read baseline (no writer) -----------------------------
            baseline = _best(
                [_read_leg(host, port, payloads, args.concurrency, args.seconds)
                 for _ in range(2)],
                "requests_per_s",
            )

            # ---- sustained ingest --------------------------------------
            sustained = _best(
                [_ingest_leg(host, port, args.seconds, counter, user_pool, tag)
                 for _ in range(2)],
                "events_per_s",
            )

            # ---- reads while a paced writer runs -----------------------
            stop = threading.Event()
            writer_out: dict = {}

            def writer():
                writer_out.update(_paced_writer(
                    host, port, args.ingest_rate, counter, user_pool, tag, stop
                ))

            wt = threading.Thread(target=writer)
            wt.start()
            try:
                under_ingest = _best(
                    [_read_leg(host, port, payloads, args.concurrency,
                               args.seconds) for _ in range(2)],
                    "requests_per_s",
                )
            finally:
                stop.set()
                wt.join(timeout=60)
            store = engine.store_stats()
    regression = round(
        1.0 - under_ingest["requests_per_s"] / baseline["requests_per_s"], 4
    )
    return {
        "cores": available_cores(),
        "ingest": sustained,
        "read_baseline": baseline,
        "read_under_ingest": {**under_ingest, "writer": writer_out},
        "read_regression": regression,
        "store": {k: store[k] for k in ("events", "last_seq", "segments",
                                        "dedup_hits")},
        "floors": {
            "min_events_per_s": args.min_events_per_s,
            "max_p95_ms": args.max_p95_ms,
            "max_read_regression": args.max_read_regression,
            # The regression bound is a scheduling claim — on a 1-core
            # host the paced writer and the readers share the core, so
            # any ingest at all "costs" read throughput.
            "read_regression_enforced": floor_enforceable(2),
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    results = _run(args)
    report = {"benchmark": "ingest", "results": results}
    emit_report(report, args.json_out)
    if args.check:
        failures = []
        ing = results["ingest"]
        if ing["item_errors"]:
            failures.append(f"{ing['item_errors']} ingest item(s) rejected "
                            f"or unexpectedly deduplicated")
        if ing["events_per_s"] < args.min_events_per_s:
            failures.append(f"sustained ingest {ing['events_per_s']} events/s "
                            f"< floor {args.min_events_per_s}")
        if ing["p95_ms"] > args.max_p95_ms:
            failures.append(f"ingest p95 {ing['p95_ms']} ms "
                            f"> ceiling {args.max_p95_ms} ms")
        if not results["floors"]["read_regression_enforced"]:
            print(f"note: read-regression gate skipped ({available_cores()} "
                  f"core(s): writer and readers share the CPU)",
                  file=sys.stderr)
        elif results["read_regression"] > args.max_read_regression:
            failures.append(
                f"read throughput lost {results['read_regression'] * 100:.1f}% "
                f"while ingesting (allowed "
                f"{args.max_read_regression * 100:.0f}%)")
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
