"""Serving throughput: requests/sec and p50/p95 latency vs client batch size.

Trains a small RETINA bundle once, serves it over HTTP from a background
thread, then fires fixed-duration closed-loop load at concurrency levels
1-64 (each client thread holds one in-flight request).  Load generation
goes through :class:`repro.client.ServingClient` — the real SDK with its
keep-alive pooling and client-side schema validation — so the measured
numbers include the full v1 contract, not a hand-rolled fast path.
Reports a JSON document per level with requests/sec, p50/p95 latency,
and feature-cache hit rate — the numbers that justify micro-batching +
caching.

``--batch-size N`` adds a ``/v1/batch/retweeters`` leg: each HTTP call
carries N requests fanned into the micro-batcher, reported with both
per-HTTP-request and per-row throughput.

Open-loop and overload behaviour is measured by ``bench_overload.py``,
whose load generator runs outside the server's process.

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_serving_throughput.py``)
or under pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # executed as a script: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import add_json_out, available_cores, emit_report
from repro.client import ServingClient
from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.obs import config as obs_config
from repro.serving import (
    AsyncPredictionServer,
    InferenceEngine,
    RetinaBundle,
    RetweeterPredictor,
)

BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)
SECONDS_PER_LEVEL = 2.0
CANDIDATES_PER_REQUEST = 8


@lru_cache(maxsize=1)
def _serving_fixture():
    """(bundle, cascade_ids, user_pool) — trained once per process."""
    cfg = SyntheticWorldConfig(scale=0.01, n_hashtags=5, n_users=150, n_news=300, seed=13)
    ds = HateDiffusionDataset.generate(cfg)
    train, test = ds.cascade_split(random_state=0)
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
    return bundle, cascade_ids, user_pool


def _fire_load(
    host: str,
    port: int,
    payloads: list[dict],
    concurrency: int,
    seconds: float,
    *,
    batch_size: int = 0,
) -> dict:
    """Closed-loop load: ``concurrency`` threads, one in-flight call each.

    Each thread drives its own :class:`ServingClient` (one pooled
    keep-alive connection), so the measurement is request handling +
    batching through the full v1 contract — client-side validation,
    typed response parsing — not TCP handshakes.  With ``batch_size``
    > 0 every HTTP call is a ``/v1/batch/retweeters`` request carrying
    that many payloads.
    """
    stop_at = time.perf_counter() + seconds
    latencies_per_thread: list[list[float]] = [[] for _ in range(concurrency)]
    errors = []

    def client_loop(slot: int):
        client = ServingClient(
            host=host, port=port, timeout=30, retries=0, pool_size=1
        )
        i = slot
        stride = concurrency * max(1, batch_size)
        try:
            while time.perf_counter() < stop_at:
                t0 = time.perf_counter()
                try:
                    if batch_size:
                        requests = [
                            payloads[(i + j) % len(payloads)]
                            for j in range(batch_size)
                        ]
                        batch = client.predict_many("retweeters", requests)
                        if batch.n_errors:
                            errors.append(f"{batch.n_errors} batch item errors")
                            return
                    else:
                        payload = payloads[i % len(payloads)]
                        client.predict_retweeters(
                            payload["cascade_id"], user_ids=payload["user_ids"]
                        )
                except Exception as exc:  # pragma: no cover - bench robustness
                    errors.append(repr(exc))
                    return
                i += stride
                latencies_per_thread[slot].append(time.perf_counter() - t0)
        finally:
            client.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(s,)) for s in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    lat = np.array([x for per in latencies_per_thread for x in per])
    if errors:
        raise RuntimeError(f"load generation failed: {errors[:3]}")
    level = {
        "concurrency": concurrency,
        "requests": int(lat.size),
        "requests_per_s": round(lat.size / elapsed, 1),
        "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 2),
        "p95_ms": round(float(np.percentile(lat, 95)) * 1e3, 2),
        "p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 2),
    }
    if batch_size:
        level["batch_size"] = batch_size
        level["rows"] = int(lat.size) * batch_size
        level["rows_per_s"] = round(lat.size * batch_size / elapsed, 1)
    return level


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=SECONDS_PER_LEVEL,
                        help="load duration per measured level")
    parser.add_argument("--levels", type=str, default=None,
                        help="comma-separated base concurrency levels "
                             "(default 1,2,4,8,16,32,64)")
    parser.add_argument("--concurrency", type=int, default=32,
                        help="client concurrency for the batch and "
                             "obs-overhead legs")
    parser.add_argument("--batch-size", type=int, default=0, metavar="N",
                        help="also measure /v1/batch/retweeters with N "
                             "requests per HTTP call (0 disables; reports "
                             "per-request and per-row throughput)")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="also measure telemetry overhead: one fixed-"
                             "concurrency leg each with obs disabled, "
                             "enabled-but-unsampled, and fully sampled")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on zero throughput")
    parser.add_argument("--smoke", action="store_true",
                        help="short-load CI preset (implies --check)")
    add_json_out(parser)
    args = parser.parse_args(argv)
    args.base_levels = (
        tuple(int(x) for x in args.levels.split(",")) if args.levels else BATCH_SIZES
    )
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)
        args.base_levels = (4, 16)
        args.concurrency = 16
        args.batch_size = args.batch_size or 8
        args.check = True
    return args


def _run(args=None) -> dict:
    if args is None:
        args = parse_args([])
    # Load legs run enabled-but-unsampled — the production posture — so the
    # archived throughput trajectory stays comparable across PRs; the
    # --obs-overhead leg flips the switches explicitly.
    obs_config.configure(enabled=True, sample_rate=0.0)
    bundle, cascade_ids, user_pool = _serving_fixture()
    rng = np.random.default_rng(0)
    payloads = [
        {
            "cascade_id": int(rng.choice(cascade_ids)),
            "user_ids": [int(u) for u in rng.choice(user_pool, size=CANDIDATES_PER_REQUEST, replace=False)],
        }
        for _ in range(256)
    ]

    def serve():
        """A fresh predictor + engine + server for one measurement leg."""
        predictor = RetweeterPredictor(bundle)
        engine = InferenceEngine({"retweeters": predictor}, max_batch_size=64)
        return engine, AsyncPredictionServer(engine, port=0)

    report = {"client": "repro.client.ServingClient", "api": "v1",
              "cores": available_cores()}

    # ---- base curve: the engine over concurrency levels --------------
    engine, server = serve()
    results = []
    batch_levels = []
    with server:
        host, port = server.address
        _fire_load(host, port, payloads, concurrency=2, seconds=0.5)  # warm caches
        for concurrency in args.base_levels:
            level = _fire_load(host, port, payloads, concurrency, args.seconds)
            level["feature_cache_hit_rate"] = (
                engine.metrics()["retweeters"]["caches"]["features"]["hit_rate"]
            )
            results.append(level)
        engine_metrics = engine.metrics()["retweeters"]
        # ---- /v1/batch/retweeters: N payloads per HTTP call ---------
        if args.batch_size:
            batch_levels.append(
                _fire_load(
                    host, port, payloads, args.concurrency, args.seconds,
                    batch_size=args.batch_size,
                )
            )

    report["levels"] = results
    report["engine"] = {
        "requests": engine_metrics["requests"],
        "mean_batch_size": engine_metrics["mean_batch_size"],
        "p50_ms": engine_metrics["p50_ms"],
        "p95_ms": engine_metrics["p95_ms"],
    }
    if batch_levels:
        report["batch"] = {
            "concurrency": args.concurrency,
            "batch_size": args.batch_size,
            "levels": batch_levels,
        }

    # ---- telemetry overhead: disabled vs unsampled vs fully sampled ------
    if getattr(args, "obs_overhead", False):
        overhead = []
        try:
            for label, enabled, rate in (
                ("disabled", False, 0.0),
                ("enabled_unsampled", True, 0.0),
                ("enabled_sampled", True, 1.0),
            ):
                obs_config.configure(enabled=enabled, sample_rate=rate)
                engine, server = serve()
                with server:
                    host, port = server.address
                    _fire_load(host, port, payloads, concurrency=2, seconds=0.5)
                    level = _fire_load(
                        host, port, payloads, args.concurrency, args.seconds
                    )
                level["obs"] = label
                overhead.append(level)
        finally:
            obs_config.configure(enabled=True, sample_rate=0.0)
        base_rps = overhead[0]["requests_per_s"]
        for level in overhead:
            level["overhead_pct_vs_disabled"] = round(
                (base_rps - level["requests_per_s"]) / base_rps * 100, 2
            )
        report["obs_overhead"] = {
            "concurrency": args.concurrency,
            "levels": overhead,
            "target_pct_unsampled": 3.0,
        }
    return report


def test_serving_throughput(benchmark):
    from benchmarks.common import run_once

    report = run_once(benchmark, _run)
    print()
    print(json.dumps(report, indent=2))
    assert all(level["requests"] > 0 for level in report["levels"])


def main(argv=None) -> int:
    args = parse_args(argv)
    report = {"benchmark": "serving_throughput", "results": _run(args)}
    emit_report(report, args.json_out)
    if args.check:
        results = report["results"]
        levels = results["levels"] + results.get("batch", {}).get("levels", [])
        if not all(level["requests"] > 0 for level in levels):
            print("FAIL: a load level completed zero requests", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
