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

Saturation behaviour is measured separately from closed-loop throughput:

- ``--arrival-rate R`` fires *open-loop* Poisson load at R req/s against
  the asyncio front end with admission control — arrivals are scheduled,
  not gated on responses, and latency is measured from the scheduled
  arrival time, so coordinated omission can't hide queueing;
- ``--overload`` auto-mode measures closed-loop capacity, then runs
  open-loop legs at 0.5x and 2x that rate.  ``--check`` enforces the
  graceful-saturation floor: p99 of *admitted* requests at 2x offered
  load ≤ 2x the p99 at 50% load (+50 ms slack), zero requests dropped
  without a response, and every 429 carrying ``Retry-After``.
  ``--overload-only`` skips the closed-loop curve and batch legs (the CI
  overload-smoke step).

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_serving_throughput.py``)
or under pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import http.client
import json
import queue as queue_mod
import sys
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
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
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


def _fire_open_loop(
    host: str,
    port: int,
    payloads: list[dict],
    rate: float,
    seconds: float,
    *,
    rng_seed: int = 1,
) -> dict:
    """Open-loop Poisson load: arrivals at ``rate``/s, *not* gated on
    responses.

    Every request has a pre-scheduled arrival time (exponential gaps) and
    its latency is measured from that scheduled time — if the sender pool
    falls behind, the delay counts against the server, so coordinated
    omission cannot flatter the latency curve.  Per-response accounting
    separates admitted results (200), sheds (429, checked for
    ``Retry-After``), engine timeouts (503), and transport errors — the
    no-silent-drops floor is ``answered == offered``.
    """
    rng = np.random.default_rng(rng_seed)
    n = max(1, int(rate * seconds))
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
    bodies = [
        json.dumps(payloads[i % len(payloads)]).encode("utf-8") for i in range(n)
    ]
    jobs: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
    for k in range(n):
        jobs.put(k)
    n_workers = int(min(64, max(16, rate * 0.1)))
    admitted_lat: list[list[float]] = [[] for _ in range(n_workers)]
    counts = [
        {"admitted": 0, "shed": 0, "shed_with_retry_after": 0,
         "overloaded": 0, "other": 0, "errors": 0}
        for _ in range(n_workers)
    ]
    headers = {"Content-Type": "application/json"}
    start = time.perf_counter() + 0.05

    def worker(wid: int):
        conn: http.client.HTTPConnection | None = None
        c = counts[wid]
        while True:
            try:
                k = jobs.get_nowait()
            except queue_mod.Empty:
                break
            due = start + arrivals[k]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.request("POST", "/v1/predict/retweeters", bodies[k], headers)
                resp = conn.getresponse()
                resp.read()
                status = resp.status
                retry_after = resp.headers.get("Retry-After")
                if resp.headers.get("Connection", "").lower() == "close":
                    conn.close()
                    conn = None
            except Exception:
                c["errors"] += 1
                if conn is not None:
                    conn.close()
                conn = None
                continue
            finished = time.perf_counter()
            if status == 200:
                c["admitted"] += 1
                admitted_lat[wid].append(finished - due)
            elif status == 429:
                c["shed"] += 1
                if retry_after is not None:
                    c["shed_with_retry_after"] += 1
            elif status == 503:
                c["overloaded"] += 1
            else:
                c["other"] += 1
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(n_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = {key: sum(c[key] for c in counts) for key in counts[0]}
    lat = np.array([x for per in admitted_lat for x in per])
    leg = {
        "arrival_rate_rps": round(rate, 1),
        "seconds": seconds,
        "offered": n,
        "answered": n - total["errors"],
        **total,
    }
    if lat.size:
        leg["admitted_p50_ms"] = round(float(np.percentile(lat, 50)) * 1e3, 2)
        leg["admitted_p95_ms"] = round(float(np.percentile(lat, 95)) * 1e3, 2)
        leg["admitted_p99_ms"] = round(float(np.percentile(lat, 99)) * 1e3, 2)
    return leg


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
    parser.add_argument("--arrival-rate", type=float, default=0.0, metavar="R",
                        help="open-loop leg: Poisson arrivals at R req/s "
                             "against the asyncio front end with admission "
                             "control (0 disables)")
    parser.add_argument("--overload", action="store_true",
                        help="measure closed-loop capacity, then open-loop "
                             "legs at 0.5x and 2x that rate (graceful-"
                             "saturation curve)")
    parser.add_argument("--overload-only", action="store_true",
                        help="run only the --overload legs (skips the "
                             "closed-loop curve and batch legs)")
    parser.add_argument("--overload-p99-factor", type=float, default=2.0,
                        help="admitted-p99 blowup allowed at 2x offered load "
                             "vs 50%% load (plus 50 ms slack)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on zero throughput, a silent "
                             "drop or a missed overload floor")
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
    if args.overload_only:
        args.overload = True
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

    def serve(admission=None):
        """A fresh predictor + engine + server for one measurement leg."""
        predictor = RetweeterPredictor(bundle)
        engine = InferenceEngine({"retweeters": predictor}, max_batch_size=64)
        return engine, AsyncPredictionServer(engine, port=0, admission=admission)

    report = {"client": "repro.client.ServingClient", "api": "v1",
              "cores": available_cores()}

    if not args.overload_only:
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

    # ---- open-loop leg at a fixed offered rate ---------------------------
    if getattr(args, "arrival_rate", 0.0) > 0:
        engine, server = serve(
            admission=AdmissionController(AdmissionConfig()),
        )
        with server:
            host, port = server.address
            _fire_load(host, port, payloads, concurrency=2, seconds=0.5)
            report["open_loop"] = _fire_open_loop(
                host, port, payloads, args.arrival_rate, args.seconds
            )

    # ---- overload curve: 0.5x and 2x measured capacity -------------------
    if getattr(args, "overload", False):
        # Probe capacity on an unthrottled server first...
        engine, probe = serve()
        with probe:
            host, port = probe.address
            _fire_load(host, port, payloads, concurrency=2, seconds=0.5)
            capacity = _fire_load(
                host, port, payloads, 16, min(args.seconds, 2.0)
            )["requests_per_s"]
        # ...then serve with a route quota at 75% of it.  The quota is the
        # graceful-saturation mechanism under test: at 0.5x offered load
        # the bucket never empties (zero shed); at 2x it sheds the excess
        # so admitted throughput stays inside capacity and admitted p99
        # stays near the uncongested service time.  Watermarks ride along
        # as the backstop against the engine queue itself backing up.
        admission_cfg = AdmissionConfig(
            route_rps=capacity * 0.75,
            route_burst=max(32.0, capacity * 0.1),
            depth_high=64, depth_low=16, age_high_s=0.25, age_low_s=0.05,
        )
        engine, server = serve(
            admission=AdmissionController(admission_cfg),
        )
        legs = []
        with server:
            host, port = server.address
            _fire_load(host, port, payloads, concurrency=2, seconds=0.5)
            for frac in (0.5, 2.0):
                leg = _fire_open_loop(
                    host, port, payloads, max(10.0, capacity * frac), args.seconds
                )
                leg["offered_fraction_of_capacity"] = frac
                legs.append(leg)
        p99_half = legs[0].get("admitted_p99_ms")
        p99_double = legs[1].get("admitted_p99_ms")
        limit = (
            round(p99_half * args.overload_p99_factor + 50.0, 2)
            if p99_half is not None else None
        )
        report["overload"] = {
            "capacity_rps_closed_loop": capacity,
            "admission": {
                "route_rps": round(admission_cfg.route_rps, 1),
                "route_burst": round(admission_cfg.route_burst, 1),
                "depth_high": admission_cfg.depth_high,
                "age_high_s": admission_cfg.age_high_s,
            },
            "legs": legs,
            "p99_floor": {
                "factor": args.overload_p99_factor,
                "slack_ms": 50.0,
                "limit_ms": limit,
                # The latency bound is a scheduling claim — on a 1-core
                # host the load generator and server share the core and
                # client-side lateness pollutes the measurement.
                "enforced": floor_enforceable(2),
                "ok": (
                    p99_half is not None
                    and p99_double is not None
                    and p99_double <= limit
                ),
            },
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
        if "levels" in results:
            levels = results["levels"] + results.get("batch", {}).get("levels", [])
            if not all(level["requests"] > 0 for level in levels):
                print("FAIL: a load level completed zero requests",
                      file=sys.stderr)
                return 1
        open_legs = []
        if "open_loop" in results:
            open_legs.append(("open_loop", results["open_loop"]))
        for leg in results.get("overload", {}).get("legs", []):
            open_legs.append(
                (f"overload@{leg['offered_fraction_of_capacity']}x", leg)
            )
        for name, leg in open_legs:
            if leg["answered"] != leg["offered"] or leg["errors"]:
                print(f"FAIL: {name}: {leg['offered'] - leg['answered']} of "
                      f"{leg['offered']} requests got no HTTP response "
                      f"(silent drops)", file=sys.stderr)
                return 1
            if leg["shed_with_retry_after"] != leg["shed"]:
                print(f"FAIL: {name}: "
                      f"{leg['shed'] - leg['shed_with_retry_after']} shed "
                      f"response(s) missing Retry-After", file=sys.stderr)
                return 1
        if "overload" in results:
            double = results["overload"]["legs"][-1]
            if double["shed"] < 1:
                print("FAIL: 2x-capacity leg shed nothing — admission "
                      "control never engaged", file=sys.stderr)
                return 1
            floor = results["overload"]["p99_floor"]
            if not floor["enforced"]:
                print(f"note: overload p99 floor skipped "
                      f"({available_cores()} core(s): load generator and "
                      f"server share the CPU)", file=sys.stderr)
            elif not floor["ok"]:
                print(f"FAIL: admitted p99 at 2x load "
                      f"({double.get('admitted_p99_ms')} ms) exceeds "
                      f"{floor['limit_ms']} ms "
                      f"({floor['factor']}x the 0.5x-load p99 "
                      f"+ {floor['slack_ms']} ms slack)", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
