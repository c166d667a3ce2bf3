"""Chaos soak: seeded fault injection against the live serving stack.

Trains a small RETINA bundle once, then walks it through one leg per
failure domain, each under a deterministic :mod:`repro.chaos` schedule:

- **serving** — the engine behind the asyncio front end takes
  closed-loop SDK load while ``client.reset`` drops pooled keep-alive
  sockets mid-conversation.  Every request must come back as a 200 or a
  *typed* error (``connection_reset``, ...) — no hangs, no silent drops,
  no untyped tracebacks.
- **raw sockets** — hand-rolled peers disconnect mid-body and slow-loris
  the request head (the ``aio.disconnect`` / ``aio.slowloris`` points
  are driven from this harness, not from server code).  The server must
  count each abort and keep answering afterwards.
- **paged I/O** — a PagedMatrix absorbs transient EIO on block
  read/write; once the injected disk heals, every byte written under
  chaos must read back bit-identically (no dirty block silently lost).
- **registry** — a bundle save truncated by ``registry.save`` must fail
  checksum verification with a typed ``RegistryCorruptError`` on load,
  and a clean re-save must serve.
- **event store** — a child process appends to an ``EventLog``,
  durably recording every acked sequence number, and is SIGKILLed
  mid-stream.  Reopening the log must recover every acked event
  bit-for-bit (a torn tail may be truncated, an acked record may not),
  and the ``store.append`` / ``store.fsync`` chaos points must surface
  as typed ``StoreIOError`` with the failed append fully rolled back.
- **bit-identical replay** — with chaos off, a fresh server must return
  exactly the scores recorded before any fault ran.

``--check`` turns each gate into a non-zero exit (the CI chaos-smoke
job).  The schedule is fully determined by ``--seed``.

Runnable standalone: ``PYTHONPATH=src python benchmarks/bench_chaos_soak.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # executed as a script: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import add_json_out, emit_report
from repro import chaos
from repro.chaos import ChaosPlan, ChaosRule
from repro.client import ServingClient, ServingError
from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.features.paged import PagedIOError, PagedMatrix
from repro.obs import config as obs_config
from repro.obs import metrics as obs_metrics
from repro.serving import (
    AsyncPredictionServer,
    InferenceEngine,
    ModelRegistry,
    RegistryCorruptError,
    RetinaBundle,
    RetweeterPredictor,
)
from repro.store import EventLog, RetweetEvent, StoreIOError

REPLAY_N = 24          # deterministic request set for the bit-identical gate
DISCONNECTS = 5        # aio.disconnect leg: peers dropped mid-body
SLOWLORIS = 3          # aio.slowloris leg: stalled request heads
STORE_KILL_ACKS = 40   # SIGKILL the appender once this many acks are durable


@lru_cache(maxsize=1)
def _serving_fixture():
    """(bundle, world, payloads) — trained once per process."""
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
    rng = np.random.default_rng(0)
    payloads = [
        {
            "cascade_id": int(rng.choice(cascade_ids)),
            "user_ids": [
                int(u) for u in rng.choice(user_pool, size=8, replace=False)
            ],
        }
        for _ in range(256)
    ]
    return bundle, ds.world, payloads


def _serve(**server_kwargs):
    bundle, _, _ = _serving_fixture()
    engine = InferenceEngine({"retweeters": RetweeterPredictor(bundle)}, max_batch_size=8)
    return engine, AsyncPredictionServer(engine, port=0, **server_kwargs)


def _replay_scores(host: str, port: int, payloads: list[dict]) -> list[dict]:
    """Scores for the fixed replay set, in order (the bit-identical probe)."""
    out = []
    with ServingClient(host=host, port=port, timeout=60, retries=0) as client:
        for p in payloads[:REPLAY_N]:
            resp = client.predict_retweeters(p["cascade_id"], user_ids=p["user_ids"])
            out.append({str(k): float(v) for k, v in resp.scores.items()})
    return out


# --------------------------------------------------------------- serving leg
def _serving_leg(seed: int, requests_per_thread: int, concurrency: int) -> dict:
    plan = ChaosPlan(
        seed=seed,
        rules={"client.reset": ChaosRule(rate=0.02)},
    )
    chaos.enable(plan)
    _, server = _serve()
    ok = [0] * concurrency
    typed: list[dict] = [dict() for _ in range(concurrency)]
    untyped: list[list[str]] = [[] for _ in range(concurrency)]
    _, _, payloads = _serving_fixture()
    try:
        with server:
            host, port = server.address

            def client_loop(slot: int):
                with ServingClient(
                    host=host, port=port, timeout=60, retries=0, pool_size=1
                ) as client:
                    for i in range(requests_per_thread):
                        p = payloads[(slot * requests_per_thread + i) % len(payloads)]
                        try:
                            client.predict_retweeters(
                                p["cascade_id"], user_ids=p["user_ids"]
                            )
                            ok[slot] += 1
                        except ServingError as exc:
                            code = exc.code or "unknown"
                            typed[slot][code] = typed[slot].get(code, 0) + 1
                        except Exception as exc:  # noqa: BLE001 - the gate itself
                            untyped[slot].append(repr(exc))

            threads = [
                threading.Thread(target=client_loop, args=(s,))
                for s in range(concurrency)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300.0)
            hung = sum(t.is_alive() for t in threads)
            elapsed = time.perf_counter() - t0
    finally:
        chaos.disable()

    typed_total: dict[str, int] = {}
    for per in typed:
        for code, n in per.items():
            typed_total[code] = typed_total.get(code, 0) + n
    attempted = requests_per_thread * concurrency
    answered = sum(ok) + sum(typed_total.values())
    return {
        "attempted": attempted,
        "ok": sum(ok),
        "typed_errors": typed_total,
        "untyped_errors": [e for per in untyped for e in per][:5],
        "n_untyped": sum(len(per) for per in untyped),
        "answered": answered,
        "hung_clients": hung,
        "elapsed_s": round(elapsed, 2),
        "chaos_stats": chaos.stats() or plan.stats(),
    }


# ------------------------------------------------------------ raw-socket leg
def _raw_socket_leg() -> dict:
    """Mid-body disconnects + slow-loris heads against a live server."""
    aborted = obs_metrics.REGISTRY.counter(
        "repro_aio_aborted_requests_total", labels=("stage",)
    )
    head_before = aborted.value(stage="head")
    body_before = aborted.value(stage="body")
    engine, server = _serve(header_timeout=0.5)
    _, _, payloads = _serving_fixture()
    with server:
        host, port = server.address
        for _ in range(DISCONNECTS):  # aio.disconnect: vanish mid-body
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/predict/retweeters HTTP/1.1\r\n"
                    b"Host: soak\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 1000\r\n\r\n"
                    b'{"cascade_id"'
                )
                # close with 987 body bytes still owed
        for _ in range(SLOWLORIS):  # aio.slowloris: stall the request head
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/predict/retweeters HTTP/1.1\r\n" b"Host: so"
                )
                sock.settimeout(5.0)
                try:
                    while sock.recv(4096):  # drain until the server gives up
                        pass
                except (TimeoutError, OSError):
                    pass
        # The server must still answer real traffic after the abuse.
        with ServingClient(host=host, port=port, timeout=60, retries=0) as client:
            health_ok = client.health().status == "ok"
            p = payloads[0]
            predict_ok = bool(
                client.predict_retweeters(p["cascade_id"], user_ids=p["user_ids"]).scores
            )
    head_aborts = aborted.value(stage="head") - head_before
    body_aborts = aborted.value(stage="body") - body_before
    return {
        "disconnects_sent": DISCONNECTS,
        "slowloris_sent": SLOWLORIS,
        "head_aborts": int(head_aborts),
        "body_aborts": int(body_aborts),
        "aborts_counted": head_aborts >= SLOWLORIS and body_aborts >= DISCONNECTS,
        "server_alive_after": health_ok and predict_ok,
    }


# ----------------------------------------------------------------- paged leg
def _paged_leg(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal((256, 8))
    pm = PagedMatrix(256, 8, page_rows=16, max_pages=4)
    io_errors_seen = 0
    try:
        chaos.enable(
            ChaosPlan(
                seed=seed,
                rules={
                    "paged.write": ChaosRule(rate=0.2),
                    "paged.read": ChaosRule(rate=0.1),
                },
            )
        )
        for lo in range(0, 256, 16):
            try:
                pm.write_rows(np.arange(lo, lo + 16), ref[lo : lo + 16])
            except PagedIOError:
                io_errors_seen += 1  # persistent streak: typed, then retried
                pm.write_rows(np.arange(lo, lo + 16), ref[lo : lo + 16])
        degraded_under_chaos = pm.stats["degraded_blocks"]
        chaos.disable()
        pm.flush()  # disk healed: every deferred writeback must land
        intact = bool(np.array_equal(pm.read_rows(np.arange(256)), ref))
        stats = dict(pm.stats)
    finally:
        chaos.disable()
        pm.close()
    return {
        "io_retries": stats["io_retries"],
        "io_errors": stats["io_errors"],
        "typed_errors_surfaced": io_errors_seen,
        "degraded_blocks_under_chaos": degraded_under_chaos,
        "degraded_blocks_after_heal": stats["degraded_blocks"],
        "bit_identical_after_heal": intact,
        "no_silent_loss": intact and stats["degraded_blocks"] == 0,
    }


# -------------------------------------------------------------- registry leg
def _registry_leg(seed: int, tmp_root: str) -> dict:
    bundle, world, _ = _serving_fixture()
    reg = ModelRegistry(tmp_root)
    chaos.enable(
        ChaosPlan(seed=seed, rules={"registry.save": ChaosRule(rate=1.0, limit=1)})
    )
    try:
        reg.save_bundle("retina", bundle)  # v1: one artifact truncated
    finally:
        chaos.disable()
    try:
        reg.load_bundle("retina", 1, world=world)
        corruption_typed = False
    except RegistryCorruptError:
        corruption_typed = True
    reg.save_bundle("retina", bundle)  # v2: clean
    clean_loads = reg.load_bundle("retina", 2, world=world) is not None
    return {
        "corruption_detected_typed": corruption_typed,
        "clean_resave_loads": clean_loads,
    }


# ----------------------------------------------------------------- store leg
def _store_child(root: str) -> int:
    """Child mode: append unique events until killed, acking each durably.

    Each ack line is written *after* ``append`` returns and fsynced
    before the next append starts, so every line in ``acked.jsonl``
    names an event the log promised to keep.  Small segments force
    rollover under fire.
    """
    log = EventLog(os.path.join(root, "events"), segment_max_bytes=4096)
    fd = os.open(os.path.join(root, "acked.jsonl"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    i = log.last_seq
    while True:
        seq, digest, _ = log.append(
            RetweetEvent(tweet_id=i, user_id=i + 1, timestamp=float(i))
        )
        os.write(fd, (json.dumps({"seq": seq, "hash": digest}) + "\n").encode())
        os.fsync(fd)
        i += 1


def _store_leg(seed: int, tmp_root: str) -> dict:
    """SIGKILL an appender mid-stream, then prove no acked event was lost."""
    root = Path(tmp_root) / "store"
    root.mkdir()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    ack_path = root / "acked.jsonl"
    child = subprocess.Popen(
        [sys.executable, __file__, "--store-child", str(root)], env=env
    )
    deadline = time.monotonic() + 120
    killed_mid_stream = False
    while time.monotonic() < deadline:
        try:
            acks = ack_path.read_bytes().count(b"\n")
        except OSError:
            acks = 0
        if acks >= STORE_KILL_ACKS:
            os.kill(child.pid, signal.SIGKILL)
            killed_mid_stream = True
            break
        if child.poll() is not None:
            break
        time.sleep(0.005)
    child.wait(timeout=60)

    acked: list[dict] = []
    for line in ack_path.read_text().splitlines():
        try:
            acked.append(json.loads(line))
        except json.JSONDecodeError:
            break  # only the very last line can be torn (fsynced per line)
    log = EventLog(str(root / "events"), segment_max_bytes=4096)
    lost = []
    for rec in acked:
        try:
            stored = log.get(rec["seq"])
        except KeyError:
            lost.append(rec["seq"])
            continue
        if stored.hash != rec["hash"]:
            lost.append(rec["seq"])
    seqs = [s.seq for s in log.events(0)]
    contiguous = seqs == list(range(1, len(seqs) + 1))
    stats = log.stats()
    log.close()

    # Typed-failure sub-leg: both chaos points must fail cleanly and the
    # rolled-back log must keep accepting appends with contiguous seqs.
    chaos.enable(ChaosPlan(seed=seed, rules={
        "store.append": ChaosRule(at=(0,)),
        "store.fsync": ChaosRule(at=(0,)),
    }))
    typed = {"store.append": False, "store.fsync": False}
    try:
        clog = EventLog(str(root / "chaos-events"))
        try:  # call 0 of store.append fires before any bytes are written
            clog.append(RetweetEvent(tweet_id=1, user_id=2, timestamp=1.0))
        except StoreIOError:
            typed["store.append"] = True
        try:  # call 0 of store.fsync fires after the write; must roll back
            clog.append(RetweetEvent(tweet_id=1, user_id=2, timestamp=1.0))
        except StoreIOError:
            typed["store.fsync"] = True
        seq, _, deduped = clog.append(
            RetweetEvent(tweet_id=1, user_id=2, timestamp=1.0)
        )
        clog.close()
    finally:
        chaos.disable()
    reopened = EventLog(str(root / "chaos-events"))
    rolled_back_clean = (
        seq == 1 and not deduped
        and reopened.last_seq == 1
        and reopened.stats()["truncated_tail_bytes"] == 0
    )
    reopened.close()
    return {
        "killed_mid_stream": killed_mid_stream,
        "acked": len(acked),
        "recovered": stats["events"],
        "lost_acked": lost[:10],
        "n_lost_acked": len(lost),
        "truncated_tail_bytes": stats["truncated_tail_bytes"],
        "segments": stats["segments"],
        "contiguous_after_reopen": contiguous,
        "typed_errors": typed,
        "rolled_back_clean": rolled_back_clean,
    }


# --------------------------------------------------------------------- main
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="chaos schedule seed (default 1)")
    parser.add_argument("--requests-per-thread", type=int, default=120,
                        help="serving-leg requests per client thread")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="serving-leg client threads")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any soak gate fails")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI preset (implies --check)")
    parser.add_argument("--store-child", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)  # internal: the killed appender
    add_json_out(parser)
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests_per_thread = min(args.requests_per_thread, 50)
        args.check = True
    return args


def _run(args) -> dict:
    import tempfile

    obs_config.configure(enabled=True, sample_rate=0.0)
    chaos.disable()  # a REPRO_CHAOS env leak must not skew the baseline

    # Baseline scores before any fault runs (the bit-identical reference).
    engine, server = _serve()
    _, _, payloads = _serving_fixture()
    with server:
        host, port = server.address
        baseline = _replay_scores(host, port, payloads)

    serving = _serving_leg(args.seed, args.requests_per_thread, args.concurrency)
    raw = _raw_socket_leg()
    paged = _paged_leg(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        registry = _registry_leg(args.seed, tmp)
    with tempfile.TemporaryDirectory() as tmp:
        store = _store_leg(args.seed, tmp)

    # Chaos off, fresh server: the exact same scores must come back.
    engine, server = _serve()
    with server:
        host, port = server.address
        replay = _replay_scores(host, port, payloads)
    bit_identical = replay == baseline

    gates = {
        "serving_all_answered": (
            serving["answered"] == serving["attempted"]
            and serving["n_untyped"] == 0
        ),
        "serving_no_hangs": serving["hung_clients"] == 0,
        "serving_chaos_exercised": (
            serving["chaos_stats"].get("client.reset", {}).get("fires", 0) > 0
        ),
        "raw_socket_aborts_counted": raw["aborts_counted"],
        "server_alive_after_abuse": raw["server_alive_after"],
        "paged_no_silent_loss": paged["no_silent_loss"],
        "registry_corruption_typed": registry["corruption_detected_typed"],
        "registry_clean_resave_loads": registry["clean_resave_loads"],
        "store_no_acked_loss": (
            store["killed_mid_stream"]
            and store["n_lost_acked"] == 0
            and store["contiguous_after_reopen"]
        ),
        "store_chaos_typed": (
            all(store["typed_errors"].values()) and store["rolled_back_clean"]
        ),
        "bit_identical_chaos_off": bit_identical,
    }
    return {
        "seed": args.seed,
        "serving": serving,
        "raw_socket": raw,
        "paged": paged,
        "registry": registry,
        "store": store,
        "bit_identical": {"requests": REPLAY_N, "ok": bit_identical},
        "gates": gates,
        "all_gates_ok": all(gates.values()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.store_child:
        return _store_child(args.store_child)
    results = _run(args)
    report = {"benchmark": "chaos_soak", "results": results}
    emit_report(report, args.json_out)
    if args.check:
        failed = [name for name, ok in results["gates"].items() if not ok]
        if failed:
            print(f"FAIL: chaos soak gate(s) failed: {', '.join(failed)}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
