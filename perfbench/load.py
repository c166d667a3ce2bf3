"""Workload inputs made from the seed, the two load loops, and output checks.

The seed picks cascades, candidate users and events; the server only
ever sees the requests generated here.  Events are generated against a
copy of the serving world so every one of them is valid in order:
retweets by users who have not retweeted that cascade yet, spread over
all cascades; one new tweet in every 16 events (dated on an existing
cascade's day, so it also invalidates that day's cascade contexts); and
one follow every 512 events, which clears the feature cache.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from wire import Conn, Failed, encode

CANDIDATES = 8
INGEST_BATCH = 32
TWEET_EVERY = 16
FOLLOW_EVERY = 16


def read_pool(world, seed: int, n: int | None = None) -> list[dict]:
    """Retweeter queries of ``CANDIDATES`` random users each.

    Cascades are dealt from a seeded permutation, so each is used at most
    once (``n`` = None: exactly once).  A query's cost depends on its
    cascade, and drawing cascades with replacement made the mean cost of
    a pool, and with it every read metric, depend on the seed.
    """
    rng = np.random.default_rng([seed, 1])
    users = sorted(world.users)
    cascades = [world.cascades[i] for i in rng.permutation(len(world.cascades))]
    pool = []
    for cascade in cascades[:n]:
        picked = rng.choice(len(users), size=CANDIDATES, replace=False)
        pool.append({"cascade_id": int(cascade.root.tweet_id),
                     "user_ids": [int(users[i]) for i in picked]})
    return pool


def event_batches(world, seed: int, n_batches: int) -> list[list[dict]]:
    """``n_batches`` batches of events, each valid after the ones before."""
    rng = np.random.default_rng([seed, 2])
    users = sorted(world.users)
    tags = [spec.tag for spec in world.catalog]
    texts = [t.text for t in world.tweets[:500]]
    roots = [(c.root.tweet_id, c.root.timestamp) for c in world.cascades]
    retweeted = {c.root.tweet_id: {rt.user_id for rt in c.retweets} | {c.root.user_id}
                 for c in world.cascades}
    followed: set[tuple[int, int]] = set()
    next_tid = max(t.tweet_id for t in world.tweets) + 1
    batches = []
    for b in range(n_batches):
        batch = []
        for j in range(INGEST_BATCH):
            if j == 0 and b % FOLLOW_EVERY == FOLLOW_EVERY - 1:
                while True:
                    a, f = (int(users[i]) for i in rng.choice(len(users), 2, replace=False))
                    if (a, f) not in followed and not world.network.follows(f, a):
                        break
                followed.add((a, f))
                batch.append({"kind": "follow", "followee": a, "follower": f})
            elif j % TWEET_EVERY == TWEET_EVERY - 1:
                author = int(users[int(rng.integers(len(users)))])
                ts = roots[int(rng.integers(len(roots)))][1]
                batch.append({"kind": "tweet", "tweet_id": next_tid, "user_id": author,
                              "hashtag": tags[int(rng.integers(len(tags)))],
                              "text": texts[int(rng.integers(len(texts)))],
                              "timestamp": float(ts)})
                roots.append((next_tid, ts))
                retweeted[next_tid] = {author}
                next_tid += 1
            else:
                while True:
                    tid, ts = roots[int(rng.integers(len(roots)))]
                    user = int(users[int(rng.integers(len(users)))])
                    if user not in retweeted[tid]:
                        break
                retweeted[tid].add(user)
                batch.append({"kind": "retweet", "tweet_id": int(tid), "user_id": user,
                              "timestamp": float(ts) + float(rng.uniform(0.1, 48.0))})
        batches.append(batch)
    return batches


# ------------------------------------------------------------------ loops
# Both loops append ``(due, sent, end, index, body)`` per operation; on a
# failed operation ``end`` is None and ``body`` the error.  ``snap`` is
# ``(time, list)``: when the loop first passes ``time`` it takes one
# ``/v1/metrics`` snapshot on a connection it holds, so cache counters can be
# read at the start of the measured window without a third connection.


def closed(conn: Conn, requests: list[bytes], offset: int, stop_at: float, out: list,
           snap=None) -> None:
    """Closed loop: the next request leaves when the previous reply is in."""
    i = offset
    while (t0 := time.perf_counter()) < stop_at:
        if snap is not None and t0 >= snap[0]:
            snap[1].append(conn.get_json("/v1/metrics"))
            snap = None
            continue
        k = i % len(requests)
        try:
            body = conn.roundtrip(requests[k])
            out.append((t0, t0, time.perf_counter(), k, body))
        except Failed as exc:
            out.append((t0, t0, None, k, exc))
        i += 1


def ticks(write_conn: Conn, read_conn: Conn, writes: list[bytes], reads: list[bytes],
          rate: float, reads_per_tick: int, start_at: float, stop_at: float,
          write_out: list, read_out: list, snap=None) -> None:
    """Ingest ticks: write ``i`` is due at ``start_at + i / rate``.

    A write is sent on ``write_conn`` at its due time or, when the tick
    before ran late, as soon as that tick ends; its latency runs from the
    due time.  Once it is acked, ``reads_per_tick`` reads go out back to
    back on ``read_conn``, each timed from when it is sent.  Reads and
    writes never overlap, so every run sees the same sequence of
    invalidations and cache misses, and a read's cost does not depend on
    whether an ingest batch happened to be in flight beside it.
    """
    i = j = 0
    while (due := start_at + i / rate) < stop_at:
        if (wait := due - time.perf_counter()) > 0:
            time.sleep(wait)
        if snap is not None and due >= snap[0]:
            snap[1].append(read_conn.get_json("/v1/metrics"))
            snap = None
        sent = time.perf_counter()
        try:
            body = write_conn.roundtrip(writes[i])
            write_out.append((due, sent, time.perf_counter(), i, body))
        except Failed as exc:
            write_out.append((due, sent, None, i, exc))
        for _ in range(reads_per_tick):
            k = j % len(reads)
            sent = time.perf_counter()
            try:
                body = read_conn.roundtrip(reads[k])
                read_out.append((sent, sent, time.perf_counter(), k, body))
            except Failed as exc:
                read_out.append((sent, sent, None, k, exc))
            j += 1
        i += 1


def on_conns(port: int, n: int, loop, *args, **kwargs) -> None:
    """Run one loop on ``n`` fresh connections, closing them afterwards."""
    conns = []
    try:
        for _ in range(n):
            conns.append(Conn(port))
        loop(*conns, *args, **kwargs)
    finally:
        for conn in conns:
            conn.close()


def run_threads(*targets) -> None:
    """Run ``(args, kwargs)`` pairs through :func:`on_conns`, one thread each."""
    threads = [threading.Thread(target=on_conns, args=a, kwargs=k) for a, k in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ----------------------------------------------------------------- checks
def check_read(payload: dict, reply: dict) -> str | None:
    """Why a predict reply is wrong, or None."""
    if reply.get("cascade_id") != payload["cascade_id"]:
        return "wrong cascade"
    scores = reply.get("scores", {})
    if sorted(scores) != sorted(str(u) for u in payload["user_ids"]):
        return "not every requested user was scored"
    if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores.values()):
        return "score outside [0, 1]"
    ranked = [s for _, s in reply.get("ranking", [])]
    if len(ranked) != len(scores) or any(a < b for a, b in zip(ranked, ranked[1:])):
        return "ranking not sorted"
    return None


def check_ingest(batch: list[dict], reply: dict, last_seq: int) -> tuple[str | None, int]:
    """Why an ingest ack is wrong (or None), and the batch's last seq."""
    results = reply.get("results", [])
    if reply.get("accepted") != len(batch) or len(results) != len(batch):
        return f"accepted {reply.get('accepted')} of {len(batch)}", last_seq
    for item in results:
        if "error" in item or item.get("deduped"):
            return f"item not accepted: {item}", last_seq
        if item["seq"] <= last_seq:
            return "seqs not strictly increasing", last_seq
        last_seq = item["seq"]
    return None, last_seq


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def encode_reads(pool: list[dict]) -> list[bytes]:
    return [encode("POST", "/v1/predict/retweeters", p) for p in pool]


def encode_ingest(batches: list[list[dict]]) -> list[bytes]:
    return [encode("POST", "/v1/ingest", {"events": b}) for b in batches]
