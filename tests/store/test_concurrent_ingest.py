"""Reads beside a streaming ingest == a serial replay at an acked watermark.

Reader threads query cascades through ``engine.submit`` while a writer
thread streams ingest batches through ``engine.submit_ingest``.  Both
run inline under the engine lock, each ingest batch alone, so every
read must equal, bit for bit, a fresh predictor that replayed the log up
to one batch boundary: at or after the last ack the reader saw before
submitting, and at or before the first ack after its reply.  A read
submitted after an ack therefore reflects that ack.

The engine serves one request per batch (``max_batch_size=1``): packing
several cascades into one forward can move a score by an ulp (BLAS row
blocking), which would hide nothing here but break bit equality with
the one-request reference.  Runs for dense storage and
``REPRO_FEATURE_STORAGE=paged`` with pages small enough to evict.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.retina import RETINA, RetinaFeatureExtractor
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.serving import InferenceEngine, RetinaBundle
from repro.serving.engine import RetweeterPredictor
from repro.store import (
    EventLog,
    StoredEvent,
    apply_events_to_world,
    event_from_wire,
    event_hash,
    validate_event_for_world,
)

CFG = SyntheticWorldConfig(scale=0.01, n_hashtags=4, n_users=40, n_news=120, seed=5)

N_BATCHES = 6
BATCH_LEN = 4
N_READERS = 2

PAGED_ENV = {
    "REPRO_FEATURE_STORAGE": "paged",
    "REPRO_FEATURE_PAGE_ROWS": "4",
    "REPRO_FEATURE_MAX_PAGES": "2",
}


@pytest.fixture(scope="module")
def fitted():
    """(pickled world, extractor state, model) shared by every predictor."""
    world = HateDiffusionDataset.generate(CFG).world
    frozen = pickle.dumps(world)
    ext = RetinaFeatureExtractor(
        world, history_size=5, tweet_top_k=60, news_doc2vec_dim=8, random_state=0
    ).fit(world.cascades)
    model = RETINA(
        user_dim=ext.user_feature_dim, tweet_dim=8, news_dim=8, hdim=16,
        mode="static", random_state=0,
    )
    model.eval()
    return frozen, ext.to_state(), model


def _predictor(fitted) -> RetweeterPredictor:
    frozen, state, model = fitted
    world = pickle.loads(frozen)
    extractor = RetinaFeatureExtractor.from_state(world, state)
    return RetweeterPredictor(
        RetinaBundle(model=model, extractor=extractor, world_config=CFG)
    )


def _event_batches(world, seed: int) -> list[list[dict]]:
    """Valid wire batches, drawn against (and applied to) ``world``."""
    rng = np.random.default_rng([seed, 22])
    users = sorted(world.users)
    tags = sorted(world.theme_of)
    next_tid = max(t.tweet_id for t in world.tweets) + 1
    fresh: list[int] = []
    seq = 0
    batches = []
    for b in range(N_BATCHES):
        batch: list[dict] = []
        while len(batch) < BATCH_LEN:
            kind = rng.choice(["tweet", "retweet", "retweet", "follow", "hashtag"])
            user = int(users[int(rng.integers(len(users)))])
            if kind == "tweet":
                wire = {"kind": "tweet", "tweet_id": next_tid, "user_id": user,
                        "hashtag": tags[int(rng.integers(len(tags)))],
                        "text": "breaking news on the riots",
                        "timestamp": float(rng.uniform(0.0, 200.0)),
                        "is_hate": bool(rng.integers(2))}
            elif kind == "retweet":
                if fresh and rng.random() < 0.5:
                    tid = fresh[-1]
                else:
                    tid = world.cascades[int(rng.integers(len(world.cascades)))].root.tweet_id
                wire = {"kind": "retweet", "tweet_id": int(tid), "user_id": user,
                        "timestamp": float(rng.uniform(0.0, 300.0))}
            elif kind == "follow":
                wire = {"kind": "follow", "followee": user,
                        "follower": int(users[int(rng.integers(len(users)))])}
            else:
                wire = {"kind": "hashtag", "tag": f"#s{seed}b{b}n{len(batch)}",
                        "theme": world.theme_of[tags[0]]}
            event = event_from_wire(wire)
            if validate_event_for_world(world, event) is not None:
                continue
            seq += 1
            apply_events_to_world(world, [StoredEvent(seq, event_hash(event), event)])
            if kind == "tweet":
                fresh.append(next_tid)
                next_tid += 1
            batch.append(wire)
        batches.append(batch)
    return batches


@pytest.mark.parametrize("storage", ["dense", "paged"])
@pytest.mark.parametrize("seed", range(3))
def test_reads_equal_a_serial_replay_at_an_acked_watermark(
    fitted, storage, seed, tmp_path, monkeypatch
):
    env = PAGED_ENV if storage == "paged" else {"REPRO_FEATURE_STORAGE": "dense"}
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    live = _predictor(fitted)
    world = live.world
    batches = _event_batches(pickle.loads(fitted[0]), seed)
    new_roots = [w["tweet_id"] for batch in batches for w in batch if w["kind"] == "tweet"]
    old_roots = [c.root.tweet_id for c in world.cascades if c.retweets][:4]
    users = sorted(world.users)
    probes = [users[i] for i in range(0, len(users), 5)]

    engine = InferenceEngine({"retweeters": live}, max_batch_size=1)
    log = EventLog(str(tmp_path / "events"), fsync=False)
    engine.attach_store(log)
    acks: list[int] = []  # log.last_seq after each acked batch
    reads: list[tuple[dict, int, int, dict]] = []
    done = threading.Event()
    failures: list[BaseException] = []

    def writer():
        try:
            for batch in batches:
                reply = engine.submit_ingest(batch).result(timeout=60)
                assert reply["accepted"] == len(batch), reply
                acks.append(reply["last_seq"])
                time.sleep(0.002)
        except BaseException as exc:  # re-raised below
            failures.append(exc)
        finally:
            done.set()

    def reader(r: int):
        rng = np.random.default_rng([seed, r])
        try:
            for _ in range(400):
                if done.is_set() and len(reads) > 40:
                    return
                roots = old_roots + new_roots[: len(acks) + 2]
                payload = {"cascade_id": int(roots[int(rng.integers(len(roots)))]),
                           "user_ids": probes}
                before = len(acks)
                result = engine.submit("retweeters", payload).result(timeout=60)
                reads.append((payload, before, len(acks), result))
        except BaseException as exc:  # re-raised below
            failures.append(exc)

    with engine:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(r,)) for r in range(N_READERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    log.close()
    live.extractor.store_.close()
    if failures:
        raise failures[0]
    assert len(acks) == N_BATCHES
    assert any(0 < before < N_BATCHES for _, before, _, _ in reads), "no read overlapped"

    # The serial reference: a cold predictor per batch boundary, fed the
    # log up to it in one replay, on dense storage.
    monkeypatch.setenv("REPRO_FEATURE_STORAGE", "dense")
    with EventLog(str(tmp_path / "events"), fsync=False) as replayed:
        stored = replayed.events(0)
    watermarks = [0] + acks
    refs: dict[int, RetweeterPredictor] = {}
    answers: dict[tuple, dict] = {}

    def reference(k: int, payload: dict) -> dict:
        key = (k, payload["cascade_id"])
        if key not in answers:
            if k not in refs:
                refs[k] = _predictor(fitted)
                refs[k].apply_events(stored[: watermarks[k]])
            answers[key] = refs[k].predict_batch([payload])[0]
        return answers[key]

    for payload, before, after, result in reads:
        window = range(before, min(after + 1, N_BATCHES) + 1)
        assert any(reference(k, payload) == result for k in window), (
            f"read of cascade {payload['cascade_id']} between acks {before} and "
            f"{after} matches no serial replay in that window"
        )
    for ref in refs.values():
        ref.extractor.store_.close()
