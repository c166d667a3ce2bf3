"""Golden guarantee: incremental invalidation == cold rebuild, bit-exact.

Two identical worlds are generated from one config.  The *live* side
fits a RETINA extractor, pre-warms every lazy cache (history rows, BFS
distance maps), then folds a batch of ingest events in through
``apply_events_to_world`` + ``RetinaFeatureExtractor.apply_events``.
The *cold* side applies the same stored events to the twin world and
builds a fresh :class:`FeatureStore` over the mutated world using the
SAME fitted text models (the vectorizer/lexicon/doc2vec are functions
of the train corpus only, which the twins share bit-for-bit).

Every feature surface the serving path reads — history rows, peer
blocks (BFS distance + prior-retweet CSR), retweet-reception counters —
must match exactly.  Pre-warming first is the point: a stale-cache bug
would leave the live side serving pre-event values.

Runs for dense storage and ``REPRO_FEATURE_STORAGE=paged``.
"""

import numpy as np
import pytest

from repro.core.retina import RetinaFeatureExtractor
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.features import FeatureStore
from repro.store import (
    FollowEvent,
    HashtagEvent,
    RetweetEvent,
    StoredEvent,
    TweetEvent,
    apply_events_to_world,
    event_hash,
    validate_event_for_world,
)

CFG = SyntheticWorldConfig(scale=0.01, n_hashtags=5, n_users=100, n_news=250, seed=9)

NEW_TWEET_ID = 777001


def _world():
    return HateDiffusionDataset.generate(CFG).world


def _event_batch(world):
    """A batch touching every invalidation surface, valid for ``world``."""
    cascade = next(c for c in world.cascades if c.retweets)
    present = {r.user_id for r in cascade.retweets} | {cascade.root.user_id}
    users = sorted(world.users)
    newbie = next(u for u in users if u not in present)
    author = next(u for u in users if u != newbie)
    retweeter = next(u for u in users if u not in (newbie, author))
    follower = next(
        u for u in users
        if u != newbie and not world.network.follows(u, newbie)
    )
    events = [
        HashtagEvent(tag="#live", theme="politics"),
        TweetEvent(tweet_id=NEW_TWEET_ID, user_id=author, hashtag="#live",
                   text="breaking news on the riots", timestamp=5.0),
        RetweetEvent(tweet_id=cascade.root.tweet_id, user_id=newbie,
                     timestamp=cascade.root.timestamp + 1.0),
        RetweetEvent(tweet_id=NEW_TWEET_ID, user_id=retweeter, timestamp=6.0),
        FollowEvent(followee=newbie, follower=follower),
    ]
    stored = [
        StoredEvent(i + 1, event_hash(ev), ev) for i, ev in enumerate(events)
    ]
    probes = [cascade.root.user_id, author, newbie]
    return stored, probes


def _assert_parity(live_store, cold_store, users, probes):
    assert np.array_equal(
        live_store.history_rows(users), cold_store.history_rows(users)
    ), "history rows diverge from a cold rebuild"
    for root in probes:
        assert np.array_equal(
            live_store.peer_block(root, users),
            cold_store.peer_block(root, users),
        ), f"peer block for root {root} diverges"
    for name in ("_rts_hate", "_rts_non", "_n_rt_hate", "_n_rt_non"):
        assert np.array_equal(
            getattr(live_store, name), getattr(cold_store, name)
        ), f"{name} counters diverge"


def _run_parity():
    live_world = _world()
    cold_world = _world()
    users = sorted(live_world.users)
    stored, probes = _event_batch(live_world)
    # The hashtag and the existing-cascade retweet validate against the
    # pristine world; the rest depend on in-batch predecessors and are
    # covered by test_apply.
    for s in (stored[0], stored[2]):
        assert validate_event_for_world(live_world, s.event) is None

    ext = RetinaFeatureExtractor(
        live_world, history_size=10, news_doc2vec_dim=8
    ).fit(live_world.cascades)
    live = ext.store_
    # Pre-warm every lazy surface so stale caches would be caught.
    live.ensure(users)
    warm_hist = live.history_rows(users).copy()
    warm_peer = {p: live.peer_block(p, users).copy() for p in probes}

    applied = apply_events_to_world(live_world, stored)
    assert len(applied) == len(stored)
    counts = ext.apply_events(stored)
    assert counts["retweet_counts"] == 2
    assert counts["history_row"] >= 1

    # Cold side: pre-mutation train counts + the batch's retweets, a
    # fresh store over the mutated twin with the same text models.
    prior = {}
    for c in cold_world.cascades:
        for r in c.retweets:
            key = (c.root.user_id, r.user_id)
            prior[key] = prior.get(key, 0) + 1
    assert len(apply_events_to_world(cold_world, stored)) == len(stored)
    index = cold_world.cascade_by_root
    for s in stored:
        if s.event.kind == "retweet":
            key = (index[s.event.tweet_id].root.user_id, s.event.user_id)
            prior[key] = prior.get(key, 0) + 1
    base = ext.base_
    cold = FeatureStore(
        cold_world,
        text_vectorizer=base.text_vectorizer_,
        lexicon=base.lexicon,
        doc2vec=base.doc2vec_,
        history_size=base.history_size,
        doc2vec_dim=base.doc2vec_dim,
    )
    cold.set_prior_retweets(prior)

    _assert_parity(live, cold, users, probes)

    # The batch genuinely moved something (the test isn't vacuous) ...
    changed = [p for p in probes
               if not np.array_equal(warm_peer[p], live.peer_block(p, users))]
    assert changed, "event batch changed no peer block"
    assert not np.array_equal(warm_hist, live.history_rows(users))
    cold.close()
    live.close()


def test_parity_dense():
    _run_parity()


def test_parity_paged(monkeypatch):
    monkeypatch.setenv("REPRO_FEATURE_STORAGE", "paged")
    _run_parity()
