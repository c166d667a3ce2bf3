"""Live ingest == cold rebuild over randomized event streams, and its cost.

:class:`FeatureStore.apply_events` patches the counter scalars of built
history rows in place (retweet-count ratio, retweeted-tweet ratio,
follower count) and leaves every text block alone, because no ingested
event can enter the pre-t=0 text window.  Three guarantees pin that down:

- **Differential.** Seeded streams of tweet, retweet, follow and hashtag
  events — including tweets at exactly ``timestamp=0.0`` and the first
  retweet of a freshly ingested cascade — are applied in several batches
  the way the engine does (each item to the world as it is accepted, then
  the batch to the store).  After every batch, a dense and a paged store
  that were pre-warmed on every row and every BFS root must equal a store
  built cold over the same mutated world, surface by surface.
- **Cost.** Once rows are built, ingest plus a full read-back makes no
  Doc2Vec or tf-idf call.
- **Paged faults.** A patch whose block read fails persistently marks its
  rows unbuilt instead of raising; after the fault heals, the rebuilt
  rows equal a cold build.
"""

import pickle

import numpy as np
import pytest

from repro import chaos
from repro.chaos import ChaosPlan, ChaosRule
from repro.core.hategen.features import HateGenFeatureExtractor
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
from repro.text.doc2vec import Doc2Vec

CFG = SyntheticWorldConfig(scale=0.01, n_hashtags=4, n_users=32, n_news=100, seed=3)

N_SEEDS = 50
N_BATCHES = 3
BATCH_LEN = 12

#: Small pages so the paged store evicts, writes back and re-reads blocks.
PAGED_ENV = {
    "REPRO_FEATURE_STORAGE": "paged",
    "REPRO_FEATURE_PAGE_ROWS": "8",
    "REPRO_FEATURE_MAX_PAGES": "2",
}


class _MemoDoc2Vec:
    """A Doc2Vec whose ``transform`` is memoised by its exact arguments.

    With an int ``random_state``, ``Doc2Vec.transform`` is a pure function
    of its texts (see its docstring), so the memo changes no value.  It
    stops the differential's stores from re-inferring the same pre-t=0
    windows once per store per seed, which would dominate its run time.
    The cost test below uses the real model.
    """

    def __init__(self, model):
        self.model = model
        self.memo: dict = {}

    def transform(self, texts, *, random_state):
        key = (tuple(texts), random_state)
        if key not in self.memo:
            self.memo[key] = self.model.transform(texts, random_state=random_state)
        return self.memo[key].copy()


@pytest.fixture(scope="module")
def pristine():
    """(pickled world, text models): each test mutates its own copies."""
    world = HateDiffusionDataset.generate(CFG).world
    ext = HateGenFeatureExtractor(
        world, history_size=5, text_top_k=60, news_top_k=20,
        doc2vec_dim=8, doc2vec_epochs=2,
    ).fit(world.tweets[:50])
    models = {
        "text_vectorizer": ext.text_vectorizer_,
        "lexicon": ext.lexicon,
        "doc2vec": ext.doc2vec_,
        "history_size": ext.history_size,
        "doc2vec_dim": ext.doc2vec_dim,
    }
    return pickle.dumps(world), models


@pytest.fixture(autouse=True)
def _clean_chaos():
    chaos.disable()
    yield
    chaos.disable()


def _store(world, models, storage, monkeypatch) -> FeatureStore:
    if storage == "paged":
        for key, value in PAGED_ENV.items():
            monkeypatch.setenv(key, value)
    else:
        monkeypatch.setenv("REPRO_FEATURE_STORAGE", "dense")
    return FeatureStore(world, storage=storage, **models)


def _warm(store, users) -> None:
    """Build every history row and every root's BFS result."""
    store.ensure(users)
    for root in users:
        store.peer_block(root, users)


def _surfaces(store, users) -> dict:
    return {
        "history_rows": store.history_rows(users),
        "doc_vecs": np.stack([store.doc_vec(u) for u in users]),
        "peer_block": np.stack([store.peer_block(r, users) for r in users]),
        **{
            name: getattr(store, name).copy()
            for name in ("_rts_hate", "_rts_non", "_n_rt_hate", "_n_rt_non")
        },
    }


def _assert_same(live: dict, cold: dict, where: str) -> None:
    for name, want in cold.items():
        assert np.array_equal(live[name], want), f"{name} diverges ({where})"


class _Stream:
    """Seeded valid events, applied to the world one by one as accepted."""

    def __init__(self, world, seed: int):
        self.world = world
        self.rng = np.random.default_rng([seed, 20])
        self.users = sorted(world.users)
        self.texts = [t.text for t in world.tweets]
        self.themes = sorted(set(world.theme_of.values()))
        self.next_tid = max(t.tweet_id for t in world.tweets) + 1
        self.fresh: list[int] = []  # ingested roots, newest last
        self.seq = 0
        self.n_tags = 0

    def _user(self) -> int:
        return int(self.users[int(self.rng.integers(len(self.users)))])

    def _tweet(self, timestamp: float):
        tags = sorted(self.world.theme_of)
        ev = TweetEvent(
            tweet_id=self.next_tid,
            user_id=self._user(),
            hashtag=tags[int(self.rng.integers(len(tags)))],
            text=self.texts[int(self.rng.integers(len(self.texts)))],
            timestamp=timestamp,
            is_hate=bool(self.rng.integers(2)),
        )
        self.next_tid += 1
        self.fresh.append(ev.tweet_id)
        return ev

    def _draw(self):
        kind = self.rng.choice(["tweet", "retweet", "retweet", "follow", "hashtag"])
        if kind == "tweet":
            ts = 0.0 if self.rng.random() < 0.3 else float(self.rng.uniform(0.0, 200.0))
            return self._tweet(ts)
        if kind == "retweet":
            if self.fresh and self.rng.random() < 0.5:
                tid = self.fresh[-1]
            else:
                cascades = self.world.cascades
                tid = cascades[int(self.rng.integers(len(cascades)))].root.tweet_id
            return RetweetEvent(tweet_id=int(tid), user_id=self._user(),
                                timestamp=float(self.rng.uniform(0.0, 300.0)))
        if kind == "follow":
            return FollowEvent(followee=self._user(), follower=self._user())
        self.n_tags += 1
        theme = self.themes[int(self.rng.integers(len(self.themes)))]
        return HashtagEvent(tag=f"#gen{self.n_tags}", theme=theme)

    def _accept(self, ev, batch: list) -> None:
        if validate_event_for_world(self.world, ev) is not None:
            return
        self.seq += 1
        stored = StoredEvent(self.seq, event_hash(ev), ev)
        apply_events_to_world(self.world, [stored])
        batch.append(stored)

    def batch(self, n: int, *, opening: bool = False) -> list[StoredEvent]:
        out: list[StoredEvent] = []
        if opening:
            # A tweet at exactly t=0 and the first retweet of its cascade,
            # which bumps the root author's retweeted-tweet counter.
            root = self._tweet(0.0)
            self._accept(root, out)
            retweeter = next(u for u in self.users if u != root.user_id)
            self._accept(
                RetweetEvent(tweet_id=root.tweet_id, user_id=retweeter,
                             timestamp=1.0),
                out,
            )
            assert len(out) == 2
        while len(out) < n:
            self._accept(self._draw(), out)
        return out


@pytest.fixture(scope="module")
def memo_doc2vec(pristine):
    return _MemoDoc2Vec(pristine[1]["doc2vec"])


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_live_ingest_matches_cold_rebuild(pristine, memo_doc2vec, seed,
                                          monkeypatch):
    world0, models = pristine
    models = {**models, "doc2vec": memo_doc2vec}
    live_world = pickle.loads(world0)
    cold_world = pickle.loads(world0)
    users = sorted(live_world.users)
    # Two stores over one live world, as co-resident predictors share it.
    live = {
        storage: _store(live_world, models, storage, monkeypatch)
        for storage in ("dense", "paged")
    }
    for store in live.values():
        _warm(store, users)
    stream = _Stream(live_world, seed)
    try:
        for b in range(N_BATCHES):
            batch = stream.batch(BATCH_LEN, opening=b == 0)
            for store in live.values():
                store.apply_events(batch)
                # Ingest patched rows in place; nothing was marked unbuilt.
                assert store._built.count() == len(users)
            apply_events_to_world(cold_world, batch)
            cold = _store(cold_world, models, "dense", monkeypatch)
            want = _surfaces(cold, users)
            for storage, store in live.items():
                _assert_same(_surfaces(store, users), want,
                             f"seed {seed}, batch {b}, {storage}")
    finally:
        for store in live.values():
            store.close()


def _mixed_batch(world) -> list[StoredEvent]:
    stream = _Stream(world, seed=7)
    out = stream.batch(2, opening=True)
    users = stream.users
    events = [
        RetweetEvent(tweet_id=c.root.tweet_id, user_id=u, timestamp=5.0)
        for c, u in zip(world.cascades[:6], users[3:9])
    ] + [FollowEvent(followee=users[1], follower=users[4]),
         TweetEvent(tweet_id=stream.next_tid, user_id=users[2],
                    hashtag=sorted(world.theme_of)[0], text="a new post",
                    timestamp=3.0)]
    for ev in events:
        stream._accept(ev, out)
    kinds = {s.event.kind for s in out}
    assert kinds == {"tweet", "retweet", "follow"}
    return out


@pytest.mark.parametrize("storage", ["dense", "paged"])
def test_ingest_and_read_back_make_no_text_model_call(pristine, storage,
                                                      monkeypatch):
    world0, models = pristine
    world = pickle.loads(world0)
    users = sorted(world.users)
    store = _store(world, models, storage, monkeypatch)
    try:
        _warm(store, users)
        calls = {"Doc2Vec.transform": 0, "Doc2Vec.infer_vector": 0,
                 "text_vectorizer.transform": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Doc2Vec, "transform",
                            counting("Doc2Vec.transform", Doc2Vec.transform))
        monkeypatch.setattr(Doc2Vec, "infer_vector",
                            counting("Doc2Vec.infer_vector", Doc2Vec.infer_vector))
        vec = store.text_vectorizer
        monkeypatch.setattr(vec, "transform",
                            counting("text_vectorizer.transform", vec.transform))
        counts = store.apply_events(_mixed_batch(world))
        assert counts["history_row"] > 0
        store.history_rows(users)
        for u in users:
            store.doc_vec(u)
        assert calls == dict.fromkeys(calls, 0)
    finally:
        store.close()


def test_paged_read_fault_during_patch_falls_back_to_rebuild(pristine,
                                                             monkeypatch):
    world0, models = pristine
    live_world = pickle.loads(world0)
    cold_world = pickle.loads(world0)
    users = sorted(live_world.users)
    live = _store(live_world, models, "paged", monkeypatch)
    try:
        _warm(live, users)
        # Fill the LRU with the last blocks, so patching rows of block 0
        # must read the backing file.
        live.history_rows(users[-16:])
        victim = users[0]
        batch = []
        stream = _Stream(live_world, seed=0)
        for follower in users[1:4]:
            stream._accept(FollowEvent(followee=victim, follower=follower), batch)
        assert len(batch) == 3

        chaos.enable(ChaosPlan(seed=1, rules={"paged.read": ChaosRule(rate=1.0)}))
        counts = live.apply_events(batch)  # must not raise
        fired = chaos.stats()["paged.read"]["fires"]
        chaos.disable()
        assert fired >= 1
        assert counts["history_row"] == 1
        assert not live._built[victim]

        apply_events_to_world(cold_world, batch)
        cold = _store(cold_world, models, "dense", monkeypatch)
        _assert_same(_surfaces(live, users), _surfaces(cold, users),
                     "after a healed paged read fault")
        assert live._built.count() == len(users)
    finally:
        live.close()
