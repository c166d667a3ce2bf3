"""Streaming world generator: determinism, lazy views, cascade sampling."""

import numpy as np
import pytest

from repro.data import WorldStream, WorldStreamConfig
from repro.data.schema import Cascade, Tweet, User


@pytest.fixture(scope="module")
def world():
    cfg = WorldStreamConfig(
        n_users=3000, n_communities=8, chunk_users=1000, seed=5
    )
    return WorldStream(cfg).build()


class TestBuild:
    def test_network_covers_every_user(self, world):
        assert world.network.n_users == 3000
        assert world.network.n_follows > 3000

    def test_deterministic_across_builds(self, world):
        twin = WorldStream(world.config).build()
        assert twin.network.n_follows == world.network.n_follows
        for u in (0, 999, 2999):
            assert twin.network.followers(u) == world.network.followers(u)
        np.testing.assert_array_equal(twin.communities, world.communities)
        np.testing.assert_array_equal(twin.activity_rate, world.activity_rate)
        np.testing.assert_array_equal(
            twin.base_hate_propensity, world.base_hate_propensity
        )

    def test_chunk_size_keeps_the_distribution(self):
        # Fast mode freezes preferential-attachment weights per chunk, so
        # a different chunk_users gives a *different but like* graph —
        # same scale of edge count, no invariant violations.
        cfg_multi = WorldStreamConfig(n_users=2000, chunk_users=300, seed=2)
        cfg_single = WorldStreamConfig(n_users=2000, chunk_users=2000, seed=2)
        a = WorldStream(cfg_multi).build()
        b = WorldStream(cfg_single).build()
        ratio = a.network.n_follows / b.network.n_follows
        assert 0.8 < ratio < 1.25

    def test_columnar_arrays_sized(self, world):
        n = 3000
        assert len(world.user_ids) == n
        assert world.activity_rate.shape == (n,)
        assert world.account_age_days.shape == (n,)
        assert world.base_hate_propensity.shape == (n,)
        assert np.all(world.base_hate_propensity >= 0)
        assert np.all(world.base_hate_propensity <= 1)


class TestLazyUsers:
    def test_len_iter_contains(self, world):
        assert len(world.users) == 3000
        assert 0 in world.users and 2999 in world.users
        assert 3000 not in world.users
        assert next(iter(world.users)) == 0

    def test_materialised_user_matches_columns(self, world):
        u = world.users[42]
        assert isinstance(u, User)
        assert u.user_id == 42
        assert u.community == int(world.communities[42])
        assert u.activity_rate == float(world.activity_rate[42])

    def test_identical_after_lru_eviction(self):
        cfg = WorldStreamConfig(n_users=200, seed=3, user_cache=4, history_cache=4)
        w = WorldStream(cfg).build()
        first = w.users[7]
        for uid in range(20, 40):  # blow through the 4-entry cache
            w.users[uid]
        assert w.users[7] == first

    def test_missing_uid(self, world):
        with pytest.raises(KeyError):
            world.users[10**9]
        assert world.users.get(10**9) is None


class TestLazyHistories:
    def test_synthesised_history_shape(self, world):
        items = world.history[11]
        assert len(items) >= 3
        assert all(isinstance(tw, Tweet) and tw.user_id == 11 for tw in items)
        # Chronological, unique ids in the disjoint history id space.
        times = [tw.timestamp for tw in items]
        assert times == sorted(times)
        ids = [tw.tweet_id for tw in items]
        assert len(set(ids)) == len(ids) and min(ids) >= 10_000_000

    def test_identical_after_lru_eviction(self):
        cfg = WorldStreamConfig(n_users=200, seed=3, user_cache=4, history_cache=4)
        w = WorldStream(cfg).build()
        first = [(tw.tweet_id, tw.text, tw.timestamp) for tw in w.history[9]]
        for uid in range(50, 70):
            w.history.get(uid)
        again = [(tw.tweet_id, tw.text, tw.timestamp) for tw in w.history[9]]
        assert again == first

    def test_out_of_range_returns_default(self, world):
        assert world.history.get(10**9) is None


class TestIterCascades:
    def test_yields_valid_cascades(self, world):
        cascades = list(world.iter_cascades(10, mean_size=6.0, seed=4))
        assert len(cascades) == 10
        for c in cascades:
            assert isinstance(c, Cascade)
            assert 0 <= c.root.user_id < 3000
            assert len(c.retweets) >= 1
            participants = {c.root.user_id}
            for rt in c.retweets:
                assert 0 <= rt.user_id < 3000
                assert rt.user_id not in participants  # no double retweet
                participants.add(rt.user_id)
                assert rt.timestamp >= c.root.timestamp

    def test_deterministic_per_seed(self, world):
        def sig(seed):
            return [
                (c.root.user_id, c.root.tweet_id, len(c.retweets))
                for c in world.iter_cascades(8, seed=seed)
            ]

        assert sig(1) == sig(1)
        assert sig(1) != sig(2)

    def test_roots_prefer_popular_users(self, world):
        counts = world.network.follower_counts()
        roots = [c.root.user_id for c in world.iter_cascades(60, seed=6)]
        mean_root_deg = float(np.mean([counts[r] for r in roots]))
        assert mean_root_deg > float(counts.mean())


class TestFeatureStoreSurface:
    def test_store_runs_on_streamed_world(self, world):
        # The streamed world exposes the attribute surface FeatureStore
        # consumes; a paged store over it must build and serve rows.
        from repro.features.store import FeatureStore
        from repro.text.doc2vec import Doc2Vec
        from repro.text.lexicon import HateLexicon
        from repro.text.tfidf import TfidfVectorizer

        texts = [tw.text for uid in range(30) for tw in world.history[uid]]
        vec = TfidfVectorizer(max_features=32).fit(texts)
        d2v = Doc2Vec(vector_size=8, epochs=1, random_state=0).fit(texts[:200])
        store = FeatureStore(
            world,
            text_vectorizer=vec,
            lexicon=HateLexicon(),
            doc2vec=d2v,
            history_size=30,
            doc2vec_dim=8,
            storage="paged",
        )
        try:
            rows = store.history_rows(list(range(40)))
            assert rows.shape == (40, store.history_dim)
            assert np.isfinite(rows).all()
            roots = [c.root.user_id for c in world.iter_cascades(2, seed=7)]
            pb = store.peer_block(roots[0], list(range(40)))
            assert pb.shape[0] == 40 and np.isfinite(pb).all()
        finally:
            store.close()
