"""Golden parity: the columnar pipeline reproduces the seed path bit-exactly.

The reference implementation (`repro.features.reference`) is the seed
per-candidate algorithm frozen verbatim — per-pair BFS, lazy per-user
blocks, single-document tf-idf per cascade — and shares nothing with the
:class:`FeatureStore`.  Every comparison below is ``np.array_equal``:
bit-identical, not approximately equal.
"""

import numpy as np
import pytest

from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.features import assemble_rows, build_samples_reference
from repro.store import (
    FollowEvent,
    RetweetEvent,
    StoredEvent,
    apply_events_to_world,
    event_hash,
    validate_event_for_world,
)

FIELDS = ("user_features", "labels", "tweet_vec", "news_vecs", "news_tfidf")


@pytest.fixture(scope="module")
def cascade_subset(features_world):
    train, test = features_world.cascade_split(random_state=0)
    return (train + test)[:30]


class TestGoldenParity:
    def test_static_mode_bit_exact(self, fitted_extractor, cascade_subset):
        columnar = fitted_extractor.build_samples(cascade_subset, random_state=0)
        reference = build_samples_reference(
            fitted_extractor, cascade_subset, random_state=0
        )
        for a, b in zip(columnar, reference):
            assert a.candidate_set.users == b.candidate_set.users
            for f in FIELDS:
                np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
            assert a.interval_labels is None and b.interval_labels is None

    def test_dynamic_mode_bit_exact(self, fitted_extractor, cascade_subset):
        edges = RetinaTrainer.default_interval_edges()
        columnar = fitted_extractor.build_samples(
            cascade_subset, interval_edges_hours=edges, random_state=0
        )
        reference = build_samples_reference(
            fitted_extractor, cascade_subset, interval_edges_hours=edges,
            random_state=0,
        )
        for a, b in zip(columnar, reference):
            for f in FIELDS + ("interval_labels",):
                np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    def test_block_structure_assembles_to_dense(self, fitted_extractor, cascade_subset):
        """rows(idx) slices match the materialised dense matrix."""
        s = fitted_extractor.build_samples(cascade_subset[:1], random_state=0)[0]
        dense = s.user_features
        assert dense.shape == (len(s.labels), fitted_extractor.user_feature_dim)
        idx = np.array([0, len(s.labels) - 1, 1])
        np.testing.assert_array_equal(s.rows(idx), dense[idx])
        # The stored blocks really are smaller than the dense matrix.
        d_cand = s.cand_features.shape[1]
        d_shared = s.shared_features.shape[0]
        assert d_cand + d_shared == dense.shape[1]
        assert d_shared > 0

    def test_store_rebuild_after_invalidate_bit_exact(
        self, fitted_extractor, cascade_subset
    ):
        first = fitted_extractor.build_samples(cascade_subset[:5], random_state=0)
        fitted_extractor.store_.invalidate()
        second = fitted_extractor.build_samples(cascade_subset[:5], random_state=0)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.user_features, b.user_features)


class TestSharedHistoryBlock:
    def test_samples_of_one_call_share_one_history_matrix(
        self, fitted_extractor, cascade_subset
    ):
        samples = fitted_extractor.build_samples(cascade_subset, random_state=0)
        hist = samples[0].hist
        assert all(s.hist is hist for s in samples)
        distinct = {u for s in samples for u in s.candidate_set.users}
        assert hist.shape == (len(distinct), fitted_extractor.store_.history_dim)
        again = fitted_extractor.build_samples(cascade_subset[:2], random_state=0)
        assert again[0].hist is not hist  # one matrix per call

    def test_rows_equal_candidate_block_and_shared(
        self, fitted_extractor, cascade_subset
    ):
        """rows(idx) == [candidate_block | shared], the serving layout, bit for bit."""
        rng = np.random.default_rng(3)
        for s in fitted_extractor.build_samples(cascade_subset[:8], random_state=0):
            users = s.candidate_set.users
            cand = fitted_extractor.candidate_block(s.candidate_set.cascade, users)
            dense = assemble_rows(cand, s.shared_features)
            idx = rng.permutation(len(users))[: len(users) // 2 + 1]
            np.testing.assert_array_equal(s.rows(idx), dense[idx])
            np.testing.assert_array_equal(s.rows(), dense)
            np.testing.assert_array_equal(s.cand_features, cand)

    def test_sample_keeps_its_rows_across_an_ingest(self):
        """A built sample holds a copy: a later ingest cannot change its rows."""
        world = HateDiffusionDataset.generate(
            SyntheticWorldConfig(scale=0.01, n_hashtags=5, n_users=100, n_news=250, seed=9)
        ).world
        ext = RetinaFeatureExtractor(world, history_size=10, news_doc2vec_dim=8).fit(
            world.cascades
        )
        cascade = next(c for c in world.cascades if c.retweets)
        sample = ext.build_sample(cascade, random_state=0)
        users = sample.candidate_set.users
        before = sample.rows().copy()
        # A new follower for one candidate moves its history row (follower
        # count); a retweet moves the root user's reception counters.
        followee = users[0]
        follower = next(
            u for u in sorted(world.users)
            if u != followee and not world.network.follows(u, followee)
        )
        retweeter = next(
            u for u in sorted(world.users)
            if u not in {r.user_id for r in cascade.retweets} | {cascade.root.user_id}
        )
        events = [
            FollowEvent(followee=followee, follower=follower),
            RetweetEvent(tweet_id=cascade.root.tweet_id, user_id=retweeter,
                         timestamp=cascade.root.timestamp + 1.0),
        ]
        for ev in events:
            assert validate_event_for_world(world, ev) is None
        stored = [StoredEvent(i + 1, event_hash(ev), ev) for i, ev in enumerate(events)]
        assert len(apply_events_to_world(world, stored)) == len(stored)
        ext.apply_events(stored)

        np.testing.assert_array_equal(sample.rows(), before)
        live = assemble_rows(ext.candidate_block(cascade, users), sample.shared_features)
        hist_cols = slice(2, 2 + sample.hist.shape[1])
        assert not np.array_equal(live[:, hist_cols], before[:, hist_cols]), (
            "the ingest changed no history row"
        )
        ext.store_.close()


class TestServedScoreParity:
    def test_served_scores_match_seed_features(self, fitted_extractor, cascade_subset):
        """Scores through serving.engine equal the model run on seed features."""
        from repro.serving import RetinaBundle, RetweeterPredictor

        ext = fitted_extractor
        model = RETINA(
            user_dim=ext.user_feature_dim,
            tweet_dim=ext.news_doc2vec_dim,
            news_dim=ext.news_doc2vec_dim,
            hdim=16,
            mode="static",
            random_state=0,
        )
        predictor = RetweeterPredictor(
            RetinaBundle(model=model, extractor=ext, world_config=ext.world.config)
        )
        reference = build_samples_reference(ext, cascade_subset[:3], random_state=0)
        for ref in reference:
            cascade = ref.candidate_set.cascade
            users = ref.candidate_set.users
            result = predictor.predict_batch(
                [{"cascade_id": cascade.root.tweet_id, "user_ids": users}]
            )[0]
            served = np.array([result["scores"][str(u)] for u in users])
            direct = model.predict_proba(
                ref.user_features, ref.tweet_vec, ref.news_vecs
            )
            np.testing.assert_array_equal(served, direct)

    def test_trainer_predictions_use_lazy_assembly(
        self, fitted_extractor, cascade_subset
    ):
        """predict_proba_blocks equals predict_proba on the dense matrix."""
        ext = fitted_extractor
        model = RETINA(
            user_dim=ext.user_feature_dim,
            tweet_dim=ext.news_doc2vec_dim,
            news_dim=ext.news_doc2vec_dim,
            hdim=16,
            mode="static",
            random_state=1,
        )
        s = ext.build_samples(cascade_subset[:1], random_state=0)[0]
        lazy = model.predict_proba_blocks(
            s.cand_features, s.shared_features, s.tweet_vec, s.news_vecs
        )
        dense = model.predict_proba(s.user_features, s.tweet_vec, s.news_vecs)
        np.testing.assert_array_equal(lazy, dense)
