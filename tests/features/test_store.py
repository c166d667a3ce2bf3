"""Unit tests for the columnar FeatureStore and block assembly."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features import assemble_rows
from repro.features.reference import _reference_user_block


class TestHistoryBlocks:
    def test_rows_match_seed_user_blocks(self, fitted_extractor, features_world):
        store = fitted_extractor.store_
        uids = sorted(features_world.world.users)[:25]
        rows = store.history_rows(uids)
        cache = {}
        for row, uid in zip(rows, uids):
            seed = _reference_user_block(fitted_extractor.base_, uid, cache)
            np.testing.assert_array_equal(row, seed["history"])
            np.testing.assert_array_equal(store.doc_vec(uid), seed["doc_vec"])

    def test_batch_ensure_equals_one_by_one(self, fitted_extractor):
        store = fitted_extractor.store_
        uids = list(range(10))
        batch = store.history_rows(uids).copy()
        store.invalidate()
        singles = np.stack([store.user_block(u)["history"] for u in uids])
        np.testing.assert_array_equal(batch, singles)

    def test_history_dim_consistent(self, fitted_extractor):
        store = fitted_extractor.store_
        assert store.history_rows([0]).shape == (1, store.history_dim)


class TestPriorRetweets:
    def test_csr_matches_training_counts(self, fitted_extractor, features_world):
        store = fitted_extractor.store_
        counts = fitted_extractor._retweeted_before
        uids = sorted(features_world.world.users)
        roots = sorted({ru for ru, _ in counts})[:10]
        for root in roots:
            got = store.prior_counts(root, uids)
            expected = np.array([float(counts.get((root, u), 0)) for u in uids])
            np.testing.assert_array_equal(got, expected)

    def test_root_without_priors_is_zero(self, fitted_extractor, features_world):
        store = fitted_extractor.store_
        counts = fitted_extractor._retweeted_before
        uids = sorted(features_world.world.users)
        quiet = next(u for u in uids if not any(ru == u for ru, _ in counts))
        assert store.prior_counts(quiet, uids[:20]).sum() == 0.0


def _python_prior_csr(counts, n):
    """The per-pair Python build the numpy one replaced: the oracle."""
    triples = sorted((int(ru), int(cu), int(c)) for (ru, cu), c in counts.items())
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols = np.empty(len(triples), dtype=np.int64)
    data = np.empty(len(triples), dtype=np.int64)
    for k, (ri, ci, cnt) in enumerate(triples):
        indptr[ri + 1] += 1
        cols[k] = ci
        data[k] = cnt
    return np.cumsum(indptr), cols, data


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_prior_csr_equals_the_python_build(fitted_extractor, data):
    store = copy.copy(fitted_extractor.store_)  # set_prior_retweets rebinds, never mutates
    n = store.n_users
    user = st.integers(0, n - 1)
    counts = data.draw(st.dictionaries(st.tuples(user, user), st.integers(1, 50), max_size=80))
    store.set_prior_retweets(counts)
    for got, want in zip(
        (store._prior_indptr, store._prior_cols, store._prior_data),
        _python_prior_csr(counts, n),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestPeerBlock:
    def test_matches_per_pair_seed_block(self, fitted_extractor, features_world):
        store = fitted_extractor.store_
        network = features_world.world.network
        counts = fitted_extractor._retweeted_before
        uids = sorted(features_world.world.users)
        for root in uids[:8]:
            block = store.peer_block(root, uids, cutoff=4)
            for u, (spl, prior) in zip(uids, block):
                assert spl == float(network.shortest_path_length(root, u, cutoff=4))
                assert prior == float(counts.get((root, u), 0))

    def test_bfs_cached_across_cascades_of_one_root(self, fitted_extractor):
        store = fitted_extractor.store_
        store._dist_arr_cache.clear()
        store.peer_block(0, [1, 2, 3], cutoff=4)
        store.peer_block(0, [4, 5], cutoff=4)
        # Worlds freeze their network, so peer_block runs the vectorised
        # array BFS: one cached distance array per (root, cutoff).
        assert list(store._dist_arr_cache) == [(0, 4)]


class TestTweetVecCache:
    def test_cached_inference_is_deterministic(self, fitted_extractor, features_world):
        store = fitted_extractor.store_
        tweet = features_world.world.tweets[0]
        first = store.tweet_vec(tweet)
        direct = fitted_extractor.base_.doc2vec_.infer_vector(
            tweet.text, random_state=0
        )
        np.testing.assert_array_equal(first, direct)
        assert store.tweet_vec(tweet) is first  # cache hit returns same array


class TestAssembleRows:
    def test_assembles_full_and_selected_rows(self):
        cand = np.arange(12.0).reshape(4, 3)
        shared = np.array([100.0, 200.0])
        full = assemble_rows(cand, shared)
        assert full.shape == (4, 5)
        np.testing.assert_array_equal(full[:, :3], cand)
        assert np.all(full[:, 3] == 100.0) and np.all(full[:, 4] == 200.0)
        sel = assemble_rows(cand, shared, np.array([2, 0]))
        np.testing.assert_array_equal(sel, full[[2, 0]])

    def test_returns_fresh_array(self):
        cand = np.zeros((2, 2))
        shared = np.ones(2)
        out = assemble_rows(cand, shared)
        out[:] = 7.0
        assert cand.sum() == 0.0 and shared.sum() == 2.0


class TestHateGenMatrixParity:
    def test_matrix_equals_per_sample_vectors(self, fitted_extractor, features_world):
        """The vectorised matrix() rows equal per-sample sample_vector calls."""
        base = fitted_extractor.base_
        tweets = features_world.world.tweets[:20]
        X, y = base.matrix(tweets)
        for i, t in enumerate(tweets):
            np.testing.assert_array_equal(
                X[i], base.sample_vector(t.user_id, t.hashtag, t.timestamp)
            )
        assert y.tolist() == [int(t.is_hate) for t in tweets]

    def test_sample_vector_reads_the_store_once(self, fitted_extractor, features_world):
        """One query is one store row read: hits + misses grow by exactly 1."""
        base = fitted_extractor.base_
        t = features_world.world.tweets[3]
        for _ in range(2):  # first call may build the row, second is a hit
            before = base.store_.hits + base.store_.misses
            vec = base.sample_vector(t.user_id, t.hashtag, t.timestamp)
            assert base.store_.hits + base.store_.misses == before + 1
        np.testing.assert_array_equal(vec, base.matrix([t])[0][0])
