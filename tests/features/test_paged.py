"""Paged feature substrate: LRU paging correctness + paged-vs-dense parity.

Every value read out of a :class:`PagedMatrix` must be bit-identical to
a resident ndarray under any eviction schedule, and a ``storage="paged"``
:class:`FeatureStore` must serve exactly the dense store's bytes.
"""

import os

import numpy as np
import pytest

from repro.features.paged import PagedMatrix, ValidityBitmap
from repro.features.store import FeatureStore


class TestValidityBitmap:
    def test_scalar_set_get(self):
        bm = ValidityBitmap(20)
        assert not bm[13]
        bm[13] = True
        assert bm[13] and bm.count() == 1
        bm[13] = False
        assert not bm[13] and bm.count() == 0

    def test_array_indexing(self):
        bm = ValidityBitmap(100)
        rows = np.array([0, 7, 8, 63, 64, 99])
        bm[rows] = True
        assert bm.count() == len(rows)
        np.testing.assert_array_equal(bm[rows], np.ones(len(rows), dtype=bool))
        assert not bm[1] and not bm[98]

    def test_slice_clear(self):
        bm = ValidityBitmap(50)
        bm[np.arange(50)] = True
        assert bm.count() == 50
        bm[:] = False
        assert bm.count() == 0


class TestPagedMatrix:
    def test_round_trip_bit_exact_under_eviction(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal((100, 7))
        pm = PagedMatrix(100, 7, page_rows=8, max_pages=3)
        try:
            order = rng.permutation(100)
            for lo in range(0, 100, 10):
                rows = order[lo : lo + 10]
                pm.write_rows(rows, ref[rows])
            # 13 blocks through a 3-page budget: eviction + writeback ran.
            assert pm.stats["evictions"] > 0
            assert pm.stats["writebacks"] > 0
            assert pm.resident_pages <= 3
            got = pm.read_rows(np.arange(100))
            np.testing.assert_array_equal(got, ref)
        finally:
            pm.close()

    def test_evicted_block_refills_from_disk(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((64, 4))
        pm = PagedMatrix(64, 4, page_rows=8, max_pages=2)
        try:
            pm.write_rows(np.arange(8), ref[:8])  # block 0, dirty
            # Touch enough other blocks to evict (and write back) block 0.
            for lo in range(8, 64, 8):
                pm.write_rows(np.arange(lo, lo + 8), ref[lo : lo + 8])
            assert 0 not in pm._pages
            np.testing.assert_array_equal(pm.read_rows(np.arange(8)), ref[:8])
        finally:
            pm.close()

    def test_read_row_matches_read_rows(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal((30, 5))
        pm = PagedMatrix(30, 5, page_rows=4, max_pages=2)
        try:
            pm.write_rows(np.arange(30), ref)
            for r in (0, 13, 29):
                np.testing.assert_array_equal(pm.read_row(r), ref[r])
        finally:
            pm.close()

    def test_clear_zeroes_everything(self):
        pm = PagedMatrix(16, 3, page_rows=4, max_pages=2)
        try:
            pm.write_rows(np.arange(16), np.ones((16, 3)))
            pm.clear()
            np.testing.assert_array_equal(pm.read_rows(np.arange(16)), np.zeros((16, 3)))
        finally:
            pm.close()

    def test_close_removes_backing_file(self):
        pm = PagedMatrix(8, 2, page_rows=4, max_pages=2)
        path = pm.path
        assert os.path.exists(path)
        pm.close()
        assert not os.path.exists(path)


class TestPagedStoreParity:
    @pytest.fixture()
    def paged_store(self, fitted_extractor, features_world, monkeypatch):
        """A paged twin of the session dense store, page budget forced tiny
        so the parity reads cross eviction boundaries."""
        dense = fitted_extractor.store_
        monkeypatch.setenv("REPRO_FEATURE_PAGE_ROWS", "16")
        monkeypatch.setenv("REPRO_FEATURE_MAX_PAGES", "4")
        store = FeatureStore(
            features_world.world,
            text_vectorizer=dense.text_vectorizer,
            lexicon=dense.lexicon,
            doc2vec=dense.doc2vec,
            history_size=dense.history_size,
            doc2vec_dim=dense.doc2vec_dim,
            storage="paged",
        )
        # peer_block's prior-retweet column comes from the train split;
        # the twin must carry the same priors for byte parity.
        store.set_prior_retweets(fitted_extractor._retweeted_before)
        yield dense, store
        store.close()

    def test_history_rows_bit_exact(self, paged_store, features_world):
        dense, paged = paged_store
        uids = sorted(features_world.world.users)
        np.testing.assert_array_equal(
            paged.history_rows(uids), dense.history_rows(uids)
        )
        # The tiny budget means the full sweep really paged.
        assert paged.history.stats["evictions"] > 0

    def test_doc_vec_and_user_block_bit_exact(self, paged_store, features_world):
        dense, paged = paged_store
        rng = np.random.default_rng(3)
        uids = sorted(features_world.world.users)
        for uid in rng.choice(uids, size=20, replace=False):
            uid = int(uid)
            np.testing.assert_array_equal(paged.doc_vec(uid), dense.doc_vec(uid))
            a, b = paged.user_block(uid), dense.user_block(uid)
            np.testing.assert_array_equal(a["history"], b["history"])
            np.testing.assert_array_equal(a["doc_vec"], b["doc_vec"])

    def test_peer_block_bit_exact(self, paged_store, features_world):
        dense, paged = paged_store
        uids = sorted(features_world.world.users)
        roots = [c.root.user_id for c in features_world.world.cascades[:5]]
        for root in roots:
            np.testing.assert_array_equal(
                paged.peer_block(root, uids[:50]), dense.peer_block(root, uids[:50])
            )

    def test_invalidate_then_refill_bit_exact(self, paged_store, features_world):
        dense, paged = paged_store
        uids = sorted(features_world.world.users)[:40]
        first = paged.history_rows(uids).copy()
        paged.invalidate()
        np.testing.assert_array_equal(paged.history_rows(uids), first)
        np.testing.assert_array_equal(first, dense.history_rows(uids))
