"""Columnar per-user feature store shared by the RETINA and hate-gen paths.

The paper's per-candidate features decompose into blocks that depend only on
the user (activity history H_{i,t}, mean Doc2Vec vector), only on the
(root, candidate) pair (peer distance, prior retweets), or only on the
cascade (endogenous/tweet blocks).  The seed pipeline recomputed or
re-looked-up these one candidate at a time; :class:`FeatureStore` keeps them
as dense matrices and CSR arrays keyed by user id so whole candidate lists
are a fancy-index away:

- ``history`` — (n_users, d_hist) dense matrix of per-user history blocks,
  filled lazily in *batches* (one tf-idf transform per ``ensure`` call);
- ``doc_vecs`` — (n_users, d2v) mean Doc2Vec vectors for the topic feature;
- prior-retweet counts — CSR over (root user, candidate) pairs, looked up
  for a whole candidate list with one ``searchsorted``;
- peer distances — one single-source BFS per root user
  (:meth:`InformationNetwork.distances_from`), cached across cascades that
  share a root.

Every value is bit-identical to the seed per-candidate computation: batch
tf-idf rows equal single-document rows, BFS layers equal per-pair BFS hop
counts, and scalar features are computed with the same expressions in the
same order.
"""

from __future__ import annotations

import os

import numpy as np

from repro.features.paged import PagedIOError, PagedMatrix, ValidityBitmap
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics

__all__ = ["FeatureStore"]

_log = obs_log.get_logger("repro.features.store")

_DEGRADED_READS = obs_metrics.REGISTRY.counter(
    "repro_store_degraded_reads_total",
    "Paged feature reads served by recomputing rows after block I/O failure.",
    labels=("matrix",),
)

_INVALIDATIONS = obs_metrics.REGISTRY.counter(
    "repro_store_invalidations_total",
    "Feature-store structures surgically invalidated by ingested events.",
    labels=("structure",),
)

#: Scalars appended to each user's history block, in seed order: hate ratio,
#: retweet-count ratio, retweeted-tweet ratio, follower count, account age
#: (years), number of distinct recent hashtags.
N_HISTORY_SCALARS = 6

#: Byte budget for cached frozen-path BFS distance arrays (int16 per user).
_DIST_ARRAY_CACHE_BYTES = 64 << 20


class _IdentityIndex:
    """user id -> store row for the contiguous ``0..n-1`` id space.

    World-scale stores would otherwise pay a million-entry Python dict just
    to map ``uid`` to ``uid``.  Implements the mapping surface the store
    uses (``[]``, ``get``, ``in``).
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = int(n)

    def __getitem__(self, u: int) -> int:
        i = int(u)
        if 0 <= i < self.n:
            return i
        raise KeyError(u)

    def get(self, u, default=None):
        i = int(u)
        return i if 0 <= i < self.n else default

    def __contains__(self, u) -> bool:
        i = int(u)
        return 0 <= i < self.n


class FeatureStore:
    """Dense/CSR per-user feature arrays over one synthetic world.

    Parameters
    ----------
    world:
        The :class:`~repro.data.synthetic.SyntheticWorld` to index.
    text_vectorizer / lexicon / doc2vec:
        The fitted text models of the owning extractor; user blocks are
        computed with these, so the store is built at ``fit``/``from_state``
        time.
    history_size:
        Recent-tweet window of H_{i,t} (paper: 30).
    doc2vec_dim:
        Dimensionality of the mean user Doc2Vec vector.
    storage:
        ``"dense"`` (default) keeps resident ``(n_users, d)`` matrices —
        the historical layout.  ``"paged"`` backs both matrices with
        memory-mapped :class:`~repro.features.paged.PagedMatrix` files and
        a bounded LRU of row blocks, so resident memory follows the page
        budget (``REPRO_FEATURE_PAGE_ROWS`` × ``REPRO_FEATURE_MAX_PAGES``)
        instead of world size.  Every value read back is bit-identical
        between modes.  ``None`` resolves through
        ``REPRO_FEATURE_STORAGE``, then ``"dense"``.
    """

    def __init__(
        self,
        world,
        *,
        text_vectorizer,
        lexicon,
        doc2vec,
        history_size: int,
        doc2vec_dim: int,
        storage: str | None = None,
    ):
        self.world = world
        self.text_vectorizer = text_vectorizer
        self.lexicon = lexicon
        self.doc2vec = doc2vec
        self.history_size = history_size
        self.doc2vec_dim = doc2vec_dim
        storage = storage or os.environ.get("REPRO_FEATURE_STORAGE", "dense")
        if storage not in ("dense", "paged"):
            raise ValueError(f"unknown feature storage {storage!r}")
        self.storage = storage

        user_ids = getattr(world.users, "user_ids", None)
        if user_ids is not None:
            self._uids = np.asarray(user_ids, dtype=np.int64)
        else:
            self._uids = np.array(sorted(world.users), dtype=np.int64)
        n = len(self._uids)
        if n and self._uids[0] == 0 and self._uids[-1] == n - 1:
            self._index = _IdentityIndex(n)
        else:
            self._index = {int(u): i for i, u in enumerate(self._uids)}
        d_text = len(text_vectorizer.vocabulary_)
        self._d_hist = d_text + len(lexicon) + N_HISTORY_SCALARS
        if storage == "paged":
            page_rows = int(os.environ.get("REPRO_FEATURE_PAGE_ROWS", "256"))
            max_pages = int(os.environ.get("REPRO_FEATURE_MAX_PAGES", "64"))
            self.history = PagedMatrix(
                n, self._d_hist, page_rows=page_rows, max_pages=max_pages
            )
            self.doc_vecs = PagedMatrix(
                n, doc2vec_dim, page_rows=page_rows, max_pages=max_pages
            )
        else:
            self.history = np.zeros((n, self._d_hist))
            self.doc_vecs = np.zeros((n, doc2vec_dim))
        self._built = ValidityBitmap(n)

        # One pass over the world: in-window tweets grouped per user (order
        # preserved, mirroring ``user_history_before``) and retweet-reception
        # sums per root user (the seed recomputed these per user per block).
        in_window: dict[int, list] = {}
        for tw in world.tweets:
            in_window.setdefault(tw.user_id, []).append(tw)
        self._in_window = in_window
        self._rts_hate = np.zeros(n, dtype=np.int64)
        self._rts_non = np.zeros(n, dtype=np.int64)
        self._n_rt_hate = np.zeros(n, dtype=np.int64)
        self._n_rt_non = np.zeros(n, dtype=np.int64)
        for c in world.cascades:
            i = self._index.get(c.root.user_id)
            if i is None:
                continue
            if c.root.is_hate:
                self._rts_hate[i] += c.size
                self._n_rt_hate[i] += 1 if c.size > 0 else 0
            else:
                self._rts_non[i] += c.size
                self._n_rt_non[i] += 1 if c.size > 0 else 0

        # Prior-retweet CSR (set by the RETINA extractor from its train split).
        self._prior_indptr: np.ndarray | None = None
        self._prior_cols: np.ndarray | None = None
        self._prior_data: np.ndarray | None = None

        # Single-source BFS results keyed by (root, cutoff).  FIFO-capped:
        # the per-root dicts are the store's only large variable-size
        # entries, and a long-running server must not grow without bound.
        self._dist_cache: dict[tuple[int, int], dict[int, int]] = {}
        self._dist_cache_cap = 4096
        # Frozen-network counterpart: int16 per-row distance arrays, capped
        # by bytes (a per-root dict at 10^6 users would be ~100x larger).
        self._dist_arr_cache: dict[tuple[int, int], np.ndarray] = {}
        self._dist_arr_cache_cap = max(1, _DIST_ARRAY_CACHE_BYTES // max(1, 2 * n))
        # Doc2Vec tweet embeddings keyed by tweet text (inference is
        # deterministic at random_state=0 and depends only on the text, so
        # rebuilds and serving share it and edited copies can never alias).
        self._tweet_vec_cache: dict[str, np.ndarray] = {}
        #: Reads served by recomputation after persistent paged I/O failure.
        self.degraded_reads = 0
        #: Highest event-log sequence number already reflected here.  A
        #: store built over an already-replayed world starts at that
        #: world's watermark — its init pass saw those events' effects.
        self._applied_seq = int(getattr(world, "_store_watermark", 0))

    # ---------------------------------------------------------------- sizes
    @property
    def n_users(self) -> int:
        return len(self._uids)

    @property
    def history_dim(self) -> int:
        """Width of one user history block."""
        return self._d_hist

    # ------------------------------------------------------- history blocks
    def _recent(self, uid: int) -> list:
        """The user's ``history_size`` most recent tweets before t=0.

        Mirrors ``SyntheticWorld.user_history_before(uid, 0.0, k)`` exactly
        (pool order, stable sort) but reads the pre-grouped in-window index
        instead of scanning every world tweet per user.
        """
        pool = list(self.world.history.get(uid, []))
        pool.extend(self._in_window.get(uid, []))
        pool = [tw for tw in pool if tw.timestamp < 0.0]
        pool.sort(key=lambda tw: tw.timestamp)
        return pool[-self.history_size :]

    def _user_blocks(self, missing: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """(history rows, mean Doc2Vec rows) for a list of unbuilt users.

        The tf-idf transform of the joined history texts — the widest part
        of the block — runs once over the whole list; each row of a batch
        transform is bit-identical to the single-document transform the
        seed path ran, and every other block is a pure function of one
        user's history, so any partition of ``missing`` produces identical
        rows.
        """
        recents = {uid: self._recent(uid) for uid in missing}
        joined = [" ".join(t.text for t in recents[uid]) for uid in missing]
        tfidf = self.text_vectorizer.transform(joined)
        hist = np.empty((len(missing), self._d_hist))
        docv = np.zeros((len(missing), self.doc2vec_dim))
        world = self.world
        for k, uid in enumerate(missing):
            i = self._index[uid]
            recent = recents[uid]
            texts = [t.text for t in recent]
            n_hate = sum(t.is_hate for t in recent)
            n_non = len(recent) - n_hate
            hate_ratio = n_hate / (n_non + 1.0)
            lex_vec = self.lexicon.vector_over(texts)
            rt_count_ratio = int(self._rts_hate[i]) / (int(self._rts_non[i]) + 1.0)
            rt_tweet_ratio = int(self._n_rt_hate[i]) / (int(self._n_rt_non[i]) + 1.0)
            user = world.users[uid]
            scalars = np.array(
                [
                    hate_ratio,
                    rt_count_ratio,
                    rt_tweet_ratio,
                    float(world.network.follower_count(uid)),
                    user.account_age_days / 365.0,
                    float(len({t.hashtag for t in recent})),
                ]
            )
            hist[k] = np.concatenate([tfidf[k], lex_vec, scalars])
            if texts:
                # Batched inference kernel; bit-identical to per-document
                # infer_vector calls with the same fixed seed.
                doc_vecs = self.doc2vec.transform(texts[-5:], random_state=0)
                docv[k] = np.mean(doc_vecs, axis=0)
        return hist, docv

    def ensure(self, user_ids) -> None:
        """Compute history blocks for any not-yet-built users, in one batch."""
        missing = [
            int(u) for u in dict.fromkeys(user_ids) if not self._built[self._index[u]]
        ]
        if not missing:
            return
        hist, docv = self._user_blocks(missing)
        idx = np.fromiter(
            (self._index[u] for u in missing), dtype=np.int64, count=len(missing)
        )
        if self.storage == "paged":
            self.history.write_rows(idx, hist)
            self.doc_vecs.write_rows(idx, docv)
        else:
            self.history[idx] = hist
            self.doc_vecs[idx] = docv
        self._built[idx] = True

    def _rebuild_rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recompute (history, doc-vec) rows for store indices ``idx``.

        ``_user_blocks`` is a pure function of one user's world state, so
        the recomputed rows are bit-identical to what the paged file held —
        this is the degraded-read path when block I/O fails persistently.
        """
        uids = [int(self._uids[i]) for i in idx]
        return self._user_blocks(uids)

    def _degraded_read(self, matrix, which: str, idx: np.ndarray) -> np.ndarray:
        """Serve a failed paged read by rebuilding the rows from the world."""
        _DEGRADED_READS.inc(matrix=which)
        self.degraded_reads += 1
        _log.warning("store.degraded_read", matrix=which, n_rows=int(len(idx)))
        hist, docv = self._rebuild_rows(idx)
        values = hist if which == "history" else docv
        try:  # heal the backing store when the fault was transient
            matrix.write_rows(idx, values)
        except PagedIOError:
            pass
        return values

    def history_rows(self, user_ids) -> np.ndarray:
        """(n, d_hist) history blocks for a user list (built on demand).

        Paged storage: a block read that fails after retries is served by
        recomputing the rows through the builder path (bit-identical) —
        the request degrades to slower, never to an error.
        """
        self.ensure(user_ids)
        idx = np.fromiter(
            (self._index[u] for u in user_ids), dtype=np.int64, count=len(user_ids)
        )
        if self.storage == "paged":
            try:
                return self.history.read_rows(idx)
            except PagedIOError:
                return self._degraded_read(self.history, "history", idx)
        return self.history[idx]

    def user_block(self, user_id: int) -> dict:
        """Seed-shaped ``{"history": ..., "doc_vec": ...}`` for one user."""
        self.ensure([user_id])
        i = self._index[user_id]
        if self.storage == "paged":
            idx = np.array([i], dtype=np.int64)
            try:
                history = self.history.read_row(i)
            except PagedIOError:
                history = self._degraded_read(self.history, "history", idx)[0]
            try:
                doc_vec = self.doc_vecs.read_row(i)
            except PagedIOError:
                doc_vec = self._degraded_read(self.doc_vecs, "doc_vecs", idx)[0]
            return {"history": history, "doc_vec": doc_vec}
        return {"history": self.history[i], "doc_vec": self.doc_vecs[i]}

    def doc_vec(self, user_id: int) -> np.ndarray:
        """Mean Doc2Vec vector of one user's recent history."""
        self.ensure([user_id])
        if self.storage == "paged":
            i = self._index[user_id]
            try:
                return self.doc_vecs.read_row(i)
            except PagedIOError:
                idx = np.array([i], dtype=np.int64)
                return self._degraded_read(self.doc_vecs, "doc_vecs", idx)[0]
        return self.doc_vecs[self._index[user_id]]

    def tweet_vec(self, tweet) -> np.ndarray:
        """Cached deterministic Doc2Vec embedding of one tweet's text."""
        vec = self._tweet_vec_cache.get(tweet.text)
        if vec is None:
            vec = self.doc2vec.infer_vector(tweet.text, random_state=0)
            self._tweet_vec_cache[tweet.text] = vec
        return vec

    # ------------------------------------------------------- prior retweets
    def set_prior_retweets(self, counts: dict[tuple[int, int], int]) -> None:
        """Index (root user, candidate) -> prior-retweet count as CSR arrays.

        ``counts`` comes from the RETINA extractor's train split; rows are
        root users, columns candidates, both in store index space.
        """
        triples = sorted(
            (self._index[ru], self._index[cu], int(n))
            for (ru, cu), n in counts.items()
            if ru in self._index and cu in self._index
        )
        n = self.n_users
        indptr = np.zeros(n + 1, dtype=np.int64)
        cols = np.empty(len(triples), dtype=np.int64)
        data = np.empty(len(triples), dtype=np.int64)
        for k, (ri, ci, cnt) in enumerate(triples):
            indptr[ri + 1] += 1
            cols[k] = ci
            data[k] = cnt
        self._prior_indptr = np.cumsum(indptr)
        self._prior_cols = cols
        self._prior_data = data

    def prior_counts(self, root_user: int, user_ids) -> np.ndarray:
        """(n,) prior-retweet counts of each candidate toward ``root_user``."""
        out = np.zeros(len(user_ids))
        if self._prior_indptr is None:
            return out
        ri = self._index.get(root_user)
        if ri is None:
            return out
        lo, hi = self._prior_indptr[ri], self._prior_indptr[ri + 1]
        if hi == lo:
            return out
        cols = self._prior_cols[lo:hi]
        data = self._prior_data[lo:hi]
        tgt = np.fromiter(
            (self._index.get(u, -1) for u in user_ids),
            dtype=np.int64,
            count=len(user_ids),
        )
        pos = np.searchsorted(cols, tgt)
        pos_c = np.minimum(pos, len(cols) - 1)
        found = (cols[pos_c] == tgt) & (pos < len(cols))
        out[found] = data[pos_c[found]]
        return out

    # -------------------------------------------------------- peer features
    def distances(self, source: int, cutoff: int = 4) -> dict[int, int]:
        """Cached single-source BFS distances from ``source``."""
        key = (source, cutoff)
        cached = self._dist_cache.get(key)
        if cached is None:
            cached = self.world.network.distances_from(source, cutoff)
            while len(self._dist_cache) >= self._dist_cache_cap:
                self._dist_cache.pop(next(iter(self._dist_cache)))
            self._dist_cache[key] = cached
        return cached

    def distance_array(self, source: int, cutoff: int = 4) -> np.ndarray:
        """Cached (n,) int16 BFS distances per CSR row (frozen networks).

        ``cutoff + 1`` marks unreached rows — value-identical to
        ``distances(source, cutoff).get(uid, cutoff + 1)`` for every user,
        at ~2 bytes/user instead of a Python dict entry.
        """
        key = (source, cutoff)
        cached = self._dist_arr_cache.get(key)
        if cached is None:
            cached = self.world.network.distances_array_from(source, cutoff)
            while len(self._dist_arr_cache) >= self._dist_arr_cache_cap:
                self._dist_arr_cache.pop(next(iter(self._dist_arr_cache)))
            self._dist_arr_cache[key] = cached
        return cached

    def peer_block(self, root_user: int, user_ids, cutoff: int = 4) -> np.ndarray:
        """(n, 2) peer block [shortest path, prior retweets] for a user list.

        One BFS from the root covers every candidate; the seed path ran one
        BFS per (root, candidate) pair.  Frozen networks use the vectorised
        array BFS and a row gather; unfrozen ones the per-root dict — the
        two produce identical values.
        """
        far = cutoff + 1
        network = self.world.network
        if getattr(network, "is_frozen", False):
            arr = self.distance_array(root_user, cutoff)
            rows = network.row_index(user_ids)
            spl = np.where(rows >= 0, arr[np.maximum(rows, 0)], far).astype(np.float64)
        else:
            dist = self.distances(root_user, cutoff)
            spl = np.fromiter(
                (dist.get(u, far) for u in user_ids),
                dtype=np.float64,
                count=len(user_ids),
            )
        return np.stack([spl, self.prior_counts(root_user, user_ids)], axis=1)

    # ----------------------------------------------------------- live ingest
    def _invalidate_distances(self, followee: int, follower: int) -> int:
        """Drop cached BFS results a new ``followee -> follower`` edge stales.

        A cached distance map/array from source ``s`` changes only when the
        new edge shortens the follower's distance: ``d_s(followee) + 1 <
        d_s(follower)`` (absent/unreached = ``cutoff + 1``).  Everything
        else keeps serving — distances elsewhere cannot shrink through an
        edge that doesn't improve its own endpoint.
        """
        dropped = 0
        stale_keys = [
            key
            for key, dmap in self._dist_cache.items()
            if dmap.get(followee, key[1] + 1) + 1 < dmap.get(follower, key[1] + 1)
        ]
        for key in stale_keys:
            del self._dist_cache[key]
        dropped += len(stale_keys)
        if self._dist_arr_cache:
            network = self.world.network
            erow = network._row(followee) if getattr(network, "is_frozen", False) else -1
            frow = network._row(follower) if erow >= 0 else -1
            if erow < 0 or frow < 0:
                dropped += len(self._dist_arr_cache)
                self._dist_arr_cache.clear()
            else:
                stale = [
                    key
                    for key, arr in self._dist_arr_cache.items()
                    if int(arr[erow]) + 1 < int(arr[frow])
                ]
                for key in stale:
                    del self._dist_arr_cache[key]
                dropped += len(stale)
        return dropped

    def apply_events(self, stored_events) -> dict[str, int]:
        """Surgically fold already-world-applied events into the store.

        Call *after* :func:`repro.store.apply_events_to_world` mutated this
        store's world.  Guarded by a per-store watermark, so overlapping
        batches (and stores sharing one world) are safe.  Rebuilding a
        dirtied history row later reads the updated counters/world, so the
        row is bit-identical to a cold build over the mutated world.

        Returns per-structure invalidation counts (also exported on the
        ``repro_store_invalidations_total`` counter).
        """
        counts = {
            "history_row": 0,
            "retweet_counts": 0,
            "distance_cache": 0,
            "in_window": 0,
        }
        events = [s for s in stored_events if s.seq > self._applied_seq]
        if not events:
            return counts
        cascade_index = getattr(self.world, "_store_cascade_index", None) or {}
        # Pre-scan so each retweet knows its cascade's size *before* it:
        # by the time we run, the world already holds the whole batch.
        batch_rts: dict[int, int] = {}
        for s in events:
            if s.event.kind == "retweet":
                batch_rts[s.event.tweet_id] = batch_rts.get(s.event.tweet_id, 0) + 1
        seen_rts: dict[int, int] = {}
        dirty_rows: set[int] = set()
        for s in events:
            ev = s.event
            if ev.kind == "tweet":
                cascade = cascade_index.get(ev.tweet_id)
                if cascade is not None:
                    bucket = self._in_window.setdefault(ev.user_id, [])
                    if all(t is not cascade.root for t in bucket):
                        bucket.append(cascade.root)
                        counts["in_window"] += 1
                i = self._index.get(ev.user_id)
                if i is not None:
                    dirty_rows.add(int(i))
            elif ev.kind == "retweet":
                cascade = cascade_index.get(ev.tweet_id)
                if cascade is None:
                    continue
                seen = seen_rts.get(ev.tweet_id, 0)
                pre_size = cascade.size - batch_rts[ev.tweet_id] + seen
                seen_rts[ev.tweet_id] = seen + 1
                i = self._index.get(cascade.root.user_id)
                if i is None:
                    continue
                if cascade.root.is_hate:
                    self._rts_hate[i] += 1
                    if pre_size == 0:
                        self._n_rt_hate[i] += 1
                else:
                    self._rts_non[i] += 1
                    if pre_size == 0:
                        self._n_rt_non[i] += 1
                counts["retweet_counts"] += 1
                dirty_rows.add(int(i))
            elif ev.kind == "follow":
                # The followee's history row embeds their follower count.
                i = self._index.get(ev.followee)
                if i is not None:
                    dirty_rows.add(int(i))
                counts["distance_cache"] += self._invalidate_distances(
                    ev.followee, ev.follower
                )
            # hashtag events touch no store structure: catalog membership
            # is pinned at the extractor layer.
        for i in dirty_rows:
            self._built[i] = False
        counts["history_row"] = len(dirty_rows)
        self._applied_seq = events[-1].seq
        for structure, n in counts.items():
            if n:
                _INVALIDATIONS.inc(n, structure=structure)
        return counts

    # ------------------------------------------------------------ lifecycle
    def invalidate(self) -> None:
        """Drop every lazily built block and BFS result (for benchmarks)."""
        self._built[:] = False
        if self.storage == "paged":
            self.history.clear()
            self.doc_vecs.clear()
        else:
            self.history[:] = 0.0
            self.doc_vecs[:] = 0.0
        self._dist_cache.clear()
        self._dist_arr_cache.clear()
        self._tweet_vec_cache.clear()

    def close(self) -> None:
        """Release paged backing files (no-op for dense storage)."""
        if self.storage == "paged":
            self.history.close()
            self.doc_vecs.close()
