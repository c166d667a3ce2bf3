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
  (:meth:`InformationNetwork.distances_array_from`), cached across cascades
  that share a root.

The store is also the serving path's only cache of candidate features:
``hits``/``misses`` count requested rows that were already built and rows
built on demand, and :meth:`stats` reports them for ``/v1/metrics``.

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

#: Byte budget for cached BFS distance arrays (int16 per user).
_DIST_ARRAY_CACHE_BYTES = 64 << 20


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

        # User ids are the rows 0..n-1, as in the world's network.
        self._n = n = len(world.users)
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
            i = c.root.user_id
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

        # Single-source BFS results keyed by (root, cutoff): int16 per-row
        # distance arrays, FIFO-capped by bytes so a long-running server
        # does not grow without bound.
        self._dist_arr_cache: dict[tuple[int, int], np.ndarray] = {}
        self._dist_arr_cache_cap = max(1, _DIST_ARRAY_CACHE_BYTES // max(1, 2 * n))
        # Doc2Vec tweet embeddings keyed by tweet text (inference is
        # deterministic at random_state=0 and depends only on the text, so
        # rebuilds and serving share it and edited copies can never alias).
        self._tweet_vec_cache: dict[str, np.ndarray] = {}
        #: Requested rows that were already built / rows built on demand.
        self.hits = 0
        self.misses = 0
        #: Reads served by recomputation after persistent paged I/O failure.
        self.degraded_reads = 0

    # ---------------------------------------------------------------- sizes
    @property
    def n_users(self) -> int:
        return self._n

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
        # Ingested tweets never enter: validate_event_for_world admits t >= 0 only.
        pool = [tw for tw in pool if tw.timestamp < 0.0]
        pool.sort(key=lambda tw: tw.timestamp)
        return pool[-self.history_size :]

    def _user_blocks(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(history rows, mean Doc2Vec rows) for an array of store rows.

        The tf-idf transform of the joined history texts — the widest part
        of the block — runs once over the whole list; each row of a batch
        transform is bit-identical to the single-document transform the
        seed path ran, and every other block is a pure function of one
        user's history, so any partition of ``rows`` produces identical
        rows.  It is also the degraded-read path when paged block I/O
        fails persistently: the recomputed rows equal what the file held.
        """
        uids = rows.tolist()
        recents = [self._recent(uid) for uid in uids]
        joined = [" ".join(t.text for t in recent) for recent in recents]
        tfidf = self.text_vectorizer.transform(joined)
        hist = np.empty((len(uids), self._d_hist))
        docv = np.zeros((len(uids), self.doc2vec_dim))
        world = self.world
        for k, (uid, recent) in enumerate(zip(uids, recents)):
            texts = [t.text for t in recent]
            n_hate = sum(t.is_hate for t in recent)
            n_non = len(recent) - n_hate
            hate_ratio = n_hate / (n_non + 1.0)
            lex_vec = self.lexicon.vector_over(texts)
            user = world.users[uid]
            scalars = np.array(
                [
                    hate_ratio,
                    *self._counter_scalars(uid),
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

    def _counter_scalars(self, i: int) -> tuple[float, float, float]:
        """The history scalars live ingest can move, in block order.

        Retweet-count ratio, retweeted-tweet ratio and follower count: the
        only parts of a history row that read state an ingested event
        changes.  ``_user_blocks`` and ``_patch_counters`` both call this,
        so a patched row is bit-identical to a rebuilt one.
        """
        return (
            int(self._rts_hate[i]) / (int(self._rts_non[i]) + 1.0),
            int(self._n_rt_hate[i]) / (int(self._n_rt_non[i]) + 1.0),
            float(self.world.network.follower_count(i)),
        )

    def _rows_of(self, user_ids) -> np.ndarray:
        """(n,) store rows of a user list; -1 marks users the store lacks."""
        idx = np.asarray(user_ids, dtype=np.int64)
        return np.where((idx >= 0) & (idx < self._n), idx, -1)

    def ensure(self, user_ids) -> np.ndarray:
        """Build any not-yet-built rows in one batch; returns the store rows.

        One bitmap gather decides what to build; each unbuilt row is built
        once, in first-request order.  Counts ``misses`` (rows built) and
        ``hits`` (the requested rows that needed no build).
        """
        idx = self._rows_of(user_ids)
        if len(idx) and idx.min() < 0:
            raise KeyError(user_ids[int(np.argmin(idx))])
        missing = idx[~self._built[idx]]
        if len(missing):
            _, first = np.unique(missing, return_index=True)
            missing = missing[np.sort(first)]
            hist, docv = self._user_blocks(missing)
            if self.storage == "paged":
                self.history.write_rows(missing, hist)
                self.doc_vecs.write_rows(missing, docv)
            else:
                self.history[missing] = hist
                self.doc_vecs[missing] = docv
            self._built[missing] = True
        self.misses += len(missing)
        self.hits += len(idx) - len(missing)
        return idx

    def stats(self) -> dict:
        """Row counters for the ``caches.features`` block of ``/v1/metrics``.

        ``size`` is the number of built rows and ``maxsize`` the number of
        users; ``hit_rate`` is computed from the ``hits``/``misses`` reported.
        No lock: a serving store has one writer at a time (under the
        engine's lock), so a snapshot taken beside it may trail by one
        ``ensure``.
        """
        hits, misses = self.hits, self.misses
        total = hits + misses
        return {
            "size": self._built.count(),
            "maxsize": self.n_users,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }

    def _degraded_read(self, matrix, which: str, idx: np.ndarray) -> np.ndarray:
        """Serve a failed paged read by rebuilding the rows from the world."""
        _DEGRADED_READS.inc(matrix=which)
        self.degraded_reads += 1
        _log.warning("store.degraded_read", matrix=which, n_rows=int(len(idx)))
        hist, docv = self._user_blocks(idx)
        values = hist if which == "history" else docv
        try:  # heal the backing store when the fault was transient
            matrix.write_rows(idx, values)
        except PagedIOError:
            pass
        return values

    def _read(self, matrix, which: str, idx: np.ndarray) -> np.ndarray:
        """Gather built rows; a paged read that fails is recomputed instead."""
        if self.storage == "paged":
            try:
                return matrix.read_rows(idx)
            except PagedIOError:
                return self._degraded_read(matrix, which, idx)
        return matrix[idx]

    def history_rows(self, user_ids) -> np.ndarray:
        """(n, d_hist) history blocks for a user list (built on demand).

        Paged storage: a block read that fails after retries is served by
        recomputing the rows through the builder path (bit-identical) —
        the request degrades to slower, never to an error.
        """
        return self._read(self.history, "history", self.ensure(user_ids))

    def user_block(self, user_id: int) -> dict:
        """Seed-shaped ``{"history": ..., "doc_vec": ...}`` for one user."""
        idx = self.ensure([user_id])
        return {
            "history": self._read(self.history, "history", idx)[0],
            "doc_vec": self._read(self.doc_vecs, "doc_vecs", idx)[0],
        }

    def doc_vec(self, user_id: int) -> np.ndarray:
        """Mean Doc2Vec vector of one user's recent history."""
        return self._read(self.doc_vecs, "doc_vecs", self.ensure([user_id]))[0]

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
        pairs = np.array(list(counts), dtype=np.int64).reshape(-1, 2)
        data = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs[:, 0], minlength=self.n_users), out=indptr[1:])
        self._prior_indptr = indptr
        self._prior_cols = pairs[order, 1]
        self._prior_data = data[order]

    def prior_counts(self, root_user: int, user_ids) -> np.ndarray:
        """(n,) prior-retweet counts of each candidate toward ``root_user``."""
        out = np.zeros(len(user_ids))
        if self._prior_indptr is None:
            return out
        ri = int(self._rows_of([root_user])[0])
        if ri < 0:
            return out
        lo, hi = self._prior_indptr[ri], self._prior_indptr[ri + 1]
        if hi == lo:
            return out
        cols = self._prior_cols[lo:hi]
        data = self._prior_data[lo:hi]
        tgt = self._rows_of(user_ids)
        pos = np.searchsorted(cols, tgt)
        pos_c = np.minimum(pos, len(cols) - 1)
        found = (cols[pos_c] == tgt) & (pos < len(cols))
        out[found] = data[pos_c[found]]
        return out

    # -------------------------------------------------------- peer features
    def distance_array(self, source: int, cutoff: int = 4) -> np.ndarray:
        """Cached (n,) int16 BFS distances per CSR row.

        ``cutoff + 1`` marks unreached rows — value-identical to
        ``network.distances_from(source, cutoff).get(uid, cutoff + 1)`` for
        every user, at ~2 bytes/user instead of a Python dict entry.
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

        One vectorised BFS from the root covers every candidate (the seed
        path ran one BFS per (root, candidate) pair); each candidate's
        distance is then a row gather.
        """
        arr = self.distance_array(root_user, cutoff)
        rows = self._rows_of(user_ids)
        spl = np.where(rows >= 0, arr[np.maximum(rows, 0)], cutoff + 1).astype(np.float64)
        return np.stack([spl, self.prior_counts(root_user, user_ids)], axis=1)

    # ----------------------------------------------------------- live ingest
    def _invalidate_distances(self, followee: int, follower: int) -> int:
        """Drop cached BFS arrays a new ``followee -> follower`` edge stales.

        A cached distance array from source ``s`` changes only when the new
        edge shortens the follower's distance: ``d_s(followee) + 1 <
        d_s(follower)`` (unreached = ``cutoff + 1``).  Everything else keeps
        serving — distances elsewhere cannot shrink through an edge that
        doesn't improve its own endpoint.
        """
        stale = [
            key
            for key, arr in self._dist_arr_cache.items()
            if int(arr[followee]) + 1 < int(arr[follower])
        ]
        for key in stale:
            del self._dist_arr_cache[key]
        return len(stale)

    def _patch_counters(self, rows: list[int]) -> int:
        """Rewrite the counter scalars of the already-built ``rows`` in place.

        Unbuilt rows stay lazy: they build later from the updated counters.
        A paged read/write that fails persistently marks the rows unbuilt
        instead, so `ensure` (or the degraded-read path) recomputes them
        from the world — ingest never fails after its events are durable.
        Returns the number of built rows touched.
        """
        idx = np.asarray(rows, dtype=np.int64)
        idx = idx[self._built[idx]]
        if not len(idx):
            return 0
        values = np.array(
            [self._counter_scalars(i) for i in idx.tolist()]
        )
        lo = self._d_hist - N_HISTORY_SCALARS + 1  # hate ratio comes first
        cols = slice(lo, lo + values.shape[1])
        if self.storage == "paged":
            try:
                block = self.history.read_rows(idx)
                block[:, cols] = values
                self.history.write_rows(idx, block)
            except PagedIOError:
                self._built[idx] = False
        else:
            self.history[idx, cols] = values
        return len(idx)

    def apply_events(self, stored_events) -> dict[str, int]:
        """Fold already-world-applied events into the store, in place.

        Call *after* :func:`repro.store.apply_events_to_world` mutated this
        store's world, with exactly the events the world just applied.  The
        store keeps no sequence number: the predictor that owns it hands
        each event over once (see ``RetweeterPredictor.apply_events``).

        Ingest changes only counters: a retweet moves its root author's
        retweet-count and retweeted-tweet ratios, a follow its followee's
        follower count.  Those three scalars are recomputed in place on
        built rows with the expressions `_user_blocks` uses, so each patched
        row is bit-identical to a cold build over the mutated world.  No
        ingest event changes a text block: ingested tweets are dated
        t >= 0 and every text block reads only the pre-t=0 window, so the
        tf-idf, lexicon and Doc2Vec parts of a row are never recomputed.

        Returns per-structure counts (also exported on the
        ``repro_store_invalidations_total`` counter); ``history_row``
        counts the built rows patched.
        """
        counts = {"history_row": 0, "retweet_counts": 0, "distance_cache": 0}
        cascade_index = self.world.cascade_by_root
        # Pre-scan so each retweet knows its cascade's size *before* it:
        # by the time we run, the world already holds the whole batch.
        batch_rts: dict[int, int] = {}
        for s in stored_events:
            if s.event.kind == "retweet":
                batch_rts[s.event.tweet_id] = batch_rts.get(s.event.tweet_id, 0) + 1
        seen_rts: dict[int, int] = {}
        touched: set[int] = set()
        for s in stored_events:
            ev = s.event
            if ev.kind == "retweet":
                cascade = cascade_index.get(ev.tweet_id)
                if cascade is None:
                    continue
                seen = seen_rts.get(ev.tweet_id, 0)
                pre_size = cascade.size - batch_rts[ev.tweet_id] + seen
                seen_rts[ev.tweet_id] = seen + 1
                i = cascade.root.user_id
                if cascade.root.is_hate:
                    self._rts_hate[i] += 1
                    if pre_size == 0:
                        self._n_rt_hate[i] += 1
                else:
                    self._rts_non[i] += 1
                    if pre_size == 0:
                        self._n_rt_non[i] += 1
                counts["retweet_counts"] += 1
                touched.add(int(i))
            elif ev.kind == "follow":
                # The followee's history row embeds their follower count.
                touched.add(int(ev.followee))
                counts["distance_cache"] += self._invalidate_distances(
                    ev.followee, ev.follower
                )
            # Tweet events touch no store structure (see above), and hashtag
            # events none either: catalog membership is pinned at the
            # extractor layer.
        counts["history_row"] = self._patch_counters(sorted(touched))
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
        self._dist_arr_cache.clear()
        self._tweet_vec_cache.clear()

    def close(self) -> None:
        """Release paged backing files (no-op for dense storage)."""
        if self.storage == "paged":
            self.history.close()
            self.doc_vecs.close()
