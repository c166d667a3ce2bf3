"""Feature extraction for retweeter prediction (paper Sec. V-A).

Per candidate user u_j of a root tweet tau by root user u_0:

- peer signal S_P: shortest path length u_0 -> u_j in G, and how often u_j
  retweeted u_0 before;
- history H_{j,t} and endogenous S_en: same blocks as hate generation;
- root tweet: hate-lexicon vector + top-300 tf-idf of the tweet text;
- exogenous S_ex: Doc2Vec embeddings of the k most recent news headlines
  (attention input) and of the root tweet (attention query); the feature
  baselines use the averaged news tf-idf instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hategen.features import HateGenFeatureExtractor
from repro.data.schema import Cascade
from repro.data.synthetic import SyntheticWorld
from repro.diffusion.cascade import CandidateSet, build_candidate_set
from repro.features import FeatureStore, assemble_rows
from repro.text.tfidf import TfidfVectorizer
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted

__all__ = ["RetinaSample", "RetinaFeatureExtractor"]


@dataclass
class RetinaSample:
    """Everything RETINA consumes for one cascade, stored block-structured.

    ``cand_features`` is (n_candidates, d_cand): the peer + history blocks
    that actually vary per candidate.  ``shared_features`` is (d_shared,):
    the endogenous + root-tweet blocks every candidate of the cascade
    shares, stored once instead of tiled into each row.  Full rows are
    assembled lazily via :meth:`rows` (or the ``user_features`` property,
    which materialises all of them); ``tweet_vec`` is the Doc2Vec query
    (d_tweet,); ``news_vecs`` is (k, d_news); ``news_tfidf`` is the
    engineered exogenous alternative for non-attention baselines.
    ``interval_labels`` is (n_candidates, n_intervals) for dynamic mode.
    """

    candidate_set: CandidateSet
    cand_features: np.ndarray
    shared_features: np.ndarray
    tweet_vec: np.ndarray
    news_vecs: np.ndarray
    news_tfidf: np.ndarray
    labels: np.ndarray
    interval_labels: np.ndarray | None = None

    def rows(self, idx=None) -> np.ndarray:
        """Assemble full feature rows, optionally only the selected ones."""
        return assemble_rows(self.cand_features, self.shared_features, idx)

    @property
    def user_features(self) -> np.ndarray:
        """The dense (n_candidates, d_user) matrix (materialised on demand)."""
        return self.rows()

    @property
    def is_hate(self) -> bool:
        return self.candidate_set.cascade.root.is_hate


class RetinaFeatureExtractor:
    """Builds :class:`RetinaSample` objects from a synthetic world.

    ``workers`` is accepted for ``perfbench/reproduce.py``, its only
    caller, and ignored: features are always built in-process.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        history_size: int = 30,
        tweet_top_k: int = 300,
        news_window: int = 60,
        news_doc2vec_dim: int = 50,
        n_negatives: int = 30,
        random_state=0,
        workers: int | None = None,
    ):
        if news_window < 1:
            raise ValueError(f"news_window must be >= 1, got {news_window}")
        self.world = world
        self.history_size = history_size
        self.tweet_top_k = tweet_top_k
        self.news_window = news_window
        self.news_doc2vec_dim = news_doc2vec_dim
        self.n_negatives = n_negatives
        self.random_state = random_state
        self.base_: HateGenFeatureExtractor | None = None
        self.tweet_vectorizer_: TfidfVectorizer | None = None
        self._news_vec_cache: np.ndarray | None = None
        self._retweeted_before: dict[tuple[int, int], int] | None = None
        self._prior_seq = 0

    def fit(self, train_cascades: list[Cascade]) -> "RetinaFeatureExtractor":
        """Fit text models on the training side of the corpus."""
        train_tweets = [c.root for c in train_cascades]
        self.base_ = HateGenFeatureExtractor(
            self.world,
            history_size=self.history_size,
            doc2vec_dim=self.news_doc2vec_dim,
            doc2vec_epochs=8,
            random_state=self.random_state,
        ).fit(train_tweets)
        self.tweet_vectorizer_ = TfidfVectorizer(
            ngram_range=(1, 2), max_features=self.tweet_top_k, rank_by="idf"
        ).fit([t.text for t in train_tweets])
        # Doc2Vec embedding per news article, inferred once through the
        # batched kernel — bit-identical to the seed per-article
        # ``infer_vector`` loop at the same fixed seed.
        d2v = self.base_.doc2vec_
        self._news_vec_cache = d2v.transform(
            [a.headline for a in self.world.news.articles],
            random_state=0,
        )
        # (root_user, candidate) -> count of prior retweets, from training
        # cascades only (no test leakage).
        counts: dict[tuple[int, int], int] = {}
        for c in train_cascades:
            for r in c.retweets:
                key = (c.root.user_id, r.user_id)
                counts[key] = counts.get(key, 0) + 1
        self._retweeted_before = counts
        self.base_.store_.set_prior_retweets(counts)
        self._prior_seq = int(getattr(self.world, "_store_watermark", 0))
        return self

    # -------------------------------------------------------------- pieces
    @property
    def store_(self) -> FeatureStore:
        """The columnar per-user store (shared with the base extractor).

        Re-seeds the prior-retweet CSR if the base extractor was refit (a
        fresh store starts without it, while the counts live here).
        """
        check_fitted(self, "base_")
        store = self.base_.store_
        if self._retweeted_before is not None and store._prior_indptr is None:
            store.set_prior_retweets(self._retweeted_before)
        return store

    def _peer_block(self, root_user: int, candidate: int) -> np.ndarray:
        """One (root, candidate) peer pair; batch queries use the store."""
        spl = self.world.network.shortest_path_length(root_user, candidate, cutoff=4)
        prior = self._retweeted_before.get((root_user, candidate), 0)
        return np.array([float(spl), float(prior)])

    def candidate_block(self, cascade: Cascade, user_ids) -> np.ndarray:
        """(n, d_cand) per-candidate rows [peer | history] for a user list.

        One single-source BFS from the root covers every candidate's
        shortest-path feature; prior-retweet counts come from the store's
        CSR index and history blocks from its dense matrix.
        """
        check_fitted(self, "base_")
        peer = self.store_.peer_block(cascade.root.user_id, user_ids, cutoff=4)
        hist = self.store_.history_rows(user_ids)
        return np.concatenate([peer, hist], axis=1)

    def _root_tweet_block(self, cascade: Cascade) -> np.ndarray:
        text = cascade.root.text
        tfidf = self.tweet_vectorizer_.transform([text])[0]
        lex = self.base_.lexicon.vector(text)
        return np.concatenate([tfidf, lex])

    def _root_tweet_blocks(self, cascades: list[Cascade]) -> np.ndarray:
        """Batched :meth:`_root_tweet_block`: one tf-idf transform for all roots."""
        tfidf = self.tweet_vectorizer_.transform([c.root.text for c in cascades])
        lex = np.stack([self.base_.lexicon.vector(c.root.text) for c in cascades])
        return np.concatenate([tfidf, lex], axis=1)

    def _news_vectors(self, timestamp: float) -> np.ndarray:
        """Doc2Vec matrix of the k most recent headlines before t."""
        times = self.base_._news_times
        idx = int(np.searchsorted(times, timestamp, side="left"))
        lo = max(0, idx - self.news_window)
        if idx == lo:
            return np.zeros((1, self.news_doc2vec_dim))
        return self._news_vec_cache[lo:idx]

    @staticmethod
    def _interval_labels(
        cascade: Cascade, users: list[int], edges: np.ndarray
    ) -> np.ndarray:
        """One-hot (n_candidates, n_intervals) labels, all candidates at once.

        ``searchsorted(..., side="right")`` over the full delta vector
        replaces the seed's per-candidate loop; a retweet landing exactly on
        an interval edge belongs to the interval *starting* there (and the
        final interval is closed on both sides), matching the seed rule.
        """
        n_int = len(edges) - 1
        labels = np.zeros((len(users), n_int))
        rt_time = {
            r.user_id: r.timestamp - cascade.root.timestamp for r in cascade.retweets
        }
        rows = np.fromiter(
            (i for i, uid in enumerate(users) if uid in rt_time), dtype=np.int64
        )
        if len(rows):
            dts = np.array([rt_time[users[i]] for i in rows])
            cols = np.searchsorted(edges, dts, side="right") - 1
            labels[rows, np.clip(cols, 0, n_int - 1)] = 1.0
        return labels

    # -------------------------------------------------------------- sample
    def build_sample(
        self,
        cascade: Cascade,
        *,
        interval_edges_hours: np.ndarray | None = None,
        candidate_set: CandidateSet | None = None,
        random_state=None,
        _tweet_block: np.ndarray | None = None,
    ) -> RetinaSample:
        """Assemble one cascade's features (and interval labels if edges given).

        The per-candidate block comes from :meth:`candidate_block` (one BFS,
        columnar history gather); the endogenous + tweet blocks are stored
        once per sample, never tiled.  ``_tweet_block`` lets
        :meth:`build_samples` pass a row of its batched tf-idf transform.
        """
        check_fitted(self, "base_")
        rng = ensure_rng(
            random_state if random_state is not None else self.random_state
        )
        cs = candidate_set or build_candidate_set(
            cascade, self.world.network, n_negatives=self.n_negatives, random_state=rng
        )
        root = cascade.root
        tweet_block = (
            _tweet_block if _tweet_block is not None else self._root_tweet_block(cascade)
        )
        endo = self.base_._endogen_block(root.timestamp)
        shared = np.concatenate([endo, tweet_block])
        cand = self.candidate_block(cascade, cs.users)
        tweet_vec = self.store_.tweet_vec(root)
        news_vecs = self._news_vectors(root.timestamp)
        news_tfidf = self.base_._exogen_block(root.timestamp)

        interval_labels = None
        if interval_edges_hours is not None:
            edges = np.asarray(interval_edges_hours, dtype=np.float64)
            interval_labels = self._interval_labels(cascade, cs.users, edges)
        return RetinaSample(
            candidate_set=cs,
            cand_features=cand,
            shared_features=shared,
            tweet_vec=tweet_vec,
            news_vecs=news_vecs,
            news_tfidf=news_tfidf,
            labels=cs.labels.astype(np.float64),
            interval_labels=interval_labels,
        )

    def build_samples(
        self,
        cascades: list[Cascade],
        *,
        interval_edges_hours: np.ndarray | None = None,
        random_state=None,
    ) -> list[RetinaSample]:
        """Batch :meth:`build_sample` with one RNG stream.

        Columnar batching across the whole cascade list: candidate sets are
        drawn first (same RNG sequence as the seed per-cascade loop), every
        touched user's history block is built in one store batch, and the
        root-tweet tf-idf block is one batched transform over all roots.
        """
        check_fitted(self, "base_")
        rng = ensure_rng(
            random_state if random_state is not None else self.random_state
        )
        cascades = list(cascades)
        sets = [
            build_candidate_set(
                c, self.world.network, n_negatives=self.n_negatives, random_state=rng
            )
            for c in cascades
        ]
        self.store_.ensure([uid for cs in sets for uid in cs.users])
        tweet_blocks = self._root_tweet_blocks(cascades) if cascades else []
        return [
            self.build_sample(
                c,
                interval_edges_hours=interval_edges_hours,
                candidate_set=cs,
                random_state=rng,
                _tweet_block=tweet_blocks[i],
            )
            for i, (c, cs) in enumerate(zip(cascades, sets))
        ]

    @property
    def user_feature_dim(self) -> int:
        """Dimensionality of the per-candidate feature vector."""
        check_fitted(self, "base_")
        hist = self.store_.history_dim
        # The endogenous width is the *pinned* tag index, not the live
        # catalog — hashtag events ingested after fit must not change the
        # dimensionality an already-trained model expects.
        endo = len(self.base_._tag_index)
        tweet = len(self.tweet_vectorizer_.vocabulary_) + len(self.base_.lexicon)
        return 2 + hist + endo + tweet

    # ----------------------------------------------------------- live ingest
    def apply_events(self, stored_events) -> dict[str, int]:
        """Fold already-world-applied events into this extractor's caches.

        Beyond the base extractor's store/trending invalidation, a live
        retweet increments the (root user, retweeter) prior-retweet count
        — the peer feature the paper derives from past interactions — and
        re-seeds the store's CSR view of it.  Watermark-guarded.
        """
        check_fitted(self, "base_")
        counts = self.base_.apply_events(stored_events)
        events = [s for s in stored_events if s.seq > self._prior_seq]
        cascade_index = getattr(self.world, "_store_cascade_index", None) or {}
        changed = 0
        for s in events:
            if s.event.kind != "retweet":
                continue
            cascade = cascade_index.get(s.event.tweet_id)
            if cascade is None:
                continue
            key = (cascade.root.user_id, s.event.user_id)
            self._retweeted_before[key] = self._retweeted_before.get(key, 0) + 1
            changed += 1
        if changed:
            self.base_.store_.set_prior_retweets(self._retweeted_before)
        if events:
            self._prior_seq = events[-1].seq
        counts["prior_csr"] = changed
        if changed:
            from repro.features.store import _INVALIDATIONS

            _INVALIDATIONS.inc(changed, structure="prior_csr")
        return counts

    # -------------------------------------------------------- serialization
    def to_state(self) -> dict:
        """Fitted state as a plain dict, independent of the world object.

        Includes the training-derived prior-retweet counts and the inferred
        news Doc2Vec cache, neither of which is recoverable from the world
        alone (the first needs the train split, the second is expensive).
        """
        check_fitted(self, "base_")
        pairs = sorted(self._retweeted_before.items())
        retweeted = np.array(
            [[ru, cu, n] for (ru, cu), n in pairs], dtype=np.int64
        ).reshape(len(pairs), 3)
        return {
            "kind": "retina_features",
            "params": {
                "history_size": self.history_size,
                "tweet_top_k": self.tweet_top_k,
                "news_window": self.news_window,
                "news_doc2vec_dim": self.news_doc2vec_dim,
                "n_negatives": self.n_negatives,
            },
            "base": self.base_.to_state(),
            "tweet_vectorizer": self.tweet_vectorizer_.to_state(),
            "news_vec_cache": self._news_vec_cache.copy(),
            "retweeted_before": retweeted,
            "prior_seq": int(self._prior_seq),
        }

    @classmethod
    def from_state(cls, world: SyntheticWorld, state: dict) -> "RetinaFeatureExtractor":
        """Rebuild a fitted extractor on ``world`` from :meth:`to_state` output."""
        if state.get("kind") != "retina_features":
            raise ValueError(f"not a retina_features state: kind={state.get('kind')!r}")
        extractor = cls(world, random_state=0, **state["params"])
        extractor.base_ = HateGenFeatureExtractor.from_state(world, state["base"])
        extractor.tweet_vectorizer_ = TfidfVectorizer.from_state(state["tweet_vectorizer"])
        extractor._news_vec_cache = np.asarray(state["news_vec_cache"], dtype=np.float64)
        retweeted = np.asarray(state["retweeted_before"], dtype=np.int64).reshape(-1, 3)
        extractor._retweeted_before = {
            (int(ru), int(cu)): int(n) for ru, cu, n in retweeted
        }
        extractor.base_.store_.set_prior_retweets(extractor._retweeted_before)
        # The restored counts reflect every logged retweet up to the seq
        # recorded at fit time ("prior_seq"); replay resumes past it so a
        # bundle fitted after ingest never double-counts.  Pre-ingest
        # bundles lack the key and replay from the beginning.
        extractor._prior_seq = int(state.get("prior_seq", 0))
        return extractor
