"""Feature extraction for hate-generation prediction (paper Sec. IV).

Feature groups (named for the ablation of Table V):

- ``history`` — H_{i,t}: tf-idf of the user's 30 most recent tweets (top
  300 by idf), hate/non-hate ratio, hate-lexicon frequency vector,
  hateful-vs-non-hateful retweet-reception ratios, follower count, account
  age, number of distinct hashtags used.
- ``topic`` — Doc2Vec cosine relatedness between the user's recent tweets
  and the hashtag token.
- ``endogen`` — binary vector of trending hashtags on the tweet's day.
- ``exogen`` — mean tf-idf vector of the 60 most recent news headlines
  (top 300 features).

User-history blocks live in a columnar :class:`~repro.features.FeatureStore`
built at fit time: per-user blocks are dense matrix rows computed lazily in
batches (one tf-idf transform per batch), shared with the RETINA extractor
and the serving layer.  In-window drift within the observation window is
negligible for the synthetic corpus, so extraction is O(users), not
O(samples x history).
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import DAY_HOURS, Tweet
from repro.data.synthetic import SyntheticWorld
from repro.features import FeatureStore
from repro.text.doc2vec import Doc2Vec
from repro.text.lexicon import HateLexicon, default_hate_lexicon
from repro.text.similarity import cosine_similarity
from repro.text.tfidf import TfidfVectorizer
from repro.utils.validation import check_fitted

__all__ = ["FeatureGroups", "HateGenFeatureExtractor"]

FeatureGroups = ("history", "topic", "endogen", "exogen")


class HateGenFeatureExtractor:
    """Builds the Sec. IV feature matrix from a synthetic world.

    Parameters
    ----------
    history_size:
        Number of recent tweets forming H_{i,t} (paper: 30; Fig. 7 sweeps it).
    text_top_k / news_top_k:
        tf-idf vocabulary caps (paper: 300 each).
    news_window:
        Number of recent headlines in the exogenous block (paper: 60).
    trending_top_k:
        Daily trending list size (paper: 50; capped by catalog size here).
    workers:
        Accepted for ``perfbench/reproduce.py``, its only caller, and
        ignored: features are always built in-process.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        history_size: int = 30,
        text_top_k: int = 300,
        news_top_k: int = 300,
        news_window: int = 60,
        trending_top_k: int = 50,
        doc2vec_dim: int = 50,
        doc2vec_epochs: int = 10,
        lexicon: HateLexicon | None = None,
        random_state=0,
        workers: int | None = None,
    ):
        if history_size < 1:
            raise ValueError(f"history_size must be >= 1, got {history_size}")
        self.world = world
        self.history_size = history_size
        self.text_top_k = text_top_k
        self.news_top_k = news_top_k
        self.news_window = news_window
        self.trending_top_k = trending_top_k
        self.doc2vec_dim = doc2vec_dim
        self.doc2vec_epochs = doc2vec_epochs
        self.lexicon = lexicon or default_hate_lexicon()
        self.random_state = random_state
        self.text_vectorizer_: TfidfVectorizer | None = None
        self.news_vectorizer_: TfidfVectorizer | None = None
        self.doc2vec_: Doc2Vec | None = None
        self.store_: FeatureStore | None = None
        self._group_slices: dict[str, slice] | None = None
        self._endogen_cache: dict[int, np.ndarray] = {}
        #: Catalog tags pinned at fit time.  Hashtag events ingested later
        #: grow ``world.catalog`` but must not grow the endogenous block of
        #: an already-fitted model, so the tag index is built from this
        #: snapshot (``None`` until fit/from_state).
        self._catalog_tags: list[str] | None = None

    # ------------------------------------------------------------------ fit
    def fit(self, train_tweets: list[Tweet]) -> "HateGenFeatureExtractor":
        """Fit vectorisers and Doc2Vec on training-side text."""
        world = self.world
        self._catalog_tags = [spec.tag for spec in world.catalog]
        history_docs = [
            " ".join(t.text for t in world.user_history_before(uid, 0.0, self.history_size))
            for uid in world.users
        ]
        history_docs = [d for d in history_docs if d]
        self.text_vectorizer_ = TfidfVectorizer(
            ngram_range=(1, 2), max_features=self.text_top_k, rank_by="idf"
        ).fit(history_docs)
        headlines = [a.headline for a in world.news.articles]
        self.news_vectorizer_ = TfidfVectorizer(
            ngram_range=(1, 1), max_features=self.news_top_k, rank_by="idf"
        ).fit(headlines)
        # Doc2Vec over user histories + train tweets (hashtag tokens kept).
        corpus = history_docs + [t.text for t in train_tweets]
        self.doc2vec_ = Doc2Vec(
            vector_size=self.doc2vec_dim,
            epochs=self.doc2vec_epochs,
            min_count=2,
            random_state=self.random_state,
        ).fit(corpus)
        self._precompute_news()
        self._precompute_trending()
        self._build_store()
        return self

    def _build_store(self) -> None:
        """(Re)build the columnar per-user store from the fitted text models."""
        self.store_ = FeatureStore(
            self.world,
            text_vectorizer=self.text_vectorizer_,
            lexicon=self.lexicon,
            doc2vec=self.doc2vec_,
            history_size=self.history_size,
            doc2vec_dim=self.doc2vec_dim,
        )
        self._endogen_cache.clear()

    def _precompute_news(self) -> None:
        """tf-idf matrix over headlines + prefix sums for window averages."""
        arts = self.world.news.articles
        X = self.news_vectorizer_.transform([a.headline for a in arts])
        self._news_times = np.array([a.timestamp for a in arts])
        self._news_prefix = np.vstack([np.zeros(X.shape[1]), np.cumsum(X, axis=0)])

    def _precompute_trending(self) -> None:
        """Daily trending lists: top hashtags by tweet volume per day."""
        counts: dict[tuple[int, str], int] = {}
        for t in self.world.tweets:
            day = int(t.timestamp // DAY_HOURS)
            counts[(day, t.hashtag)] = counts.get((day, t.hashtag), 0) + 1
        days: dict[int, list[tuple[str, int]]] = {}
        for (day, tag), c in counts.items():
            days.setdefault(day, []).append((tag, c))
        tags = (
            self._catalog_tags
            if self._catalog_tags is not None
            else [spec.tag for spec in self.world.catalog]
        )
        self._tag_index = {tag: i for i, tag in enumerate(tags)}
        # Retained for live ingest: a tweet event bumps its (day, tag)
        # count and re-derives that day's trending set from here.
        self._trend_counts = counts
        self._trending: dict[int, set[str]] = {}
        for day, items in days.items():
            items.sort(key=lambda kv: -kv[1])
            self._trending[day] = {tag for tag, _ in items[: self.trending_top_k]}

    def _trending_for_day(self, day: int) -> set[str]:
        """Recompute one day's trending set from the live counts.

        New ``(day, tag)`` keys append at the end of the counts dict in
        event order — exactly where a cold walk over ``world.tweets``
        (base corpus first, then applied events in sequence order) would
        insert them — so the stable top-k sort ties break identically to
        a from-scratch :meth:`_precompute_trending`.
        """
        items = [
            (tag, c) for (d, tag), c in self._trend_counts.items() if d == day
        ]
        items.sort(key=lambda kv: -kv[1])
        return {tag for tag, _ in items[: self.trending_top_k]}

    # -------------------------------------------------------------- blocks
    def _user_block(self, user_id: int) -> dict:
        """Per-user history features and mean Doc2Vec vector (store-backed)."""
        return self.store_.user_block(user_id)

    def _endogen_block(self, timestamp: float) -> np.ndarray:
        day = int(timestamp // DAY_HOURS)
        vec = self._endogen_cache.get(day)
        if vec is None:
            trending = self._trending.get(day, set())
            vec = np.zeros(len(self._tag_index))
            for tag in trending:
                idx = self._tag_index.get(tag)
                if idx is not None:
                    vec[idx] = 1.0
            self._endogen_cache[day] = vec
        return vec

    def _exogen_block(self, timestamp: float) -> np.ndarray:
        idx = int(np.searchsorted(self._news_times, timestamp, side="left"))
        lo = max(0, idx - self.news_window)
        if idx == lo:
            return np.zeros(self._news_prefix.shape[1])
        return (self._news_prefix[idx] - self._news_prefix[lo]) / (idx - lo)

    def _exogen_rows(self, timestamps: np.ndarray) -> np.ndarray:
        """Batched :meth:`_exogen_block`: one searchsorted over all samples."""
        idx = np.searchsorted(self._news_times, timestamps, side="left")
        lo = np.maximum(0, idx - self.news_window)
        span = idx - lo
        rows = (self._news_prefix[idx] - self._news_prefix[lo]) / np.maximum(
            span, 1
        )[:, None]
        rows[span == 0] = 0.0
        return rows

    # ------------------------------------------------------------ assembly
    def _ensure_group_slices(self, widths: dict[str, int]) -> None:
        """Record the Table V ablation column ranges once per fitted state."""
        if self._group_slices is None:
            slices, lo = {}, 0
            for g in FeatureGroups:
                hi = lo + widths[g]
                slices[g] = slice(lo, hi)
                lo = hi
            self._group_slices = slices

    def sample_vector(self, user_id: int, hashtag: str, timestamp: float) -> np.ndarray:
        """Full feature vector for one (user, hashtag, t0) sample."""
        check_fitted(self, "text_vectorizer_")
        user = self._user_block(user_id)  # one store read for both blocks
        tag_vec = self.doc2vec_.word_vector(f"#{hashtag.lower()}")
        blocks = {
            "history": user["history"],
            "topic": np.array([cosine_similarity(user["doc_vec"], tag_vec)]),
            "endogen": self._endogen_block(timestamp),
            "exogen": self._exogen_block(timestamp),
        }
        self._ensure_group_slices({g: len(b) for g, b in blocks.items()})
        return np.concatenate([blocks[g] for g in FeatureGroups])

    def matrix(
        self, tweets: list[Tweet], label_fn=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature matrix and labels for a list of tweets.

        Each tweet yields one sample: (author, hashtag, time just before
        posting) with the tweet's hatefulness as label.

        Parameters
        ----------
        label_fn:
            Optional ``Tweet -> {0, 1}`` override.  The paper's future-work
            section suggests replacing hate with "any other targeted
            phenomenon like fraudulent, abusive behavior"; supplying a
            custom labeller retargets the entire pipeline without touching
            the feature machinery.
        """
        check_fitted(self, "text_vectorizer_")
        if label_fn is None:
            label_fn = lambda t: int(t.is_hate)
        # Columnar assembly: every block for all samples at once, stitched
        # with one concatenate — each row is bit-identical to the
        # per-sample ``sample_vector`` concatenation.
        users = [t.user_id for t in tweets]
        hist = self.store_.history_rows(users)
        tag_vecs: dict[str, np.ndarray] = {}
        topic = np.empty((len(tweets), 1))
        for i, t in enumerate(tweets):
            tag_vec = tag_vecs.get(t.hashtag)
            if tag_vec is None:
                tag_vec = self.doc2vec_.word_vector(f"#{t.hashtag.lower()}")
                tag_vecs[t.hashtag] = tag_vec
            topic[i, 0] = cosine_similarity(self.store_.doc_vec(t.user_id), tag_vec)
        endo = np.stack([self._endogen_block(t.timestamp) for t in tweets])
        exo = self._exogen_rows(np.array([t.timestamp for t in tweets]))
        blocks = {"history": hist, "topic": topic, "endogen": endo, "exogen": exo}
        self._ensure_group_slices({g: b.shape[1] for g, b in blocks.items()})
        X = np.concatenate([blocks[g] for g in FeatureGroups], axis=1)
        y = np.array([int(label_fn(t)) for t in tweets], dtype=np.int64)
        return X, y

    @property
    def group_slices(self) -> dict[str, slice]:
        """Column ranges per feature group (for the Table V ablation)."""
        if self._group_slices is None:
            raise RuntimeError("call sample_vector/matrix at least once first")
        return dict(self._group_slices)

    def drop_group(self, X: np.ndarray, group: str) -> np.ndarray:
        """Copy of ``X`` with one feature group removed (All \\ group)."""
        if group not in FeatureGroups:
            raise ValueError(f"unknown group {group!r}; choose from {FeatureGroups}")
        sl = self.group_slices[group]
        return np.delete(X, np.r_[sl], axis=1)

    # ----------------------------------------------------------- live ingest
    def apply_events(self, stored_events) -> dict[str, int]:
        """Fold already-world-applied events into this extractor's caches.

        Delegates store-level invalidation to
        :meth:`FeatureStore.apply_events`, then updates the trending
        counts and drops the endogenous-vector cache for affected days.
        Applies exactly the events it is given; the owning predictor's
        watermark makes sure each arrives once.
        """
        check_fitted(self, "text_vectorizer_")
        counts = self.store_.apply_events(stored_events)
        dirty_days: set[int] = set()
        for s in stored_events:
            if s.event.kind == "tweet":
                day = int(s.event.timestamp // DAY_HOURS)
                key = (day, s.event.hashtag)
                self._trend_counts[key] = self._trend_counts.get(key, 0) + 1
                dirty_days.add(day)
        for day in dirty_days:
            self._trending[day] = self._trending_for_day(day)
            self._endogen_cache.pop(day, None)
        counts["endogen_day"] = len(dirty_days)
        if dirty_days:
            from repro.features.store import _INVALIDATIONS

            _INVALIDATIONS.inc(len(dirty_days), structure="endogen_day")
        return counts

    # -------------------------------------------------------- serialization
    def to_state(self) -> dict:
        """Fitted state as a plain dict, independent of the world object.

        World-derived caches (news prefix sums, trending lists, per-user
        blocks) are deliberately excluded — they are recomputed
        deterministically from the world handed to :meth:`from_state`.
        """
        check_fitted(self, "text_vectorizer_")
        return {
            "kind": "hategen_features",
            "params": {
                "history_size": self.history_size,
                "text_top_k": self.text_top_k,
                "news_top_k": self.news_top_k,
                "news_window": self.news_window,
                "trending_top_k": self.trending_top_k,
                "doc2vec_dim": self.doc2vec_dim,
                "doc2vec_epochs": self.doc2vec_epochs,
            },
            "lexicon_terms": list(self.lexicon.terms),
            "catalog_tags": list(
                self._catalog_tags
                if self._catalog_tags is not None
                else [spec.tag for spec in self.world.catalog]
            ),
            "text_vectorizer": self.text_vectorizer_.to_state(),
            "news_vectorizer": self.news_vectorizer_.to_state(),
            "doc2vec": self.doc2vec_.to_state(),
        }

    @classmethod
    def from_state(cls, world: SyntheticWorld, state: dict) -> "HateGenFeatureExtractor":
        """Rebuild a fitted extractor on ``world`` from :meth:`to_state` output."""
        if state.get("kind") != "hategen_features":
            raise ValueError(f"not a hategen_features state: kind={state.get('kind')!r}")
        extractor = cls(
            world,
            lexicon=HateLexicon(state["lexicon_terms"]),
            random_state=0,
            **state["params"],
        )
        tags = state.get("catalog_tags")
        if tags is not None:  # absent in pre-ingest bundles: use the world's
            extractor._catalog_tags = [str(t) for t in tags]
        extractor.text_vectorizer_ = TfidfVectorizer.from_state(state["text_vectorizer"])
        extractor.news_vectorizer_ = TfidfVectorizer.from_state(state["news_vectorizer"])
        extractor.doc2vec_ = Doc2Vec.from_state(state["doc2vec"])
        extractor._precompute_news()
        extractor._precompute_trending()
        extractor._build_store()
        return extractor
