"""TF-IDF vectorisation with idf-ranked vocabulary truncation.

The paper (Sec. IV-A) uses "unigram and bigram features weighted by tf-idf
... keep the top 300 features sorted by their idf values"; ``max_features``
with ``rank_by='idf'`` reproduces exactly that selection rule, while
``rank_by='count'`` gives the more common frequency-ranked truncation.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, TransformerMixin
from repro.text.tokenize import ngrams, tokenize
from repro.utils.validation import check_fitted


class TfidfVectorizer(BaseEstimator, TransformerMixin):
    """Convert raw documents to a dense TF-IDF matrix.

    Parameters
    ----------
    ngram_range:
        ``(lo, hi)`` inclusive n-gram sizes; the paper uses ``(1, 2)``.
    max_features:
        Vocabulary cap; selection order is controlled by ``rank_by``.
    rank_by:
        ``'idf'`` (paper's rule: rarest terms first, document frequency > 1
        required) or ``'count'`` (most frequent first).
    min_df:
        Minimum document frequency for a term to enter the vocabulary.
    sublinear_tf:
        Use ``1 + log(tf)`` instead of raw counts.
    """

    def __init__(
        self,
        ngram_range: tuple[int, int] = (1, 1),
        max_features: int | None = None,
        rank_by: str = "count",
        min_df: int = 1,
        sublinear_tf: bool = False,
        tokenizer=None,
    ):
        lo, hi = ngram_range
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid ngram_range: {ngram_range}")
        if rank_by not in ("idf", "count"):
            raise ValueError(f"rank_by must be 'idf' or 'count', got {rank_by!r}")
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        self.ngram_range = ngram_range
        self.max_features = max_features
        self.rank_by = rank_by
        self.min_df = min_df
        self.sublinear_tf = sublinear_tf
        self.tokenizer = tokenizer
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    def _analyze(self, doc: str) -> list[str]:
        tok = self.tokenizer or tokenize
        tokens = tok(doc)
        lo, hi = self.ngram_range
        feats: list[str] = []
        for n in range(lo, hi + 1):
            feats.extend(ngrams(tokens, n))
        return feats

    def fit(self, documents, y=None) -> "TfidfVectorizer":
        docs = list(documents)
        if not docs:
            raise ValueError("cannot fit on an empty corpus")
        df, cf = self._corpus_counts(docs)
        n_docs = len(docs)
        terms = [t for t, d in df.items() if d >= self.min_df]
        if self.max_features is not None and len(terms) > self.max_features:
            if self.rank_by == "idf":
                # Rarest first, but require df >= 2 when possible so the
                # vocabulary is not dominated by hapax legomena.
                robust = [t for t in terms if df[t] >= 2] or terms
                robust.sort(key=lambda t: (df[t], t))
                terms = robust[: self.max_features]
            else:
                terms.sort(key=lambda t: (-cf[t], t))
                terms = terms[: self.max_features]
        terms.sort()
        self.vocabulary_ = {t: i for i, t in enumerate(terms)}
        dfs = np.array([df[t] for t in terms], dtype=np.float64)
        # Smoothed idf, matching the scikit-learn formula.
        self.idf_ = np.log((1.0 + n_docs) / (1.0 + dfs)) + 1.0
        return self

    def _corpus_counts(self, docs: list[str]) -> tuple[dict, dict]:
        """(document frequency, collection frequency) over the corpus."""
        df: dict[str, int] = {}
        cf: dict[str, int] = {}
        for doc in docs:
            feats = self._analyze(doc)
            for term in feats:
                cf[term] = cf.get(term, 0) + 1
            for term in set(feats):
                df[term] = df.get(term, 0) + 1
        return df, cf

    def transform(self, documents) -> np.ndarray:
        check_fitted(self, "vocabulary_")
        docs = list(documents)
        X = np.zeros((len(docs), len(self.vocabulary_)))
        for i, doc in enumerate(docs):
            for term in self._analyze(doc):
                j = self.vocabulary_.get(term)
                if j is not None:
                    X[i, j] += 1.0
        if self.sublinear_tf:
            nz = X > 0
            X[nz] = 1.0 + np.log(X[nz])
        X *= self.idf_
        norms = np.linalg.norm(X, axis=1)
        norms[norms == 0.0] = 1.0
        return X / norms[:, None]

    def get_feature_names(self) -> list[str]:
        """Vocabulary terms in column order."""
        check_fitted(self, "vocabulary_")
        names = [""] * len(self.vocabulary_)
        for term, idx in self.vocabulary_.items():
            names[idx] = term
        return names

    # -------------------------------------------------------- serialization
    def to_state(self) -> dict:
        """Fitted state as a plain dict (ndarray leaves allowed)."""
        check_fitted(self, "vocabulary_")
        if self.tokenizer is not None:
            raise ValueError("cannot serialize a vectorizer with a custom tokenizer")
        return {
            "params": {
                "ngram_range": list(self.ngram_range),
                "max_features": self.max_features,
                "rank_by": self.rank_by,
                "min_df": self.min_df,
                "sublinear_tf": self.sublinear_tf,
            },
            "vocabulary": self.get_feature_names(),
            "idf": self.idf_.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TfidfVectorizer":
        """Rebuild a fitted vectorizer from :meth:`to_state` output."""
        params = dict(state["params"])
        params["ngram_range"] = tuple(params["ngram_range"])
        vec = cls(**params)
        vec.vocabulary_ = {t: i for i, t in enumerate(state["vocabulary"])}
        vec.idf_ = np.asarray(state["idf"], dtype=np.float64)
        if len(vec.idf_) != len(vec.vocabulary_):
            raise ValueError(
                f"idf length {len(vec.idf_)} != vocabulary size {len(vec.vocabulary_)}"
            )
        return vec
