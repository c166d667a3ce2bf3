"""Doc2Vec: distributed document representations (PV-DBOW).

The paper uses gensim Doc2Vec (50-d for tweets, 500-d for news headlines;
Sec. VI-D) for the exogenous-attention inputs and for the user-topic
relatedness feature.  This is a from-scratch PV-DBOW [Le & Mikolov 2014]
trained with negative sampling: each document vector is optimised to predict
the words it contains against noise words sampled from the unigram^0.75
distribution.

``infer_vector`` optimises a fresh document vector against the frozen word
matrix, mirroring gensim's inference step, so unseen tweets/news can be
embedded after training.
"""

from __future__ import annotations

import numpy as np

from repro.text.tokenize import tokenize
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


class Doc2Vec:
    """PV-DBOW document embeddings with negative sampling.

    Parameters
    ----------
    vector_size:
        Embedding dimensionality (paper: 50 for tweets, 500 for news).
    epochs:
        Full passes over the corpus.
    negative:
        Negative samples per positive word.
    min_count:
        Words rarer than this are dropped from the vocabulary.
    alpha:
        Initial learning rate, linearly decayed to ``alpha/10``.
    """

    def __init__(
        self,
        vector_size: int = 50,
        epochs: int = 20,
        negative: int = 5,
        min_count: int = 2,
        alpha: float = 0.05,
        window_subsample: int = 32,
        random_state=None,
        tokenizer=None,
    ):
        if vector_size < 1:
            raise ValueError(f"vector_size must be >= 1, got {vector_size}")
        if negative < 1:
            raise ValueError(f"negative must be >= 1, got {negative}")
        self.vector_size = vector_size
        self.epochs = epochs
        self.negative = negative
        self.min_count = min_count
        self.alpha = alpha
        self.window_subsample = window_subsample
        self.random_state = random_state
        self.tokenizer = tokenizer
        self.vocab_: dict[str, int] | None = None
        self.word_vectors_: np.ndarray | None = None
        self.doc_vectors_: np.ndarray | None = None
        self._noise_cdf: np.ndarray | None = None

    def _tokenize(self, doc: str) -> list[str]:
        tok = self.tokenizer or tokenize
        return tok(doc)

    def _doc_word_ids(self, doc: str) -> np.ndarray:
        ids = [self.vocab_[w] for w in self._tokenize(doc) if w in self.vocab_]
        return np.asarray(ids, dtype=np.int64)

    def _sample_noise(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        return np.searchsorted(self._noise_cdf, u)

    def fit(self, documents) -> "Doc2Vec":
        """Train document and word vectors on the corpus."""
        docs = list(documents)
        if not docs:
            raise ValueError("cannot fit on an empty corpus")
        rng = ensure_rng(self.random_state)
        counts: dict[str, int] = {}
        tokenized = []
        for doc in docs:
            toks = self._tokenize(doc)
            tokenized.append(toks)
            for w in toks:
                counts[w] = counts.get(w, 0) + 1
        vocab_words = sorted(w for w, c in counts.items() if c >= self.min_count)
        if not vocab_words:
            # Degenerate corpus: fall back to keeping everything.
            vocab_words = sorted(counts)
        self.vocab_ = {w: i for i, w in enumerate(vocab_words)}
        V = len(vocab_words)
        D = len(docs)
        k = self.vector_size

        freq = np.array([counts[w] for w in vocab_words], dtype=np.float64) ** 0.75
        self._noise_cdf = np.cumsum(freq / freq.sum())

        self.word_vectors_ = (rng.random((V, k)) - 0.5) / k
        self.doc_vectors_ = (rng.random((D, k)) - 0.5) / k

        word_ids = [
            np.asarray([self.vocab_[w] for w in toks if w in self.vocab_], dtype=np.int64)
            for toks in tokenized
        ]
        order = np.arange(D)
        for epoch in range(self.epochs):
            lr = self.alpha * max(0.1, 1.0 - epoch / max(1, self.epochs))
            rng.shuffle(order)
            for d in order:
                ids = word_ids[d]
                if len(ids) == 0:
                    continue
                if len(ids) > self.window_subsample:
                    ids = rng.choice(ids, size=self.window_subsample, replace=False)
                self._update_doc(d, ids, lr, rng)
        return self

    def _update_doc(self, d: int, ids: np.ndarray, lr: float, rng) -> None:
        """One negative-sampling SGD step for document ``d`` on words ``ids``."""
        dv = self.doc_vectors_[d]
        n_pos = len(ids)
        neg = self._sample_noise(rng, n_pos * self.negative)
        targets = np.concatenate([ids, neg])
        labels = np.concatenate([np.ones(n_pos), np.zeros(len(neg))])
        W = self.word_vectors_[targets]
        scores = _sigmoid(W @ dv)
        err = (scores - labels)[:, None]  # (m, 1)
        grad_doc = (err * W).sum(axis=0)
        self.word_vectors_[targets] -= lr * err * dv[None, :]
        dv -= lr * grad_doc

    def infer_vector(
        self, document: str, *, epochs: int = 25, random_state=None
    ) -> np.ndarray:
        """Embed an unseen document against the frozen word matrix.

        The noise sampling and word-vector gathers for every epoch are
        hoisted out of the SGD loop: one generator call consumes the exact
        same random stream as the per-epoch calls did, and a single fancy
        index replaces per-epoch gathers, so the returned vector is
        bit-identical to the naive loop at a fraction of the overhead.
        """
        check_fitted(self, "word_vectors_")
        rng = ensure_rng(
            random_state if random_state is not None else self.random_state
        )
        ids = self._doc_word_ids(document)
        dv = (rng.random(self.vector_size) - 0.5) / self.vector_size
        if len(ids) == 0:
            return dv
        n_pos = len(ids)
        n_neg = n_pos * self.negative
        neg = np.searchsorted(
            self._noise_cdf, rng.random(epochs * n_neg).reshape(epochs, n_neg)
        )
        targets = np.concatenate(
            [np.broadcast_to(ids, (epochs, n_pos)), neg], axis=1
        )
        W_all = self.word_vectors_[targets]  # (epochs, n_pos + n_neg, k)
        labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
        for epoch in range(epochs):
            lr = self.alpha * max(0.1, 1.0 - epoch / epochs)
            W = W_all[epoch]
            scores = _sigmoid(W @ dv)
            err = (scores - labels)[:, None]
            dv -= lr * (err * W).sum(axis=0)
        return dv

    def transform(
        self,
        documents,
        *,
        epochs: int = 25,
        random_state=None,
        block_elems: int = 1_000_000,
    ) -> np.ndarray:
        """Infer vectors for a batch of documents with one blocked kernel.

        Bit-identical to ``np.stack([self.infer_vector(d) for d in docs])``:
        every document keeps its own RNG stream (a fresh generator per
        document for seed-style ``random_state``, sequential draws in
        document order for a shared generator), and all noise draws are
        hoisted out of the SGD loop.  A fresh generator from one int seed
        gives every document of one in-vocabulary length the same initial
        vector and noise ids, so those are drawn once per length.  Each
        epoch gathers its word vectors into one ``(docs, m, k)`` block.  Documents are bucketed by their
        in-vocabulary length so every stacked matmul slice has exactly the
        reference gemv's shape — stacked ``np.matmul`` equals its 2-D slices
        bit for bit, whereas zero-padding rows would shift BLAS row blocking
        and flip low bits.

        Parameters
        ----------
        epochs / random_state:
            As in :meth:`infer_vector`.
        block_elems:
            Soft cap on one epoch's gathered block (floats; the default is
            8 MB) — larger buckets are processed in document-order chunks.
            The noise ids are drawn before the first chunk; under an int
            ``random_state`` they grow with the number of distinct
            lengths, otherwise with the number of documents.
        """
        check_fitted(self, "word_vectors_")
        docs = list(documents)
        D = len(docs)
        k = self.vector_size
        out = np.empty((D, k))
        if D == 0:
            return out
        seed = random_state if random_state is not None else self.random_state
        shared = isinstance(seed, np.random.Generator)
        # An int seed restarts the same stream for every document.
        fixed = seed is not None and not shared

        # ---- per-document draws, in document order ----------------------
        # (Draw order is what preserves a shared generator's stream.)
        by_m: dict[int, list[int]] = {}
        negs: list[np.ndarray | None] = []
        ids_list: list[np.ndarray] = []
        draws: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        for di, doc in enumerate(docs):
            ids = self._doc_word_ids(doc)
            ids_list.append(ids)
            n_pos = len(ids)
            if n_pos in draws:
                init, neg = draws[n_pos]
            else:
                rng = seed if shared else ensure_rng(seed)
                init = (rng.random(k) - 0.5) / k
                neg = None  # empty/OOV doc: keep the init vector
                if n_pos:
                    n_neg = n_pos * self.negative
                    neg = np.searchsorted(
                        self._noise_cdf,
                        rng.random(epochs * n_neg).reshape(epochs, n_neg),
                    )
                if fixed:
                    draws[n_pos] = init, neg
            out[di] = init
            negs.append(neg)
            if n_pos:
                by_m.setdefault(n_pos, []).append(di)

        # ---- bucketed, blocked SGD --------------------------------------
        # Each chunk is an independent stacked kernel over its own documents.
        # Each epoch gathers its own block of up to ``block_elems`` floats;
        # the update's ``err * W`` temporary is as large, so a chunk peaks
        # near two blocks.
        def _sgd_chunk(n_pos: int, group: list[int]) -> None:
            m = n_pos * (1 + self.negative)
            targets = np.empty((len(group), epochs, m), dtype=np.int64)
            for row, di in enumerate(group):
                targets[row, :, :n_pos] = ids_list[di]
                targets[row, :, n_pos:] = negs[di]
            labels = np.concatenate(
                [np.ones(n_pos), np.zeros(n_pos * self.negative)]
            )
            dv = out[group]
            for epoch in range(epochs):
                lr = self.alpha * max(0.1, 1.0 - epoch / epochs)
                W = self.word_vectors_[targets[:, epoch]]  # (L, m, k)
                scores = _sigmoid(np.matmul(W, dv[:, :, None])[:, :, 0])
                err = scores - labels
                dv -= lr * (err[:, :, None] * W).sum(axis=1)
            out[group] = dv

        for n_pos, members in by_m.items():
            m = n_pos * (1 + self.negative)
            chunk = max(1, block_elems // max(1, m * k))
            for lo in range(0, len(members), chunk):
                _sgd_chunk(n_pos, members[lo : lo + chunk])
        return out

    def word_vector(self, word: str) -> np.ndarray:
        """Vector of an in-vocabulary word (zeros when OOV)."""
        check_fitted(self, "word_vectors_")
        idx = self.vocab_.get(word)
        if idx is None:
            return np.zeros(self.vector_size)
        return self.word_vectors_[idx].copy()

    # -------------------------------------------------------- serialization
    def to_state(self) -> dict:
        """Fitted state as a plain dict (ndarray leaves allowed)."""
        check_fitted(self, "word_vectors_")
        if self.tokenizer is not None:
            raise ValueError("cannot serialize a Doc2Vec with a custom tokenizer")
        return {
            "params": {
                "vector_size": self.vector_size,
                "epochs": self.epochs,
                "negative": self.negative,
                "min_count": self.min_count,
                "alpha": self.alpha,
                "window_subsample": self.window_subsample,
            },
            "vocab": sorted(self.vocab_, key=self.vocab_.get),
            "word_vectors": self.word_vectors_.copy(),
            "doc_vectors": self.doc_vectors_.copy(),
            "noise_cdf": self._noise_cdf.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Doc2Vec":
        """Rebuild a fitted model from :meth:`to_state` output.

        ``infer_vector`` on the restored model reproduces the original
        bit-for-bit when called with an explicit ``random_state``.
        """
        model = cls(**state["params"])
        model.vocab_ = {w: i for i, w in enumerate(state["vocab"])}
        model.word_vectors_ = np.asarray(state["word_vectors"], dtype=np.float64)
        model.doc_vectors_ = np.asarray(state["doc_vectors"], dtype=np.float64)
        model._noise_cdf = np.asarray(state["noise_cdf"], dtype=np.float64)
        if model.word_vectors_.shape != (len(model.vocab_), model.vector_size):
            raise ValueError(
                f"word_vectors shape {model.word_vectors_.shape} inconsistent with "
                f"vocab size {len(model.vocab_)} x vector_size {model.vector_size}"
            )
        return model
