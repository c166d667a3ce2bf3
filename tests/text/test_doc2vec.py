"""Tests for repro.text.doc2vec."""

import numpy as np
import pytest

from repro.text import Doc2Vec, cosine_similarity
from repro.utils.validation import NotFittedError

# Two clearly separated topics.
SPORTS = [
    "cricket match score century wicket batsman bowler",
    "wicket bowler cricket stadium match innings",
    "batsman century runs cricket match victory",
    "football goal match striker penalty score",
    "goal penalty football striker match win",
]
POLITICS = [
    "election vote parliament minister policy bill",
    "minister parliament policy debate vote election",
    "vote bill policy government minister election",
    "protest government policy parliament citizens bill",
    "citizens protest vote government election minister",
]


@pytest.fixture(scope="module")
def model():
    return Doc2Vec(vector_size=16, epochs=60, min_count=1, random_state=0).fit(
        SPORTS + POLITICS
    )


class TestDoc2Vec:
    def test_doc_vector_shapes(self, model):
        assert model.doc_vectors_.shape == (10, 16)
        assert model.word_vectors_.shape[1] == 16

    def test_same_topic_docs_closer(self, model):
        dv = model.doc_vectors_
        within = cosine_similarity(dv[0], dv[1])
        across = cosine_similarity(dv[0], dv[5])
        assert within > across

    def test_topic_centroids_separate(self, model):
        dv = model.doc_vectors_
        sports_c = dv[:5].mean(axis=0)
        politics_c = dv[5:].mean(axis=0)
        # Average doc is closer to its own topic centroid.
        hits = 0
        for i in range(10):
            own = sports_c if i < 5 else politics_c
            other = politics_c if i < 5 else sports_c
            if cosine_similarity(dv[i], own) > cosine_similarity(dv[i], other):
                hits += 1
        assert hits >= 8

    def test_infer_vector_near_training_doc(self, model):
        inferred = model.infer_vector(SPORTS[0], random_state=1)
        sim_own = cosine_similarity(inferred, model.doc_vectors_[0])
        sim_other = cosine_similarity(inferred, model.doc_vectors_[9])
        assert sim_own > sim_other

    def test_infer_oov_document(self, model):
        v = model.infer_vector("zzz qqq www", random_state=0)
        assert v.shape == (16,)
        assert np.all(np.isfinite(v))

    def test_transform_batch(self, model):
        X = model.transform(SPORTS[:2])
        assert X.shape == (2, 16)

    def test_word_vector_oov_is_zero(self, model):
        assert np.allclose(model.word_vector("notaword999"), 0.0)

    def test_word_vector_in_vocab(self, model):
        assert np.linalg.norm(model.word_vector("cricket")) > 0

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            Doc2Vec().infer_vector("hello")

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            Doc2Vec().fit([])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Doc2Vec(vector_size=0)
        with pytest.raises(ValueError):
            Doc2Vec(negative=0)

    def test_reproducible_with_seed(self):
        m1 = Doc2Vec(vector_size=8, epochs=5, min_count=1, random_state=3).fit(SPORTS)
        m2 = Doc2Vec(vector_size=8, epochs=5, min_count=1, random_state=3).fit(SPORTS)
        assert np.allclose(m1.doc_vectors_, m2.doc_vectors_)


def test_transform_peak_memory_is_one_epoch_block():
    """transform's peak is set by ``block_elems``, not by the document count.

    Each epoch gathers at most ``block_elems`` floats (8 MB by default), so
    ten times the documents stay within 2x of the peak; only the output and
    the per-document noise ids grow.  A gather of all 25 epochs at once
    peaks near 64 MB here.
    """
    import tracemalloc

    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(40)]
    corpus = [" ".join(rng.choice(words, 6)) for _ in range(30)]
    model = Doc2Vec(vector_size=500, epochs=1, min_count=1, random_state=0).fit(corpus)
    docs = [" ".join(rng.choice(words, 4, replace=False)) for _ in range(1000)]

    def peak(batch):
        tracemalloc.start()
        try:
            model.transform(batch, random_state=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(docs[:100]), peak(docs)
    assert large < 2 * small
    assert large < 4 * 8 * 1_000_000


def test_transform_draws_once_per_length_under_an_int_seed():
    """Under an int ``random_state`` every document restarts one stream,
    so documents of one in-vocabulary length share their initial vector
    and noise ids: ``transform`` draws them once per length.  The output
    is still bit-identical to per-document ``infer_vector``, for a seed
    and for a shared generator, and the noise does not grow with the
    number of same-length documents."""
    import tracemalloc

    rng = np.random.default_rng(1)
    words = [f"w{i}" for i in range(40)]
    corpus = [" ".join(rng.choice(words, 8)) for _ in range(30)]
    model = Doc2Vec(vector_size=8, epochs=1, min_count=1, random_state=0).fit(corpus)
    docs = [" ".join(rng.choice(words, rng.integers(0, 6), replace=False))
            for _ in range(40)] + ["oov tokens only"]
    expected = np.stack([model.infer_vector(d, random_state=7) for d in docs])
    assert np.array_equal(model.transform(docs, random_state=7), expected)
    # A shared generator keeps drawing in document order.
    g1, g2 = np.random.default_rng(5), np.random.default_rng(5)
    expected = np.stack([model.infer_vector(d, random_state=g1) for d in docs])
    assert np.array_equal(model.transform(docs, random_state=g2), expected)

    # 15 tokens, 25 epochs, 5 negatives: 15 KB of noise ids per document
    # if each drew its own.  Small blocks keep the SGD chunks equal.
    same_length = [" ".join(rng.choice(words, 15, replace=False))
                   for _ in range(1000)]
    noise_per_doc = 25 * 15 * 5 * 8

    def peak(batch):
        tracemalloc.start()
        try:
            model.transform(batch, random_state=0, block_elems=90 * 8 * 50)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(same_length) - peak(same_length[:100])
    assert growth < 900 * noise_per_doc / 10
