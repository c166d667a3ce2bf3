"""Round-trip tests for feature-extractor to_state/from_state."""

import dataclasses

import numpy as np
import pytest

from repro.core.hategen import HateGenFeatureExtractor
from repro.core.retina import RetinaFeatureExtractor, RetinaTrainer
from repro.text.doc2vec import Doc2Vec
from repro.text.tfidf import TfidfVectorizer
from repro.utils.validation import NotFittedError


class TestTextModelState:
    def test_tfidf_round_trip(self):
        docs = ["red fox jumps", "red dog sleeps", "blue fox runs far"]
        vec = TfidfVectorizer(ngram_range=(1, 2), max_features=10).fit(docs)
        clone = TfidfVectorizer.from_state(vec.to_state())
        np.testing.assert_array_equal(clone.transform(docs), vec.transform(docs))
        assert clone.get_feature_names() == vec.get_feature_names()

    def test_tfidf_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            TfidfVectorizer().to_state()

    def test_tfidf_custom_tokenizer_rejected(self):
        vec = TfidfVectorizer(tokenizer=str.split).fit(["a b", "b c"])
        with pytest.raises(ValueError, match="tokenizer"):
            vec.to_state()

    def test_doc2vec_round_trip_inference_identical(self):
        docs = ["red fox jumps high", "red dog sleeps", "blue fox runs far away"] * 3
        d2v = Doc2Vec(vector_size=8, epochs=3, random_state=0).fit(docs)
        clone = Doc2Vec.from_state(d2v.to_state())
        np.testing.assert_array_equal(
            clone.infer_vector("red fox", random_state=0),
            d2v.infer_vector("red fox", random_state=0),
        )
        np.testing.assert_array_equal(
            clone.word_vector("fox"), d2v.word_vector("fox")
        )


class TestHateGenExtractorState:
    def test_matrix_identical_after_round_trip(self, core_world, hategen_data):
        pipeline, *_ = hategen_data
        extractor = pipeline.extractor
        clone = HateGenFeatureExtractor.from_state(
            core_world.world, extractor.to_state()
        )
        _, test = core_world.hategen_split(random_state=0)
        X1, y1 = extractor.matrix(test[:15])
        X2, y2 = clone.matrix(test[:15])
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)

    def test_group_slices_preserved(self, core_world, hategen_data):
        pipeline, *_ = hategen_data
        extractor = pipeline.extractor
        clone = HateGenFeatureExtractor.from_state(
            core_world.world, extractor.to_state()
        )
        t = core_world.world.tweets[0]
        clone.sample_vector(t.user_id, t.hashtag, t.timestamp)
        assert clone.group_slices == extractor.group_slices

    def test_kind_mismatch_rejected(self, core_world):
        with pytest.raises(ValueError, match="hategen_features"):
            HateGenFeatureExtractor.from_state(core_world.world, {"kind": "nope"})

    def test_unfitted_raises(self, core_world):
        with pytest.raises(NotFittedError):
            HateGenFeatureExtractor(core_world.world).to_state()


class TestRetinaExtractorState:
    def test_samples_identical_after_round_trip(self, core_world, retina_data):
        extractor, _, test_samples = retina_data
        clone = RetinaFeatureExtractor.from_state(core_world.world, extractor.to_state())
        sample = test_samples[0]
        edges = RetinaTrainer.default_interval_edges()
        rebuilt = clone.build_sample(
            sample.candidate_set.cascade,
            interval_edges_hours=edges,
            candidate_set=sample.candidate_set,
        )
        for name in ("user_features", "tweet_vec", "news_vecs", "news_tfidf",
                     "labels", "interval_labels"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(sample, name))

    def test_feature_dim_preserved(self, core_world, retina_data):
        extractor, _, _ = retina_data
        clone = RetinaFeatureExtractor.from_state(core_world.world, extractor.to_state())
        assert clone.user_feature_dim == extractor.user_feature_dim

    def test_prior_retweet_counts_preserved(self, core_world, retina_data):
        extractor, _, _ = retina_data
        clone = RetinaFeatureExtractor.from_state(core_world.world, extractor.to_state())
        assert clone._retweeted_before == extractor._retweeted_before

    def test_prior_seq_zero_loads_and_nonzero_is_rejected(self, core_world, retina_data):
        extractor, _, _ = retina_data
        state = extractor.to_state()
        assert "prior_seq" not in state
        state["prior_seq"] = 0  # what bundles saved by older versions carry
        clone = RetinaFeatureExtractor.from_state(core_world.world, state)
        assert clone._retweeted_before == extractor._retweeted_before
        state["prior_seq"] = 3
        with pytest.raises(ValueError, match="past seq 0"):
            RetinaFeatureExtractor.from_state(core_world.world, state)

    def test_fit_rejects_a_world_past_seq_0(self, core_world):
        applied = dataclasses.replace(core_world.world, seq=1)
        with pytest.raises(ValueError, match="generated world"):
            RetinaFeatureExtractor(applied).fit(applied.cascades)

    def test_kind_mismatch_rejected(self, core_world):
        with pytest.raises(ValueError, match="retina_features"):
            RetinaFeatureExtractor.from_state(core_world.world, {"kind": "hategen_features"})
