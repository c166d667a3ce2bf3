"""Golden parity: the fused compute path trains bit-identical weights.

The seed forward/training path is frozen verbatim in
:mod:`repro.nn.reference`; training the same RETINA configuration through
the fused path (``RetinaTrainer.fit``) and the frozen path
(``fit_reference``) must yield **bit-identical** weights — same op-order
math, same RNG stream — in both modes, with both optimisers, and for every
recurrent cell.  ``Doc2Vec.transform`` must likewise reproduce the per-doc
``infer_vector`` loop bit for bit, and the packed serving forward must
equal the tape forward.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.retina import RETINA, RetinaTrainer
from repro.nn.reference import fit_reference
from repro.text.doc2vec import Doc2Vec


def _build_pair(extractor, mode, cell="gru", hdim=16, seed=7):
    def build():
        return RETINA(
            user_dim=extractor.user_feature_dim,
            tweet_dim=extractor.news_doc2vec_dim,
            news_dim=extractor.news_doc2vec_dim,
            hdim=hdim,
            mode=mode,
            recurrent_cell=cell,
            random_state=seed,
        )

    return build(), build()


def _assert_same_weights(m1, m2):
    sd1, sd2 = m1.state_dict(), m2.state_dict()
    assert set(sd1) == set(sd2)
    for key in sd1:
        np.testing.assert_array_equal(sd1[key], sd2[key], err_msg=f"weights differ: {key}")


class TestTrainedWeightGolden:
    @pytest.mark.parametrize(
        "mode,optimizer",
        [("static", "adam"), ("static", "sgd"), ("dynamic", "sgd"), ("dynamic", "adam")],
    )
    def test_modes_and_optimisers(self, retina_data, mode, optimizer):
        extractor, tr, _ = retina_data
        samples = tr[:20]
        fused, frozen = _build_pair(extractor, mode)
        RetinaTrainer(fused, optimizer=optimizer, epochs=2, random_state=5).fit(samples)
        fit_reference(frozen, samples, optimizer=optimizer, epochs=2, random_state=5)
        _assert_same_weights(fused, frozen)

    @pytest.mark.parametrize("cell", ["rnn", "lstm"])
    def test_ablation_cells(self, retina_data, cell):
        extractor, tr, _ = retina_data
        samples = tr[:12]
        fused, frozen = _build_pair(extractor, "dynamic", cell=cell)
        RetinaTrainer(fused, epochs=2, random_state=3).fit(samples)
        fit_reference(frozen, samples, epochs=2, random_state=3)
        _assert_same_weights(fused, frozen)

    def test_trained_predictions_match(self, retina_data):
        """Not just the weights: post-training predictions agree too."""
        extractor, tr, te = retina_data
        fused, frozen = _build_pair(extractor, "dynamic")
        RetinaTrainer(fused, epochs=1, random_state=1).fit(tr[:15])
        fit_reference(frozen, tr[:15], epochs=1, random_state=1)
        s = te[0]
        np.testing.assert_array_equal(
            fused.predict_proba(s.user_features, s.tweet_vec, s.news_vecs),
            frozen.predict_proba(s.user_features, s.tweet_vec, s.news_vecs),
        )


class TestPackedForwardGolden:
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_single_cascade_bit_exact(self, retina_data, mode):
        """One pack == the tape forward, bit for bit (identical shapes)."""
        extractor, tr, _ = retina_data
        model, _ = _build_pair(extractor, mode)
        for s in tr[:5]:
            tape = model.predict_proba_blocks(
                s.cand_features, s.shared_features, s.tweet_vec, s.news_vecs
            )
            packed = model.predict_proba_packed(
                [(s.cand_features, s.shared_features, s.tweet_vec, s.news_vecs)]
            )[0]
            np.testing.assert_array_equal(packed, tape)

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_cross_cascade_pack(self, retina_data, mode):
        """Packing several cascades returns each cascade's own scores.

        Within a pack the BLAS batch shapes change, so equality is asserted
        to float precision rather than bitwise.
        """
        extractor, tr, _ = retina_data
        model, _ = _build_pair(extractor, mode)
        packs = [
            (s.cand_features, s.shared_features, s.tweet_vec, s.news_vecs) for s in tr[:6]
        ]
        packed = model.predict_proba_packed(packs)
        assert len(packed) == 6
        for s, got in zip(tr[:6], packed):
            solo = model.predict_proba_blocks(
                s.cand_features, s.shared_features, s.tweet_vec, s.news_vecs
            )
            assert got.shape == solo.shape
            np.testing.assert_allclose(got, solo, rtol=1e-12, atol=1e-14)

    def test_dagger_variant_packed(self, retina_data):
        """The no-exogenous ablation skips attention in the packed path too."""
        extractor, tr, _ = retina_data
        model = RETINA(
            user_dim=extractor.user_feature_dim,
            tweet_dim=extractor.news_doc2vec_dim,
            news_dim=extractor.news_doc2vec_dim,
            hdim=16,
            mode="static",
            use_exogenous=False,
            random_state=2,
        )
        s = tr[0]
        np.testing.assert_array_equal(
            model.predict_proba_packed(
                [(s.cand_features, s.shared_features, s.tweet_vec, s.news_vecs)]
            )[0],
            model.predict_proba_blocks(
                s.cand_features, s.shared_features, s.tweet_vec, s.news_vecs
            ),
        )


class TestDoc2VecTransformGolden:
    @pytest.fixture(scope="class")
    def corpus_model(self):
        rng = np.random.default_rng(0)
        words = [f"tok{i}" for i in range(150)]
        docs = [" ".join(rng.choice(words, size=rng.integers(1, 25))) for _ in range(90)]
        docs += ["totally unseen words only", ""]
        model = Doc2Vec(vector_size=20, epochs=3, min_count=1, random_state=9).fit(docs[:60])
        return model, docs

    def test_fixed_seed_bit_exact(self, corpus_model):
        model, docs = corpus_model
        reference = np.stack([model.infer_vector(d, random_state=4) for d in docs])
        np.testing.assert_array_equal(model.transform(docs, random_state=4), reference)

    def test_default_seed_bit_exact(self, corpus_model):
        model, docs = corpus_model
        reference = np.stack([model.infer_vector(d) for d in docs])
        np.testing.assert_array_equal(model.transform(docs), reference)

    def test_shared_generator_stream_preserved(self, corpus_model):
        model, docs = corpus_model
        g1, g2 = np.random.default_rng(77), np.random.default_rng(77)
        reference = np.stack([model.infer_vector(d, random_state=g1) for d in docs])
        np.testing.assert_array_equal(model.transform(docs, random_state=g2), reference)
        # and both generators end at the same stream position
        assert g1.random() == g2.random()

    def test_small_blocks_bit_exact(self, corpus_model):
        model, docs = corpus_model
        reference = model.transform(docs, random_state=6)
        chunked = model.transform(docs, random_state=6, block_elems=4000)
        np.testing.assert_array_equal(chunked, reference)
        # Not vacuous: some length bucket holds more documents than one
        # 4000-float epoch block (m * k floats per document), so it splits.
        buckets = Counter(len(model._doc_word_ids(d)) for d in docs)
        m_k = (1 + model.negative) * model.vector_size
        assert any(
            n and count > 1 and count * n * m_k > 4000 for n, count in buckets.items()
        )

    def test_empty_input(self, corpus_model):
        model, _ = corpus_model
        assert model.transform([]).shape == (0, model.vector_size)
