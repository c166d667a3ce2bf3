"""Trainer checkpoint/resume: interrupted fits converge bit-identically.

The recovery contract of ``RetinaTrainer(checkpoint_dir=...)``: a fit
interrupted after any completed epoch and resumed with the same
configuration produces weights *bit-identical* to an uninterrupted run —
the checkpoint carries model weights, optimiser state, RNG state, and the
cumulative epoch shuffle.
"""

import os

import numpy as np
import pytest

from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig

CKPT_CONFIG = SyntheticWorldConfig(
    scale=0.01, n_hashtags=5, n_users=90, n_news=200, seed=11
)


@pytest.fixture(scope="module")
def ckpt_world():
    return HateDiffusionDataset.generate(CKPT_CONFIG)


@pytest.fixture(scope="module")
def ckpt_extractor(ckpt_world):
    train, _ = ckpt_world.cascade_split(random_state=0)
    return RetinaFeatureExtractor(ckpt_world.world, random_state=0).fit(train)


@pytest.fixture(scope="module")
def ckpt_samples(ckpt_extractor, ckpt_world):
    train, _ = ckpt_world.cascade_split(random_state=0)
    edges = RetinaTrainer.default_interval_edges()
    return ckpt_extractor.build_samples(
        train[:10], interval_edges_hours=edges, random_state=0
    )


class _Interrupt(Exception):
    """Stands in for SIGKILL right after a checkpoint lands on disk."""


def _interrupt_after(trainer, epoch_stop):
    orig = trainer._save_checkpoint

    def save_then_die(opt, rng, order, epoch, fingerprint):
        orig(opt, rng, order, epoch, fingerprint)
        if epoch == epoch_stop:
            raise _Interrupt

    trainer._save_checkpoint = save_then_die


def _fresh_model(extractor, mode="static"):
    return RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode=mode,
        random_state=0,
    )


def _states_equal(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    return set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)


class TestSerialResume:
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_interrupted_resume_bit_identical(
        self, ckpt_extractor, ckpt_samples, mode, tmp_path
    ):
        baseline = _fresh_model(ckpt_extractor, mode)
        RetinaTrainer(baseline, epochs=3, random_state=0).fit(ckpt_samples)

        interrupted = _fresh_model(ckpt_extractor, mode)
        trainer = RetinaTrainer(
            interrupted, epochs=3, random_state=0, checkpoint_dir=str(tmp_path)
        )
        _interrupt_after(trainer, 0)
        with pytest.raises(_Interrupt):
            trainer.fit(ckpt_samples)

        resumed = _fresh_model(ckpt_extractor, mode)
        RetinaTrainer(
            resumed, epochs=3, random_state=0, checkpoint_dir=str(tmp_path)
        ).fit(ckpt_samples)
        assert _states_equal(baseline, resumed)

    def test_checkpointing_does_not_change_weights(
        self, ckpt_extractor, ckpt_samples, tmp_path
    ):
        """Chaos off, checkpoints on: same bytes as no checkpoints at all."""
        plain = _fresh_model(ckpt_extractor)
        RetinaTrainer(plain, epochs=2, random_state=0).fit(ckpt_samples)
        ckpt = _fresh_model(ckpt_extractor)
        RetinaTrainer(
            ckpt, epochs=2, random_state=0, checkpoint_dir=str(tmp_path)
        ).fit(ckpt_samples)
        assert _states_equal(plain, ckpt)
        assert os.path.exists(tmp_path / "checkpoint.npz")

    def test_completed_run_resumes_as_noop(
        self, ckpt_extractor, ckpt_samples, tmp_path
    ):
        model = _fresh_model(ckpt_extractor)
        trainer = RetinaTrainer(
            model, epochs=2, random_state=0, checkpoint_dir=str(tmp_path)
        )
        trainer.fit(ckpt_samples)
        frozen = {k: v.copy() for k, v in model.state_dict().items()}
        trainer.fit(ckpt_samples)  # every epoch already checkpointed
        current = model.state_dict()
        assert all(np.array_equal(frozen[k], current[k]) for k in frozen)

    def test_fingerprint_mismatch_is_loud(
        self, ckpt_extractor, ckpt_samples, tmp_path
    ):
        model = _fresh_model(ckpt_extractor)
        RetinaTrainer(
            model, epochs=2, random_state=0, checkpoint_dir=str(tmp_path)
        ).fit(ckpt_samples)
        other = _fresh_model(ckpt_extractor)
        with pytest.raises(ValueError, match="different training configuration"):
            RetinaTrainer(
                other, epochs=3, random_state=0, checkpoint_dir=str(tmp_path)
            ).fit(ckpt_samples)
