"""Training instrumentation: per-epoch events, and the bit-identity guarantee.

The telemetry layer may only *read* training state — the acceptance bar is
that weights trained with logging on are byte-for-byte identical to weights
trained with the whole subsystem disabled.
"""

import io
import json

import numpy as np
import pytest

from repro.core.retina import RETINA, RetinaTrainer
from repro.obs import config as obs_config
from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def _reset():
    yield
    obs_log.set_stream(None)
    obs_log.set_level("info")
    obs_config.configure(enabled=True, sample_rate=1.0)


def _fit(extractor, samples, **kwargs):
    model = RETINA(
        extractor.user_feature_dim,
        extractor.news_doc2vec_dim,
        extractor.news_doc2vec_dim,
        hdim=16,
        mode="static",
        random_state=0,
    )
    return RetinaTrainer(model, epochs=2, random_state=0, **kwargs).fit(samples)


def _events(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def test_fit_emits_epoch_events(obs_retina_samples):
    extractor, samples = obs_retina_samples
    stream = io.StringIO()
    obs_log.set_stream(stream)
    obs_config.configure(enabled=True)
    _fit(extractor, samples)
    events = _events(stream)
    assert [e["event"] for e in events] == [
        "fit.start", "train.epoch", "train.epoch", "fit.end",
    ]
    start = events[0]
    assert start["n_samples"] == len(samples)
    assert "layout" not in start
    for i, epoch in enumerate(events[1:3]):
        assert epoch["epoch"] == i
        assert epoch["steps"] > 0
        assert epoch["mean_loss"] > 0.0
        assert epoch["grad_norm"] >= 0.0
        assert epoch["epoch_s"] >= 0.0
    assert events[-1]["duration_s"] >= 0.0


def test_weights_bit_identical_with_obs_on_and_off(obs_retina_samples):
    extractor, samples = obs_retina_samples
    obs_config.configure(enabled=True)
    obs_log.set_stream(io.StringIO())
    traced = _fit(extractor, samples)
    obs_config.configure(enabled=False)
    silent = _fit(extractor, samples)
    for p_t, p_s in zip(traced.model.parameters(), silent.model.parameters()):
        np.testing.assert_array_equal(p_t.data, p_s.data)


def test_disabled_obs_emits_nothing(obs_retina_samples):
    extractor, samples = obs_retina_samples
    stream = io.StringIO()
    obs_log.set_stream(stream)
    obs_config.configure(enabled=False)
    _fit(extractor, samples)
    assert stream.getvalue() == ""
