"""Session fixtures for serving tests: one tiny world, trained bundles."""

import asyncio

import pytest

from repro.core.hategen import HateGenFeatureExtractor, HateGenerationPipeline
from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.serving import HateGenBundle, ModelRegistry, RetinaBundle

SERVING_CONFIG = SyntheticWorldConfig(
    scale=0.01, n_hashtags=5, n_users=120, n_news=300, seed=3
)


@pytest.fixture(scope="session")
def serving_world():
    return HateDiffusionDataset.generate(SERVING_CONFIG)


@pytest.fixture(scope="session")
def trained_retina(serving_world):
    """(trainer, extractor, test_samples) — a quickly trained static RETINA."""
    train, test = serving_world.cascade_split(random_state=0)
    extractor = RetinaFeatureExtractor(serving_world.world, random_state=0).fit(train)
    edges = RetinaTrainer.default_interval_edges()
    tr = extractor.build_samples(train[:40], interval_edges_hours=edges, random_state=0)
    te = extractor.build_samples(test[:6], interval_edges_hours=edges, random_state=1)
    model = RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode="static",
        random_state=0,
    )
    trainer = RetinaTrainer(model, epochs=1, random_state=0).fit(tr)
    return trainer, extractor, te


@pytest.fixture(scope="session")
def trained_hategen(serving_world):
    """(pipeline, test_tweets) — a fitted logreg/ds hate-generation chain."""
    train, test = serving_world.hategen_split(random_state=0)
    extractor = HateGenFeatureExtractor(
        serving_world.world, doc2vec_epochs=4, random_state=0
    )
    pipeline = HateGenerationPipeline(extractor, random_state=0)
    X_tr, y_tr, X_te, y_te = pipeline.prepare(train, test)
    pipeline.run("logreg", "ds", X_tr, y_tr, X_te, y_te)
    return pipeline, test


@pytest.fixture(scope="session")
def registry(tmp_path_factory, trained_retina, trained_hategen):
    """A registry holding one version each of a retina and a hategen bundle."""
    reg = ModelRegistry(tmp_path_factory.mktemp("registry"))
    trainer, extractor, _ = trained_retina
    reg.save_bundle(
        "retina",
        RetinaBundle(
            model=trainer.model,
            extractor=extractor,
            world_config=SERVING_CONFIG,
            train_config={"epochs": 1, "mode": "static"},
            metrics={"map": 0.5},
        ),
    )
    pipeline, _ = trained_hategen
    reg.save_bundle(
        "hategen",
        HateGenBundle(
            model=pipeline.fitted_model_,
            transforms=pipeline.fitted_transforms_,
            extractor=pipeline.extractor,
            world_config=SERVING_CONFIG,
            model_key="logreg",
            variant="ds",
            metrics={"macro_f1": 0.5},
        ),
    )
    return reg


@pytest.fixture(scope="session")
def loaded_bundles(registry, serving_world):
    """Bundles loaded back from disk, sharing the in-memory world."""
    retina = registry.load_bundle("retina", world=serving_world.world)
    hategen = registry.load_bundle("hategen", world=serving_world.world)
    return {"retina": retina, "hategen": hategen}


@pytest.fixture()
def on_loop():
    """``on_loop(srv, make)``: await ``make()`` on a running server's loop.

    Calls made there reach the engine's batcher queue, as a handler's do;
    returns a :class:`concurrent.futures.Future` of the awaited result.
    """

    def run(srv, make):
        async def await_it():
            return await make()

        return asyncio.run_coroutine_threadsafe(await_it(), srv._loop)

    return run


@pytest.fixture()
def batched():
    """``batched(engine, submit)``: run ``submit()`` inside
    ``engine.batching()`` on a fresh loop, before the batcher has run, so
    everything it submits is queued at once; returns its futures, settled.
    Leaving the block stops the engine: ``start()`` it to submit again.
    """

    def run(engine, submit):
        async def main():
            async with engine.batching():
                futures = submit()
                await asyncio.wait(futures)
            return futures

        return asyncio.run(main())

    return run
