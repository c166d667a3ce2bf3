"""Quickstart: generate a synthetic Twitter world and inspect hate diffusion.

Walks through the library's four layers in ~a minute of runtime:

1. Generate a synthetic world matching the paper's Table II statistics.
2. Reproduce the Figure 1 analysis (hate vs non-hate diffusion dynamics).
3. Train RETINA (static mode) and predict the retweeters of one tweet.
4. Save a serving bundle, serve it over the HTTP API v1, and query it
   with the typed :class:`repro.client.ServingClient` SDK.

Run:  python examples/quickstart.py
"""

import tempfile

import numpy as np

from repro.analysis import diffusion_curves
from repro.client import ServingClient
from repro.core.retina import (
    RETINA,
    RetinaFeatureExtractor,
    RetinaTrainer,
    evaluate_binary,
    evaluate_ranking,
)
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.serving import AsyncPredictionServer, ModelRegistry, RetinaBundle, engine_from_store
from repro.utils.asciiplot import ascii_series


def main() -> None:
    # ------------------------------------------------------------ 1. world
    print("Generating synthetic Twitter world ...")
    config = SyntheticWorldConfig(
        scale=0.03, n_hashtags=8, n_users=300, n_news=800, seed=11
    )
    dataset = HateDiffusionDataset.generate(config)
    world = dataset.world
    n_hate = sum(t.is_hate for t in world.tweets)
    print(
        f"  {len(world.tweets)} tweets ({n_hate} hateful) by "
        f"{len(world.users)} users; {world.network.n_follows} follow edges; "
        f"{len(world.news)} news articles"
    )

    # ----------------------------------------------------- 2. Fig 1 curves
    curves = diffusion_curves(world, horizon_hours=200.0, n_points=15)
    print()
    print(
        ascii_series(
            curves["retweets"], title="Average cumulative retweets (hate vs non-hate)"
        )
    )
    rt = curves["retweets"]
    print(
        f"  hate cascades reach {rt['hate'][-1]:.1f} retweets on average, "
        f"non-hate {rt['non_hate'][-1]:.1f} — and hateful ones saturate early."
    )

    # -------------------------------------------------- 3. RETINA training
    print()
    print("Training RETINA-S (exogenous attention over news) ...")
    train, test = dataset.cascade_split(random_state=0)
    extractor = RetinaFeatureExtractor(world, random_state=0).fit(train)
    train_samples = extractor.build_samples(train[:120], random_state=0)
    test_samples = extractor.build_samples(test[:40], random_state=1)

    model = RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode="static",
        random_state=0,
    )
    trainer = RetinaTrainer(model, epochs=5, random_state=0).fit(train_samples)

    queries = [
        (s.labels.astype(int), trainer.predict_static_scores(s)) for s in test_samples
    ]
    metrics = {**evaluate_binary(queries), **evaluate_ranking(queries)}
    print(
        f"  test macro-F1 {metrics['macro_f1']:.3f}, AUC {metrics['auc']:.3f}, "
        f"MAP@20 {metrics['map@20']:.3f}"
    )

    # Inspect one cascade's prediction.
    sample = test_samples[0]
    scores = trainer.predict_static_scores(sample)
    order = np.argsort(-scores)[:5]
    root = sample.candidate_set.cascade.root
    print()
    print(
        f"Top-5 predicted retweeters for tweet #{root.tweet_id} "
        f"(#{root.hashtag}, hateful={root.is_hate}):"
    )
    for rank, i in enumerate(order, 1):
        uid = sample.candidate_set.users[i]
        truth = "RETWEETED" if sample.labels[i] == 1 else "did not retweet"
        print(f"  {rank}. user {uid}  p={scores[i]:.3f}  -> {truth}")

    # ------------------------------------------- 4. serve + client SDK
    print()
    print("Serving the trained model over the HTTP API v1 ...")
    with tempfile.TemporaryDirectory() as store:
        registry = ModelRegistry(store)
        manifest = registry.save_bundle(
            "retina-quickstart",
            RetinaBundle(
                model=model, extractor=extractor, world_config=config,
                train_config={"epochs": 5}, metrics=metrics,
            ),
        )
        registry.set_alias("prod", "retina-quickstart", manifest["version"])
        engine = engine_from_store(registry)
        with AsyncPredictionServer(engine, port=0, registry=registry) as server:
            host, port = server.address
            with ServingClient(host=host, port=port) as client:
                print(f"  server up at {server.url}  "
                      f"(health: {client.health().status})")
                info = client.models().models[0]
                print(f"  registry: {info.name} v{info.latest} "
                      f"aliases={info.aliases}")
                response = client.predict_retweeters(
                    root.tweet_id,
                    user_ids=list(sample.candidate_set.users),
                    top_k=5,
                )
                served = np.array(
                    [response.scores[str(u)] for u in sample.candidate_set.users]
                )
                match = np.allclose(served, scores, atol=1e-12)
                print(f"  served scores match in-process: {match}")
                print(f"  top-1 over HTTP: user {response.ranking[0][0]} "
                      f"p={response.ranking[0][1]:.3f}")


if __name__ == "__main__":
    main()
