"""The paper pipeline in a fresh interpreter, as the CLI defaults run it.

Usage: ``python perfbench/reproduce.py --out R.json --workdir D --seed N
[--setup-only] [--trace]``.  Generates the CLI-default world (seed 0 —
the configuration whose macro-F1 values are recorded in run.py), then:

- RETINA-D: extractor fit, ``build_samples``, ``RetinaTrainer.fit``,
  evaluation and ``save_bundle``;
- hate generation: ``HateGenerationPipeline.prepare``/``run`` with the
  decision tree and the CLI default variant;
- serving the saved bundle in-process through ``engine_from_store``:
  every test cascade's candidates are scored with ``engine.predict`` and
  checked against the evaluation's scores (a cold pass, then timed warm
  passes).

Only the last phase uses ``--seed``, which orders the test cascades of the
warm passes: the pipeline is pinned to seed 0 so its results can be
checked.  The result JSON carries phase timestamps
(``time.perf_counter``, comparable with the parent's clock), checks,
and with ``--trace`` the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import numpy as np

from load import check_read
from spans import Recorder, install_serving

WORLD = dict(scale=0.03, n_hashtags=10, n_users=300, n_news=1000, seed=0)
#: Passes over the test cascades: the first (cold caches) is checked but
#: not timed, the rest are the measured predictions (~600 calls, ~3 s;
#: three passes, ~1 s, gave a ten-run spread of 0.25 for predict_rps).
PREDICT_PASSES = 10


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from repro.data import HateDiffusionDataset, SyntheticWorldConfig

    rec = Recorder()
    with rec.span("generate"):
        dataset = HateDiffusionDataset.generate(SyntheticWorldConfig(**WORLD))
    out = {"t_world": time.perf_counter()}
    if not args.setup_only:
        out.update(pipeline(args, dataset, rec))
        out["t_end"] = time.perf_counter()
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = usage / 1024.0
    if args.trace:
        out["spans"] = rec.spans
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def pipeline(args, dataset, rec: Recorder) -> dict:
    from repro.nn import optim

    steps = [0]
    if args.trace:
        install_serving(rec)
        for cls in (optim.Adam, optim.SGD):  # RETINA-D trains with SGD
            def counted_step(self, *a, _step=cls.step, **k):
                steps[0] += 1
                return _step(self, *a, **k)

            cls.step = counted_step

    # Imported after the wrappers are installed, so module-level functions
    # such as engine_from_store bind to the wrapped versions.
    from repro.core.hategen import HateGenFeatureExtractor, HateGenerationPipeline
    from repro.core.retina import (
        RETINA, RetinaFeatureExtractor, RetinaTrainer, evaluate_binary, evaluate_ranking,
    )
    from repro.parallel import resolve_workers
    from repro.serving import ModelRegistry, RetinaBundle, engine_from_store

    world = dataset.world
    workers = resolve_workers(None, default=os.cpu_count() or 1)  # the CLI policy
    train, test = dataset.cascade_split(random_state=0)
    with rec.span("features.fit"):
        extractor = RetinaFeatureExtractor(world, random_state=0, workers=workers).fit(train)
    edges = RetinaTrainer.default_interval_edges()
    with rec.span("features.build"):
        tr = extractor.build_samples(train, interval_edges_hours=edges, random_state=0)
        te = extractor.build_samples(test, interval_edges_hours=edges, random_state=1)
    model = RETINA(user_dim=extractor.user_feature_dim, tweet_dim=extractor.news_doc2vec_dim,
                   news_dim=extractor.news_doc2vec_dim, mode="dynamic", random_state=0)
    with rec.span("nn.fit"):
        trainer = RetinaTrainer(model, epochs=6, random_state=0).fit(tr)
    with rec.span("eval"):
        queries = [(s.labels.astype(int), trainer.predict_static_scores(s)) for s in te]
        retina = {**evaluate_binary(queries), **evaluate_ranking(queries)}
    store = os.path.join(args.workdir, "registry")
    with rec.span("registry.save"):
        ModelRegistry(store).save_bundle("retina", RetinaBundle(
            model=model, extractor=extractor, world_config=world.config,
            train_config={"epochs": 6, "mode": "dynamic", "seed": 0}, metrics=retina))

    tweets_tr, tweets_te = dataset.hategen_split(random_state=0)
    hategen = HateGenerationPipeline(
        HateGenFeatureExtractor(world, random_state=0, workers=workers), random_state=0)
    with rec.span("hategen.prepare"):
        matrices = hategen.prepare(tweets_tr, tweets_te)
    with rec.span("hategen.fit"):
        result = hategen.run("dectree", "ds", *matrices)
    out = {"t_trained": time.perf_counter(), "steps": steps[0],
           "retina_macro_f1": retina["macro_f1"], "hategen_macro_f1": result.macro_f1}

    # Serve the saved bundle: the evaluation's scores must come back.
    errors: list[str] = []
    predict_ms = []
    pairs = list(zip(te, queries))
    order = np.random.default_rng(args.seed).permutation(len(pairs))
    t_setup = time.perf_counter()
    with rec.span("serve.setup"):
        engine = engine_from_store(store, workers=1)
    out["serve_setup_s"] = time.perf_counter() - t_setup
    with engine:
        for p in range(PREDICT_PASSES):
            if p == 1:
                out["t_predict"] = time.perf_counter()
                caches = [engine.metrics()["retweeters"]["caches"]]
            for sample, (_, expected) in (pairs[i] for i in order):
                payload = {"cascade_id": int(sample.candidate_set.cascade.root.tweet_id),
                           "user_ids": [int(u) for u in sample.candidate_set.users]}
                t0 = time.perf_counter()
                reply = engine.predict("retweeters", payload)
                if p:
                    predict_ms.append((time.perf_counter() - t0) * 1e3)
                problem = check_read(payload, reply)
                served = np.array([reply["scores"][str(u)] for u in payload["user_ids"]])
                if problem is None and not np.allclose(served, expected, rtol=0, atol=1e-12):
                    problem = "served scores differ from the evaluation's"
                if problem:
                    errors.append(f"predict {payload['cascade_id']}: {problem}")
        out["t_served"] = time.perf_counter()
        out["caches"] = caches + [engine.metrics()["retweeters"]["caches"]]
    out.update(predict_ms=predict_ms, errors=errors)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
