"""Training-step throughput: fused compute path vs the frozen seed path.

Trains the same RETINA configuration (static and dynamic mode) through the
fused path (``RetinaTrainer.fit`` — fused tape nodes, hoisted recurrent
projections, single-node GRU unroll, flat optimiser updates, hoisted
per-sample state) and through the seed path frozen in
``repro.nn.reference.fit_reference`` (primitive op chains, per-step input
re-projection, per-parameter optimiser loops, per-epoch index rebuilds),
then reports steps/sec and cascades/sec for both.  A built-in parity check
verifies the two paths produced **bit-identical** trained weights — the
fused path is an optimisation, never a numerical change.

Both paths share the same numpy/BLAS arithmetic by construction (bit-
identity pins every expression), so the measured speedup isolates what the
refactor actually removed: tape bookkeeping, redundant projections, and
per-step Python overhead.  The default scale uses a compact feature space
(the overhead-dominated hot-loop regime the refactor targets); pass
``--paper-scale`` for the full-width features, where BLAS time dominates
and the ratio is naturally smaller.

Output is one JSON document on stdout (same contract as
``bench_feature_build.py``); ``--check`` (implied by ``--smoke``) exits
non-zero when parity fails or a mode's speedup drops under its floor — the
CI smoke step runs exactly that on a tiny world.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from pathlib import Path

if __package__ in (None, ""):  # executed as a script: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import add_json_out, emit_report
from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.nn.reference import fit_reference


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=400)
    parser.add_argument("--scale", type=float, default=0.04)
    parser.add_argument("--hashtags", type=int, default=10)
    parser.add_argument("--news", type=int, default=1200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--cascades", type=int, default=50,
                        help="training cascades (each is one mini-batch step)")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--hdim", type=int, default=32)
    parser.add_argument("--history-size", type=int, default=10)
    parser.add_argument("--tweet-top-k", type=int, default=50)
    parser.add_argument("--news-window", type=int, default=20)
    parser.add_argument("--paper-scale", action="store_true",
                        help="full-width features + hdim 64 (BLAS-dominated)")
    parser.add_argument("--min-speedup-static", type=float, default=1.15,
                        help="static-mode speedup floor enforced by --check")
    parser.add_argument("--min-speedup-dynamic", type=float, default=1.4,
                        help="dynamic-mode speedup floor enforced by --check")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on parity failure or low speedup")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-world CI preset (implies --check)")
    add_json_out(parser)
    args = parser.parse_args(argv)
    if args.paper_scale:
        args.history_size, args.tweet_top_k, args.news_window = 30, 300, 60
        args.hdim = 64
    if args.smoke:
        args.users, args.scale, args.hashtags, args.news = 150, 0.02, 6, 300
        args.cascades, args.epochs = 15, 2
        # Loose floors: a loaded CI runner measures per-step times in the
        # tens of microseconds; the gate only needs to catch a regression
        # back toward the seed path.  Parity stays exact.
        args.min_speedup_static = min(args.min_speedup_static, 1.0)
        args.min_speedup_dynamic = min(args.min_speedup_dynamic, 1.1)
        args.check = True
    return args


def _build_model(ext, mode: str, hdim: int, seed: int) -> RETINA:
    return RETINA(
        user_dim=ext.user_feature_dim,
        tweet_dim=ext.news_doc2vec_dim,
        news_dim=ext.news_doc2vec_dim,
        hdim=hdim,
        mode=mode,
        random_state=seed,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = SyntheticWorldConfig(
        scale=args.scale, n_hashtags=args.hashtags, n_users=args.users,
        n_news=args.news, seed=args.seed,
    )
    dataset = HateDiffusionDataset.generate(cfg)
    train, _ = dataset.cascade_split(random_state=args.seed)
    extractor = RetinaFeatureExtractor(
        dataset.world,
        history_size=args.history_size,
        tweet_top_k=args.tweet_top_k,
        news_window=args.news_window,
        random_state=args.seed,
    ).fit(train)
    edges = RetinaTrainer.default_interval_edges()
    samples = extractor.build_samples(
        train[: args.cascades], interval_edges_hours=edges, random_state=0
    )
    steps = args.epochs * len(samples)

    modes: dict[str, dict] = {}
    all_parity = True
    for mode in ("static", "dynamic"):
        # Warm numpy/BLAS and the world caches once per mode, off the clock.
        warm_f = _build_model(extractor, mode, args.hdim, args.seed)
        RetinaTrainer(warm_f, epochs=1, random_state=0).fit(samples[:3])
        warm_r = _build_model(extractor, mode, args.hdim, args.seed)
        fit_reference(warm_r, samples[:3], epochs=1, random_state=0)

        fused = _build_model(extractor, mode, args.hdim, args.seed)
        t0 = time.perf_counter()
        RetinaTrainer(fused, epochs=args.epochs, random_state=0).fit(samples)
        t_fused = time.perf_counter() - t0

        frozen = _build_model(extractor, mode, args.hdim, args.seed)
        t0 = time.perf_counter()
        fit_reference(frozen, samples, epochs=args.epochs, random_state=0)
        t_ref = time.perf_counter() - t0

        sd_f, sd_r = fused.state_dict(), frozen.state_dict()
        parity = set(sd_f) == set(sd_r) and all(
            np.array_equal(sd_f[k], sd_r[k]) for k in sd_f
        )
        all_parity = all_parity and parity

        def leg(seconds):
            return {
                "seconds": round(seconds, 4),
                "steps_per_sec": round(steps / seconds, 1),
                "cascades_per_sec": round(steps / seconds, 1),
            }

        modes[mode] = {
            "fused": leg(t_fused),
            "reference": leg(t_ref),
            "speedup": round(t_ref / t_fused, 2),
            "weight_parity": parity,
        }

    report = {
        "benchmark": "train_step",
        "config": {
            "users": args.users, "scale": args.scale, "hashtags": args.hashtags,
            "news": args.news, "seed": args.seed, "cascades": len(samples),
            "epochs": args.epochs, "hdim": args.hdim,
            "history_size": args.history_size, "tweet_top_k": args.tweet_top_k,
            "news_window": args.news_window,
            "user_feature_dim": extractor.user_feature_dim,
        },
        "steps_per_fit": steps,
        "modes": modes,
        "parity": all_parity,
    }
    emit_report(report, args.json_out)

    if args.check:
        if not all_parity:
            print("FAIL: fused trained weights are not bit-identical to the "
                  "seed path", file=sys.stderr)
            return 1
        floors = {"static": args.min_speedup_static, "dynamic": args.min_speedup_dynamic}
        for mode, floor in floors.items():
            if modes[mode]["speedup"] < floor:
                print(f"FAIL: {mode} speedup {modes[mode]['speedup']}x "
                      f"< required {floor}x", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
