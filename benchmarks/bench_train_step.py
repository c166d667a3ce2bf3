"""Training-step throughput: fused compute path vs the frozen seed path.

Trains the same RETINA configuration (static and dynamic mode) through the
fused path (``RetinaTrainer.fit`` — fused tape nodes, hoisted recurrent
projections, single-node GRU unroll, flat optimiser updates, hoisted
per-sample state) and through the seed path frozen in
``repro.nn.reference.fit_reference`` (primitive op chains, per-step input
re-projection, per-parameter optimiser loops, per-epoch index rebuilds),
then reports steps/sec and cascades/sec for both (the median of
``REPEATS`` interleaved pairs, after one untimed pair).  A built-in
parity check verifies the two paths produced **bit-identical** trained
weights — the fused path is an optimisation, never a numerical change.

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

#: Interleaved fused/reference timing pairs per mode.
REPEATS = 3


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


def _timed_fit(path: str, extractor, mode: str, samples, args) -> tuple[float, dict]:
    """Train a fresh model through ``path``; (seconds, trained weights)."""
    model = _build_model(extractor, mode, args.hdim, args.seed)
    t0 = time.perf_counter()
    if path == "fused":
        RetinaTrainer(model, epochs=args.epochs, random_state=0).fit(samples)
    else:
        fit_reference(model, samples, epochs=args.epochs, random_state=0)
    return time.perf_counter() - t0, model.state_dict()


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
        # One untimed pair at the timed shape first: a short warm-up left
        # the first timed pair the slowest of its run.
        warm = {path: _timed_fit(path, extractor, mode, samples, args)[0]
                for path in ("fused", "reference")}

        # Interleaved pairs, alternating which path runs first, so a host
        # slowdown lands on both legs of a pair; the speedup is the median
        # of the per-pair ratios.
        fused_s, ref_s, ratios = [], [], []
        parity = True
        for r in range(REPEATS):
            paths = ("fused", "reference") if r % 2 == 0 else ("reference", "fused")
            timed = {path: _timed_fit(path, extractor, mode, samples, args) for path in paths}
            (t_fused, sd_f), (t_ref, sd_r) = timed["fused"], timed["reference"]
            parity = parity and set(sd_f) == set(sd_r) and all(
                np.array_equal(sd_f[k], sd_r[k]) for k in sd_f
            )
            fused_s.append(t_fused)
            ref_s.append(t_ref)
            ratios.append(t_ref / t_fused)
        all_parity = all_parity and parity

        def leg(seconds):
            return {
                "seconds": round(seconds, 4),
                "steps_per_sec": round(steps / seconds, 1),
                "cascades_per_sec": round(steps / seconds, 1),
            }

        modes[mode] = {
            "fused": leg(float(np.median(fused_s))),
            "reference": leg(float(np.median(ref_s))),
            "speedup": round(float(np.median(ratios)), 2),
            "pair_speedups": [round(x, 2) for x in ratios],
            "warmup_speedup": round(warm["reference"] / warm["fused"], 2),
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
