"""Feature-build throughput: seed per-candidate path vs columnar pipeline.

Times ``RetinaFeatureExtractor.build_samples`` (the columnar pipeline in
``repro.features``) against the frozen seed per-candidate implementation
(``repro.features.reference``) on the same fitted extractor, and verifies
the two produce bit-identical samples.

Two scenarios are timed per path:

- ``cold`` — empty caches: the first build after a fit, dominated by the
  one-off per-user history blocks both paths must compute;
- ``warm`` — user blocks and embeddings resident: the steady-state rebuild
  rate, which is what training sweeps, the repo's figure/table benchmarks,
  and the serving layer actually experience.  The seed path re-runs its
  per-(root, candidate) BFS and per-row assembly every time, so this is
  where the columnar refactor shows.

Output is one JSON document on stdout.  ``--check`` (implied by
``--smoke``) exits non-zero when parity fails or the warm speedup drops
under ``--min-speedup`` — the CI smoke step runs exactly that on a tiny
world so the benchmark can never rot.
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
from repro.core.retina import RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.features import build_samples_reference


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=1500)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--hashtags", type=int, default=12)
    parser.add_argument("--news", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--cascades", type=int, default=200,
                        help="number of cascades per timed build")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="warm-speedup floor enforced by --check")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on parity failure or low speedup")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-world CI preset (implies --check)")
    add_json_out(parser)
    args = parser.parse_args(argv)
    if args.smoke:
        args.users, args.scale, args.hashtags, args.news = 150, 0.02, 6, 300
        args.cascades = 40
        # Loose floor: on a loaded CI runner the ~10ms warm columnar leg is
        # noise-prone; the gate only needs to catch a real regression back
        # toward the seed path (measured headroom here is ~8x).
        args.min_speedup = min(args.min_speedup, 1.2)
        args.check = True
    return args


def _parity(columnar, reference) -> bool:
    fields = ("user_features", "labels", "interval_labels", "tweet_vec",
              "news_vecs", "news_tfidf")
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for a, b in zip(columnar, reference)
        for f in fields
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = SyntheticWorldConfig(
        scale=args.scale, n_hashtags=args.hashtags, n_users=args.users,
        n_news=args.news, seed=args.seed,
    )
    dataset = HateDiffusionDataset.generate(cfg)
    train, test = dataset.cascade_split(random_state=args.seed)
    extractor = RetinaFeatureExtractor(dataset.world, random_state=args.seed).fit(train)
    cascades = (train + test)[: args.cascades]
    edges = RetinaTrainer.default_interval_edges()

    def time_columnar():
        t0 = time.perf_counter()
        samples = extractor.build_samples(
            cascades, interval_edges_hours=edges, random_state=0
        )
        return samples, time.perf_counter() - t0

    ref_cache: dict = {}

    def time_reference():
        t0 = time.perf_counter()
        samples = build_samples_reference(
            extractor, cascades, interval_edges_hours=edges, random_state=0,
            user_cache=ref_cache,
        )
        return samples, time.perf_counter() - t0

    # Cold pass: store/caches empty on both sides (fit leaves them empty).
    columnar, t_col_cold = time_columnar()
    reference, t_ref_cold = time_reference()
    parity = _parity(columnar, reference)
    # Warm pass: per-user blocks and embeddings resident on both sides.
    _, t_col_warm = time_columnar()
    _, t_ref_warm = time_reference()

    n = len(cascades)

    def leg(seconds):
        return {"seconds": round(seconds, 4),
                "cascades_per_sec": round(n / seconds, 1)}

    report = {
        "benchmark": "feature_build",
        "config": {"users": args.users, "scale": args.scale,
                   "hashtags": args.hashtags, "news": args.news,
                   "seed": args.seed},
        "n_cascades": n,
        "cold": {"reference": leg(t_ref_cold), "columnar": leg(t_col_cold),
                 "speedup": round(t_ref_cold / t_col_cold, 2)},
        "warm": {"reference": leg(t_ref_warm), "columnar": leg(t_col_warm),
                 "speedup": round(t_ref_warm / t_col_warm, 2)},
        "parity": parity,
    }
    emit_report(report, args.json_out)
    if args.check:
        if not parity:
            print("FAIL: columnar features are not bit-identical to the seed path",
                  file=sys.stderr)
            return 1
        if report["warm"]["speedup"] < args.min_speedup:
            print(f"FAIL: warm speedup {report['warm']['speedup']}x "
                  f"< required {args.min_speedup}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
