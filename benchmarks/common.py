"""Shared state for the benchmark suite.

All benchmarks run against one fixed-seed world large enough for stable
statistics; expensive intermediates (feature extractors, samples, trained
models) are memoised so each table/figure bench only pays for what it
uniquely needs.  Every bench prints the paper's reference values alongside
the measured ones.
"""

from __future__ import annotations

import argparse
import json
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
from repro.data import HateDiffusionDataset, SyntheticWorldConfig

BENCH_SEED = 42

#: Training-subset cap for the neural models (keeps the suite's wall-clock
#: in minutes; the comparison stays apples-to-apples since every neural
#: model sees the same subset).
NEURAL_TRAIN_CAP = 250
NEURAL_TEST_CAP = 80


@lru_cache(maxsize=1)
def get_dataset() -> HateDiffusionDataset:
    """The benchmark world (larger than the test worlds)."""
    cfg = SyntheticWorldConfig(
        scale=0.05,
        n_hashtags=12,
        n_users=500,
        n_news=2000,
        seed=BENCH_SEED,
    )
    return HateDiffusionDataset.generate(cfg)


@lru_cache(maxsize=1)
def get_cascade_splits():
    ds = get_dataset()
    return ds.cascade_split(random_state=BENCH_SEED)


@lru_cache(maxsize=1)
def get_retina_extractor() -> RetinaFeatureExtractor:
    train, _ = get_cascade_splits()
    ds = get_dataset()
    return RetinaFeatureExtractor(ds.world, random_state=BENCH_SEED).fit(train)


@lru_cache(maxsize=1)
def get_retina_samples():
    """(train_samples, test_samples) with dynamic interval labels.

    Test candidate pools carry extra negatives so the Fig. 5 ranking task
    does not saturate (HITS@k stays informative out to k=100).
    """
    ext = get_retina_extractor()
    train, test = get_cascade_splits()
    edges = RetinaTrainer.default_interval_edges()
    tr = ext.build_samples(
        train[:NEURAL_TRAIN_CAP], interval_edges_hours=edges, random_state=0
    )
    train_negatives = ext.n_negatives
    ext.n_negatives = 100
    try:
        te = ext.build_samples(
            test[:NEURAL_TEST_CAP], interval_edges_hours=edges, random_state=1
        )
    finally:
        ext.n_negatives = train_negatives
    return tr, te


@lru_cache(maxsize=4)
def get_trained_retina(mode: str, use_exogenous: bool = True, epochs: int = 8):
    """A trained RETINA(+trainer) for the given configuration."""
    ext = get_retina_extractor()
    tr, _ = get_retina_samples()
    model = RETINA(
        user_dim=ext.user_feature_dim,
        tweet_dim=ext.news_doc2vec_dim,
        news_dim=ext.news_doc2vec_dim,
        mode=mode,
        use_exogenous=use_exogenous,
        random_state=BENCH_SEED,
    )
    trainer = RetinaTrainer(model, epochs=epochs, random_state=BENCH_SEED)
    trainer.fit(tr)
    return trainer


def retina_queries(trainer) -> list[tuple[np.ndarray, np.ndarray]]:
    """(labels, static scores) per test cascade."""
    _, te = get_retina_samples()
    return [(s.labels.astype(int), trainer.predict_static_scores(s)) for s in te]


@lru_cache(maxsize=1)
def get_hategen_matrices():
    """(pipeline, X_tr, y_tr, X_te, y_te) for the hate-generation task."""
    from repro.core.hategen import HateGenFeatureExtractor, HateGenerationPipeline

    ds = get_dataset()
    train, test = ds.hategen_split(random_state=BENCH_SEED)
    extractor = HateGenFeatureExtractor(ds.world, doc2vec_epochs=6, random_state=BENCH_SEED)
    pipeline = HateGenerationPipeline(extractor, random_state=BENCH_SEED)
    X_tr, y_tr, X_te, y_te = pipeline.prepare(train, test)
    return pipeline, X_tr, y_tr, X_te, y_te


def run_once(benchmark, fn):
    """Run an expensive benchmark body exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# --------------------------------------------------------- JSON reporting
# Every benchmark script shares one reporting contract: a JSON document on
# stdout, plus ``--json-out PATH`` to archive it (CI stores BENCH_*.json
# trajectories across PRs).


def json_ready(value):
    """Recursively convert a report to JSON-serialisable builtins."""
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def add_json_out(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared ``--json-out`` flag to a benchmark's CLI."""
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write the JSON report to PATH (e.g. BENCH_train_step.json)",
    )
    return parser


# ------------------------------------------------------------ host cores
def available_cores() -> int:
    """Cores this process may use (what gates concurrency-sensitive floors)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def floor_enforceable(cores: int) -> bool:
    """Whether a floor that needs ``cores`` concurrent cores is meaningful here."""
    return available_cores() >= cores


def emit_report(report: dict, json_out: str | None = None) -> dict:
    """Print a benchmark report as JSON and optionally archive it.

    Every report is stamped with a ``run_record`` — git SHA, host, the
    telemetry switches, accumulated metric counters, and the slowest spans
    seen during the run — so an archived ``BENCH_*.json`` says what
    produced its numbers without consulting CI logs.
    """
    from repro.obs import run_record

    report = dict(report)
    report.setdefault("run_record", run_record())
    report = json_ready(report)
    text = json.dumps(report, indent=2)
    print(text)
    if json_out:
        Path(json_out).write_text(text + "\n")
    return report


def standalone_main(run_fn, name: str, argv=None) -> int:
    """Uniform ``__main__`` entry point for the figure/table benchmarks.

    Parses the shared ``--json-out`` flag, executes the benchmark body and
    emits ``{"benchmark": name, "results": ...}``.
    """
    parser = argparse.ArgumentParser(description=f"repro benchmark: {name}")
    add_json_out(parser)
    args = parser.parse_args(argv)
    emit_report({"benchmark": name, "results": run_fn()}, args.json_out)
    return 0
