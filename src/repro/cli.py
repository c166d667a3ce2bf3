"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Generate a synthetic world and print its Table II statistics.
``analyze``
    Print the Figure 1-3 analyses for a generated world.
``train-retina``
    Train RETINA on a generated world, report test metrics, and optionally
    save a serving bundle to a model registry.
``train-hategen``
    Run the hate-generation pipeline (one model/variant), report metrics,
    and optionally save a serving bundle.
``serve``
    Load registry bundles and serve predictions over the API v1 HTTP
    surface (including ``/v1/models*`` lifecycle routes).
``predict``
    One-shot prediction — in-process from a registry bundle
    (``--store``), or against a running server via the
    :class:`repro.client.ServingClient` SDK (``--url``).
``ingest``
    Stream JSONL events (file or stdin) into a running server's durable
    event log via ``POST /v1/ingest``.

All world-building commands accept ``--seed``, ``--scale``, ``--users``,
``--hashtags`` to control the world.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Hate is the New Infodemic' (ICDE 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p):
        p.add_argument("--seed", type=int, default=0, help="world RNG seed")
        p.add_argument("--scale", type=float, default=0.03, help="Table II tweet-count scale")
        p.add_argument("--users", type=int, default=300, help="number of users")
        p.add_argument("--hashtags", type=int, default=10, help="number of hashtags")
        p.add_argument("--news", type=int, default=1000, help="number of news articles")

    g = sub.add_parser("generate", help="generate a world and print Table II stats")
    add_world_args(g)

    a = sub.add_parser("analyze", help="print Figure 1-3 analyses")
    add_world_args(a)

    r = sub.add_parser("train-retina", help="train RETINA and report metrics")
    add_world_args(r)
    r.add_argument("--mode", choices=("static", "dynamic"), default="static")
    r.add_argument("--epochs", type=int, default=6)
    r.add_argument("--no-exogenous", action="store_true", help="train the dagger variant")
    r.add_argument("--save", type=str, default=None, metavar="STORE",
                   help="model-registry directory to save a serving bundle into")
    r.add_argument("--name", type=str, default="retina",
                   help="bundle name inside the registry (with --save)")

    h = sub.add_parser("train-hategen", help="run the hate-generation pipeline")
    add_world_args(h)
    h.add_argument("--model", default="dectree", help="model key (Table III)")
    h.add_argument("--variant", default="ds", help="processing variant (Table IV)")
    h.add_argument("--save", type=str, default=None, metavar="STORE",
                   help="model-registry directory to save a serving bundle into")
    h.add_argument("--name", type=str, default="hategen",
                   help="bundle name inside the registry (with --save)")

    s = sub.add_parser("serve", help="serve registry bundles over HTTP")
    s.add_argument("--store", required=True, help="model-registry directory")
    s.add_argument("--name", action="append", default=None, metavar="NAME",
                   help="bundle name to load (repeatable; default: every model)")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8000)
    s.add_argument("--batch-size", type=int, default=64,
                   help="micro-batch cap of the inference engine")
    s.add_argument("--no-admission", action="store_true",
                   help="disable admission control (429 + Retry-After once "
                        "the engine queue's oldest request has waited "
                        "0.1 s, or 512 requests are in flight)")
    s.add_argument("--quiet", action="store_true",
                   help="accepted and ignored: the server writes no request logs")

    i = sub.add_parser("ingest", help="stream JSONL events into a running server")
    i.add_argument("--url", required=True, metavar="URL",
                   help="base URL of a running server")
    i.add_argument("events", metavar="FILE",
                   help="JSONL file of events, one object per line ('-' = stdin)")
    i.add_argument("--batch-size", type=int, default=256,
                   help="events per POST /v1/ingest call")
    i.add_argument("--quiet", action="store_true",
                   help="print only the final summary line")

    p = sub.add_parser("predict", help="one-shot prediction from a registry bundle")
    p.add_argument("--store", default=None, help="model-registry directory (in-process)")
    p.add_argument("--url", default=None, metavar="URL",
                   help="base URL of a running server (predict via the client SDK)")
    p.add_argument("--name", required=True, help="bundle name to load")
    p.add_argument("--version", type=int, default=None, help="bundle version (default latest)")
    p.add_argument("--cascade", type=int, default=None, help="cascade id (retina bundles)")
    p.add_argument("--users", type=int, nargs="*", default=None,
                   help="candidate user ids (retina bundles; default: audience)")
    p.add_argument("--interval", type=int, default=None,
                   help="dynamic-mode time interval index")
    p.add_argument("--top-k", type=int, default=10, help="ranking size to print")
    p.add_argument("--user", type=int, default=None, help="user id (hategen bundles)")
    p.add_argument("--hashtag", type=str, default=None, help="hashtag (hategen bundles)")
    p.add_argument("--timestamp", type=float, default=None,
                   help="query time in hours (hategen bundles)")
    return parser


def _make_dataset(args):
    from repro.data import HateDiffusionDataset, SyntheticWorldConfig

    config = SyntheticWorldConfig(
        scale=args.scale,
        n_hashtags=args.hashtags,
        n_users=args.users,
        n_news=args.news,
        seed=args.seed,
    )
    return HateDiffusionDataset.generate(config)


def _cmd_generate(args) -> int:
    from repro.utils.tables import render_table

    dataset = _make_dataset(args)
    stats = dataset.world.hashtag_stats()
    rows = [
        [s["tag"][:24], s["tweets"], round(s["avg_rt"], 2), s["users"], round(s["pct_hate"], 2)]
        for s in stats
    ]
    print(render_table(["hashtag", "tweets", "avgRT", "users", "%hate"], rows,
                       title=f"Synthetic world (seed={args.seed}, scale={args.scale})"))
    world = dataset.world
    print(f"\ntotal: {len(world.tweets)} tweets, {len(world.users)} users, "
          f"{world.network.n_follows} follows, {len(world.news)} news articles")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import diffusion_curves, echo_chamber_comparison, hashtag_hate_distribution
    from repro.utils.asciiplot import ascii_bars, ascii_series

    world = _make_dataset(args).world
    curves = diffusion_curves(world, n_points=15)
    print(ascii_series(curves["retweets"], title="Fig 1a — avg retweets over time"))
    print()
    print(ascii_series(curves["susceptible"], title="Fig 1b — avg susceptible users"))
    print()
    dist = hashtag_hate_distribution(world)
    tags = sorted(dist, key=lambda t: -dist[t]["hate_fraction"])
    print(ascii_bars([t[:22] for t in tags], [dist[t]["hate_fraction"] for t in tags],
                     title="Fig 2 — hate fraction per hashtag"))
    print()
    echo = echo_chamber_comparison(world)
    print("Echo-chamber metrics (hate vs non-hate cascades):")
    for key in ("community_entropy", "internal_density", "audience_overlap"):
        print(f"  {key:>20}: hate {echo['hate'][key]:.3f}  non-hate {echo['non_hate'][key]:.3f}")
    return 0


def _cmd_train_retina(args) -> int:
    from repro.core.retina import (
        RETINA,
        RetinaFeatureExtractor,
        RetinaTrainer,
        evaluate_binary,
        evaluate_ranking,
    )

    dataset = _make_dataset(args)
    train, test = dataset.cascade_split(random_state=args.seed)
    print(f"{len(train)} train / {len(test)} test cascades; extracting features ...")
    extractor = RetinaFeatureExtractor(dataset.world, random_state=args.seed).fit(train)
    edges = RetinaTrainer.default_interval_edges()
    t0 = time.perf_counter()
    tr = extractor.build_samples(train, interval_edges_hours=edges, random_state=0)
    te = extractor.build_samples(test, interval_edges_hours=edges, random_state=1)
    dt = time.perf_counter() - t0
    n_built = len(tr) + len(te)
    print(f"built {n_built} cascade samples in {dt:.2f}s "
          f"({n_built / max(dt, 1e-9):.0f} cascades/s, columnar pipeline)")
    model = RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode=args.mode,
        use_exogenous=not args.no_exogenous,
        random_state=args.seed,
    )
    print(f"training RETINA-{args.mode[0].upper()} ({model.n_parameters()} parameters, "
          f"{args.epochs} epochs) ...")
    trainer = RetinaTrainer(model, epochs=args.epochs, random_state=args.seed).fit(tr)
    queries = [(s.labels.astype(int), trainer.predict_static_scores(s)) for s in te]
    metrics = {**evaluate_binary(queries), **evaluate_ranking(queries)}
    for name, value in metrics.items():
        print(f"  {name:>10}: {value:.4f}")
    if args.save:
        from repro.serving import ModelRegistry, RetinaBundle

        manifest = ModelRegistry(args.save).save_bundle(
            args.name,
            RetinaBundle(
                model=model,
                extractor=extractor,
                world_config=dataset.world.config,
                train_config={"epochs": args.epochs, "mode": args.mode,
                              "seed": args.seed},
                metrics=metrics,
            ),
        )
        print(f"bundle saved: {args.name} v{manifest['version']:04d} in {args.save}")
    return 0


def _cmd_train_hategen(args) -> int:
    from repro.core.hategen import HateGenFeatureExtractor, HateGenerationPipeline

    dataset = _make_dataset(args)
    train, test = dataset.hategen_split(random_state=args.seed)
    print(f"{len(train)} train / {len(test)} test tweets; extracting features ...")
    extractor = HateGenFeatureExtractor(dataset.world, random_state=args.seed)
    pipeline = HateGenerationPipeline(extractor, random_state=args.seed)
    X_tr, y_tr, X_te, y_te = pipeline.prepare(train, test)
    result = pipeline.run(args.model, args.variant, X_tr, y_tr, X_te, y_te)
    print(f"  model={args.model} variant={args.variant}")
    print(f"  macro-F1 {result.macro_f1:.4f}  ACC {result.accuracy:.4f}  AUC {result.auc:.4f}")
    if args.save:
        from repro.serving import HateGenBundle, ModelRegistry

        manifest = ModelRegistry(args.save).save_bundle(
            args.name,
            HateGenBundle(
                model=pipeline.fitted_model_,
                transforms=pipeline.fitted_transforms_,
                extractor=extractor,
                world_config=dataset.world.config,
                model_key=args.model,
                variant=args.variant,
                train_config={"seed": args.seed},
                metrics={"macro_f1": result.macro_f1, "accuracy": result.accuracy,
                         "auc": result.auc},
            ),
        )
        print(f"bundle saved: {args.name} v{manifest['version']:04d} in {args.save}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import (
        AdmissionController,
        ModelRegistry,
        engine_from_store,
        serve_forever_async,
    )

    registry = ModelRegistry(args.store)
    try:
        engine = engine_from_store(registry, args.name, max_batch_size=args.batch_size)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    admission = None if args.no_admission else AdmissionController()
    serve_forever_async(engine, args.host, args.port, registry=registry,
                        admission=admission)
    return 0


def _cmd_predict(args) -> int:
    if (args.store is None) == (args.url is None):
        print("predict needs exactly one of --store or --url", file=sys.stderr)
        return 2

    def build_payload(kind: str) -> dict | None:
        if kind == "retina":
            if args.cascade is None:
                print("retina bundles need --cascade", file=sys.stderr)
                return None
            payload = {"cascade_id": args.cascade, "top_k": args.top_k}
            if args.users is not None:
                payload["user_ids"] = args.users
            if args.interval is not None:
                payload["interval"] = args.interval
            return payload
        if args.user is None or args.hashtag is None or args.timestamp is None:
            print("hategen bundles need --user, --hashtag and --timestamp",
                  file=sys.stderr)
            return None
        return {"user_id": args.user, "hashtag": args.hashtag,
                "timestamp": args.timestamp}

    if args.url is not None:
        from repro.client import ServingClient, ServingError

        with ServingClient(args.url) as client:
            try:
                manifest = client.model(args.name, version=args.version)
                payload = build_payload(manifest["kind"])
                if payload is None:
                    return 2
                if manifest["kind"] == "retina":
                    result = client.predict_retweeters(
                        payload["cascade_id"],
                        user_ids=payload.get("user_ids"),
                        interval=payload.get("interval"),
                        top_k=payload.get("top_k"),
                    )
                else:
                    result = client.predict_hategen(
                        payload["user_id"], payload["hashtag"], payload["timestamp"]
                    )
            except ServingError as exc:
                print(json.dumps(exc.as_result(), indent=2), file=sys.stderr)
                return 1
        print(json.dumps(result.to_dict(), indent=2))
        return 0

    from repro.serving import ModelRegistry, predictor_for_bundle

    registry = ModelRegistry(args.store)
    try:
        bundle = registry.load_bundle(args.name, version=args.version)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    predictor = predictor_for_bundle(bundle)
    payload = build_payload(bundle.kind)
    if payload is None:
        return 2
    result = predictor.predict_batch([payload])[0]
    print(json.dumps(result, indent=2))
    return 0 if "error" not in result else 1


def _cmd_ingest(args) -> int:
    from repro.client import ServingClient, ServingError
    from repro.serving.schemas import MAX_INGEST_EVENTS

    batch_size = max(1, min(int(args.batch_size), MAX_INGEST_EVENTS))
    fh = sys.stdin if args.events == "-" else open(args.events)
    accepted = deduped = errors = sent = 0
    last_seq = 0
    try:
        with ServingClient(args.url) as client:
            batch: list[dict] = []

            def flush() -> None:
                nonlocal accepted, deduped, errors, last_seq, sent
                if not batch:
                    return
                resp = client.ingest(batch)
                sent += len(batch)
                accepted += resp.accepted
                deduped += resp.deduped
                errors += resp.n_errors
                last_seq = resp.last_seq
                if not args.quiet:
                    for item, result in zip(batch, resp.results):
                        if "error" in result:
                            err = result["error"]
                            print(f"REJECT {json.dumps(item)}: "
                                  f"{err.get('code')}: {err.get('message')}",
                                  file=sys.stderr)
                batch.clear()

            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    print(f"line {lineno}: invalid JSON: {exc}", file=sys.stderr)
                    errors += 1
                    continue
                batch.append(event)
                if len(batch) >= batch_size:
                    flush()
            flush()
    except ServingError as exc:
        print(json.dumps(exc.as_result(), indent=2), file=sys.stderr)
        return 1
    finally:
        if fh is not sys.stdin:
            fh.close()
    print(json.dumps({
        "sent": sent, "accepted": accepted, "deduped": deduped,
        "errors": errors, "last_seq": last_seq,
    }))
    return 0 if errors == 0 else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "train-retina": _cmd_train_retina,
    "train-hategen": _cmd_train_hategen,
    "serve": _cmd_serve,
    "predict": _cmd_predict,
    "ingest": _cmd_ingest,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
