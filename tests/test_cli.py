"""Tests for the command-line interface."""

import json
import urllib.request

import pytest

from repro.cli import build_parser, main

FAST_WORLD = ["--scale", "0.01", "--users", "120", "--hashtags", "5", "--news", "300"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.seed == 0
        assert args.command == "generate"

    def test_retina_options(self):
        args = build_parser().parse_args(
            ["train-retina", "--mode", "dynamic", "--no-exogenous", "--epochs", "2"]
        )
        assert args.mode == "dynamic"
        assert args.no_exogenous is True
        assert args.epochs == 2

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train-retina", "--mode", "hybrid"])

    @pytest.mark.parametrize("argv", [
        ["train-retina", "--workers", "2"],
        ["train-retina", "--shard-size", "8"],
        ["train-hategen", "--workers", "2"],
        ["serve", "--store", "s", "--workers", "2"],
    ])
    def test_process_count_flags_are_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_predict_options(self):
        args = build_parser().parse_args(
            ["predict", "--store", "s", "--name", "m", "--cascade", "7",
             "--users", "1", "2", "--top-k", "3"]
        )
        assert args.cascade == 7
        assert args.users == [1, 2]
        assert args.top_k == 3


class TestCommands:
    def test_generate(self, capsys):
        assert main(["generate", *FAST_WORLD]) == 0
        out = capsys.readouterr().out
        assert "tweets" in out and "%hate" in out

    def test_analyze(self, capsys):
        assert main(["analyze", *FAST_WORLD]) == 0
        out = capsys.readouterr().out
        assert "Fig 1a" in out and "Echo-chamber" in out

    def test_train_hategen(self, capsys):
        code = main(["train-hategen", *FAST_WORLD, "--model", "logreg", "--variant", "ds"])
        assert code == 0
        assert "macro-F1" in capsys.readouterr().out


class TestSaveServePredictRoundTrip:
    """train-retina --save -> serve over HTTP -> repro predict, one store."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("cli-registry"))

    @pytest.fixture(scope="class")
    def saved_bundle(self, store):
        code = main(
            ["train-retina", *FAST_WORLD, "--epochs", "1",
             "--save", store, "--name", "retina-cli"]
        )
        assert code == 0
        return store

    def test_save_writes_versioned_bundle(self, saved_bundle, capsys):
        from repro.serving import ModelRegistry

        registry = ModelRegistry(saved_bundle)
        assert registry.list_versions("retina-cli") == [1]
        manifest = registry.manifest("retina-cli")
        assert manifest["kind"] == "retina"
        assert manifest["train_config"]["epochs"] == 1
        assert "macro_f1" in manifest["metrics"]

    def test_serve_round_trip_over_http(self, saved_bundle):
        from repro.serving import PredictionServer, engine_from_store

        engine = engine_from_store(saved_bundle, ["retina-cli"], max_wait_ms=1.0)
        predictor = engine.predictors["retweeters"]
        cascade_id = next(iter(predictor._cascades))
        with PredictionServer(engine, port=0) as server:
            body = json.dumps({"cascade_id": cascade_id, "top_k": 3}).encode()
            req = urllib.request.Request(
                server.url + "/predict/retweeters",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                result = json.load(resp)
        assert result["cascade_id"] == cascade_id
        assert len(result["ranking"]) == 3

    def test_cli_predict_against_url(self, saved_bundle, capsys):
        from repro.serving import PredictionServer, engine_from_store

        engine = engine_from_store(saved_bundle, ["retina-cli"], max_wait_ms=1.0)
        cascade_id = next(iter(engine.predictors["retweeters"]._cascades))
        with PredictionServer(engine, port=0, registry=saved_bundle) as server:
            code = main(
                ["predict", "--url", server.url, "--name", "retina-cli",
                 "--cascade", str(cascade_id), "--top-k", "2"]
            )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["cascade_id"] == cascade_id
        assert len(result["ranking"]) == 2

    def test_cli_predict_needs_exactly_one_source(self, saved_bundle, capsys):
        assert main(["predict", "--name", "retina-cli"]) == 2
        assert "--store or --url" in capsys.readouterr().err
        assert main(["predict", "--store", saved_bundle, "--url", "http://x",
                     "--name", "retina-cli"]) == 2

    def test_cli_predict_from_store(self, saved_bundle, capsys):
        from repro.serving import ModelRegistry, predictor_for_bundle

        # Find a valid cascade id the same way the server does.
        bundle = ModelRegistry(saved_bundle).load_bundle("retina-cli")
        cascade_id = bundle.extractor.world.cascades[0].root.tweet_id
        code = main(
            ["predict", "--store", saved_bundle, "--name", "retina-cli",
             "--cascade", str(cascade_id), "--top-k", "2"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["cascade_id"] == cascade_id
        assert len(result["ranking"]) == 2

    def test_cli_predict_missing_args(self, saved_bundle, capsys):
        code = main(["predict", "--store", saved_bundle, "--name", "retina-cli"])
        assert code == 2
        assert "--cascade" in capsys.readouterr().err


class TestHateGenSave:
    def test_train_hategen_save_and_predict(self, tmp_path, capsys):
        store = str(tmp_path / "registry")
        code = main(
            ["train-hategen", *FAST_WORLD, "--model", "logreg", "--variant", "ds",
             "--save", store, "--name", "hategen-cli"]
        )
        assert code == 0
        assert "bundle saved" in capsys.readouterr().out

        from repro.serving import ModelRegistry

        bundle = ModelRegistry(store).load_bundle("hategen-cli")
        tweet = bundle.extractor.world.tweets[0]
        code = main(
            ["predict", "--store", store, "--name", "hategen-cli",
             "--user", str(tweet.user_id), "--hashtag", tweet.hashtag,
             "--timestamp", str(tweet.timestamp)]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["score"] <= 1.0
        assert result["label"] in (0, 1)
