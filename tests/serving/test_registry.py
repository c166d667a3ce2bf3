"""Registry tests: state flattening, versioning, aliases, bundle round trips."""

import numpy as np
import pytest

from repro.serving import ModelRegistry, RegistryError
from repro.serving.registry import _join_arrays, _split_arrays, load_state, save_state


class TestStateFlattening:
    def test_round_trip_nested(self, tmp_path):
        state = {
            "params": {"a": 1, "b": 2.5, "c": None, "flag": True},
            "names": ["x", "y"],
            "matrix": np.arange(6.0).reshape(2, 3),
            "nested": {"deep": {"ids": np.array([1, 2, 3], dtype=np.int64)}},
        }
        save_state(str(tmp_path), "s", state)
        loaded = load_state(str(tmp_path), "s")
        assert loaded["params"] == state["params"]
        assert loaded["names"] == ["x", "y"]
        assert np.array_equal(loaded["matrix"], state["matrix"])
        assert loaded["nested"]["deep"]["ids"].dtype == np.int64

    def test_numpy_scalars_become_python(self):
        arrays = {}
        meta = _split_arrays({"n": np.int64(7), "x": np.float64(1.5)}, arrays, ())
        assert meta == {"n": 7, "x": 1.5}
        assert _join_arrays(meta, arrays) == {"n": 7, "x": 1.5}

    def test_unserializable_type_raises(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            _split_arrays({"bad": object()}, {}, ())


class TestVersioning:
    def test_empty_registry(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        assert reg.list_models() == []
        assert reg.list_versions("nope") == []
        with pytest.raises(FileNotFoundError):
            reg.latest_version("nope")

    def test_lookup_errors_carry_the_search(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError) as exc_info:
            reg.latest_version("ghost")
        err = exc_info.value
        assert isinstance(err, FileNotFoundError)  # pre-v1 callers keep working
        assert err.root == str(tmp_path) and err.name == "ghost"
        assert "ghost" in str(err) and str(tmp_path) in str(err)

    def test_manifest_for_uncommitted_version(self, tmp_path, trained_retina, serving_world):
        from repro.serving import RetinaBundle

        trainer, extractor, _ = trained_retina
        reg = ModelRegistry(tmp_path)
        reg.save_bundle("m", RetinaBundle(
            model=trainer.model, extractor=extractor,
            world_config=serving_world.world.config,
        ))
        with pytest.raises(RegistryError) as exc_info:
            reg.manifest("m", version=9)
        assert exc_info.value.version == 9
        assert "v0009" in str(exc_info.value)

    def test_invalid_name_rejected(self, tmp_path, trained_retina, serving_world):
        from repro.serving import RetinaBundle

        trainer, extractor, _ = trained_retina
        reg = ModelRegistry(tmp_path)
        bundle = RetinaBundle(
            model=trainer.model, extractor=extractor,
            world_config=serving_world.world.config,
        )
        with pytest.raises(ValueError, match="invalid model name"):
            reg.save_bundle("../escape", bundle)

    def test_versions_increment(self, tmp_path, trained_retina, serving_world):
        from repro.serving import RetinaBundle

        trainer, extractor, _ = trained_retina
        reg = ModelRegistry(tmp_path)
        bundle = RetinaBundle(
            model=trainer.model, extractor=extractor,
            world_config=serving_world.world.config,
        )
        m1 = reg.save_bundle("m", bundle)
        m2 = reg.save_bundle("m", bundle)
        assert (m1["version"], m2["version"]) == (1, 2)
        assert reg.list_versions("m") == [1, 2]
        assert reg.latest_version("m") == 2
        assert reg.list_models() == ["m"]


class TestAliases:
    @pytest.fixture()
    def reg(self, tmp_path, trained_retina, serving_world):
        from repro.serving import RetinaBundle

        trainer, extractor, _ = trained_retina
        reg = ModelRegistry(tmp_path)
        bundle = RetinaBundle(
            model=trainer.model, extractor=extractor,
            world_config=serving_world.world.config,
        )
        reg.save_bundle("m", bundle)
        reg.save_bundle("m", bundle)
        return reg

    def test_set_alias_pins_latest_at_call_time(self, reg):
        target = reg.set_alias("prod", "m")
        assert target == {"name": "m", "version": 2}
        assert reg.aliases() == {"prod": {"name": "m", "version": 2}}
        assert reg.resolve("prod") == ("m", 2)

    def test_alias_survives_registry_reopen(self, reg):
        reg.set_alias("prod", "m", version=1)
        reopened = ModelRegistry(reg.root)
        assert reopened.resolve("prod") == ("m", 1)
        assert reopened.manifest("prod")["version"] == 1
        assert reopened.load_bundle("prod").model is not None

    def test_explicit_version_overrides_the_pin(self, reg):
        reg.set_alias("prod", "m", version=1)
        assert reg.resolve("prod", version=2) == ("m", 2)

    def test_alias_to_unknown_model_or_version(self, reg):
        with pytest.raises(RegistryError):
            reg.set_alias("prod", "ghost")
        with pytest.raises(RegistryError):
            reg.set_alias("prod", "m", version=9)
        assert reg.aliases() == {}  # nothing half-written

    def test_alias_cannot_shadow_a_model(self, reg):
        with pytest.raises(ValueError, match="shadow"):
            reg.set_alias("m", "m")

    def test_model_cannot_take_an_alias_name(self, reg, trained_retina, serving_world):
        from repro.serving import RetinaBundle

        trainer, extractor, _ = trained_retina
        reg.set_alias("prod", "m")
        with pytest.raises(ValueError, match="alias"):
            reg.save_bundle("prod", RetinaBundle(
                model=trainer.model, extractor=extractor,
                world_config=serving_world.world.config,
            ))

    def test_delete_alias(self, reg):
        reg.set_alias("prod", "m")
        assert reg.delete_alias("prod") is True
        assert reg.delete_alias("prod") is False
        with pytest.raises(RegistryError):
            reg.resolve("prod")

    def test_retarget_is_atomic_rewrite(self, reg):
        reg.set_alias("prod", "m", version=1)
        reg.set_alias("canary", "m", version=2)
        reg.set_alias("prod", "m", version=2)
        reopened = ModelRegistry(reg.root)
        assert reopened.aliases() == {
            "prod": {"name": "m", "version": 2},
            "canary": {"name": "m", "version": 2},
        }

    def test_aliases_filtered_by_name(self, reg):
        reg.set_alias("prod", "m")
        assert reg.aliases("m") == {"prod": {"name": "m", "version": 2}}
        assert reg.aliases("other") == {}


class TestBundleRoundTrip:
    def test_manifest_contents(self, registry):
        manifest = registry.manifest("retina")
        assert manifest["kind"] == "retina"
        assert manifest["model"]["mode"] == "static"
        assert manifest["feature_dims"]["user"] > 0
        assert manifest["train_config"]["epochs"] == 1
        assert manifest["metrics"]["map"] == 0.5
        assert manifest["world_config"]["seed"] == 3

    def test_retina_scores_identical_after_reload(
        self, registry, serving_world, trained_retina
    ):
        trainer, _, test_samples = trained_retina
        bundle = registry.load_bundle("retina", world=serving_world.world)
        sample = test_samples[0]
        expected = trainer.predict_static_scores(sample)
        got = bundle.model.predict_proba(
            sample.user_features, sample.tweet_vec, sample.news_vecs
        )
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_hategen_chain_identical_after_reload(
        self, registry, serving_world, trained_hategen
    ):
        pipeline, test_tweets = trained_hategen
        bundle = registry.load_bundle("hategen", world=serving_world.world)
        X, _ = pipeline.extractor.matrix(test_tweets[:10])
        Xa, Xb = X.copy(), X.copy()
        for t in pipeline.fitted_transforms_:
            Xa = t.transform(Xa)
        for t in bundle.transforms:
            Xb = t.transform(Xb)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(
            bundle.model.predict_proba(Xb), pipeline.fitted_model_.predict_proba(Xa)
        )

    def test_world_regenerated_when_not_supplied(self, registry, trained_retina):
        trainer, _, test_samples = trained_retina
        bundle = registry.load_bundle("retina")  # reads the bundle's saved world
        sample = test_samples[0]
        rebuilt = bundle.extractor.build_sample(
            sample.candidate_set.cascade, candidate_set=sample.candidate_set
        )
        np.testing.assert_array_equal(rebuilt.user_features, sample.user_features)

    def test_dynamic_bundle_round_trip(self, tmp_path, serving_world, trained_retina):
        from repro.core.retina import RETINA
        from repro.serving import RetinaBundle

        _, extractor, test_samples = trained_retina
        model = RETINA(
            user_dim=extractor.user_feature_dim,
            tweet_dim=extractor.news_doc2vec_dim,
            news_dim=extractor.news_doc2vec_dim,
            mode="dynamic",
            recurrent_cell="gru",
            random_state=4,
        )
        reg = ModelRegistry(tmp_path)
        reg.save_bundle(
            "dyn",
            RetinaBundle(
                model=model, extractor=extractor,
                world_config=serving_world.world.config,
            ),
        )
        bundle = reg.load_bundle("dyn", world=serving_world.world)
        assert bundle.model.mode == "dynamic"
        sample = test_samples[0]
        np.testing.assert_array_equal(
            bundle.model.predict_proba(
                sample.user_features, sample.tweet_vec, sample.news_vecs
            ),
            model.predict_proba(
                sample.user_features, sample.tweet_vec, sample.news_vecs
            ),
        )

    def test_world_config_mismatch_rejected(self, registry):
        from repro.data import HateDiffusionDataset, SyntheticWorldConfig

        other = HateDiffusionDataset.generate(
            SyntheticWorldConfig(scale=0.01, n_hashtags=4, n_users=60, n_news=100, seed=9)
        )
        with pytest.raises(ValueError, match="does not match"):
            registry.load_bundle("retina", world=other.world)
