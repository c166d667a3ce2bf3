"""Registry durability + engine shutdown semantics under faults.

The crash-recovery contracts this PR adds around model storage and the
engine lifecycle: bundles carry per-file checksums and corruption is a
*typed* error (409 ``model_corrupt`` over HTTP, never a pickle traceback
or a silent bad model); a server keeps serving the old predictor when a
reload hits a corrupt bundle; in-flight and queued requests at engine
shutdown fail with a typed ``engine_shutdown`` error instead of a
generic timeout.
"""

import asyncio
import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro import chaos
from repro.chaos import ChaosPlan, ChaosRule
from repro.serving import (
    AsyncPredictionServer,
    InferenceEngine,
    ModelRegistry,
    RegistryCorruptError,
    RetinaBundle,
    RetweeterPredictor,
)
from repro.serving.schemas import ServingError


@pytest.fixture(autouse=True)
def _clean_chaos():
    chaos.disable()
    yield
    chaos.disable()


def _retina_bundle(trained_retina, world_config):
    trainer, extractor, _ = trained_retina
    return RetinaBundle(
        model=trainer.model, extractor=extractor, world_config=world_config
    )


class TestChecksums:
    def test_manifest_records_per_file_digests(self, registry):
        manifest = registry.manifest("retina")
        files = manifest["files"]
        assert files, "manifest should list artifact checksums"
        assert all(len(d) == 64 for d in files.values())  # sha256 hex

    def test_truncated_artifact_detected_on_load(
        self, tmp_path, trained_retina, serving_world
    ):
        reg = ModelRegistry(tmp_path)
        bundle = _retina_bundle(trained_retina, serving_world.world.config)
        reg.save_bundle("retina", bundle)
        model_dir = reg._version_dir("retina", 1)
        # Corrupt the largest artifact in place.
        victim = max(
            (os.path.join(model_dir, f) for f in os.listdir(model_dir)),
            key=os.path.getsize,
        )
        size = os.path.getsize(victim)
        with open(victim, "r+b") as fh:
            fh.truncate(max(size // 2, 1))
        with pytest.raises(RegistryCorruptError):
            reg.load_bundle("retina", world=serving_world.world)

    def test_missing_artifact_detected(self, tmp_path, trained_retina, serving_world):
        reg = ModelRegistry(tmp_path)
        reg.save_bundle(
            "retina", _retina_bundle(trained_retina, serving_world.world.config)
        )
        model_dir = reg._version_dir("retina", 1)
        artifacts = [f for f in os.listdir(model_dir) if f != "manifest.json"]
        os.remove(os.path.join(model_dir, artifacts[0]))
        with pytest.raises(RegistryCorruptError):
            reg.load_bundle("retina", world=serving_world.world)

    def test_corrupt_manifest_detected(self, tmp_path, trained_retina, serving_world):
        reg = ModelRegistry(tmp_path)
        reg.save_bundle(
            "retina", _retina_bundle(trained_retina, serving_world.world.config)
        )
        path = os.path.join(reg._version_dir("retina", 1), "manifest.json")
        with open(path, "w") as fh:
            fh.write("{ not json")
        with pytest.raises(RegistryCorruptError):
            reg.manifest("retina")

    def test_chaos_registry_save_truncates_then_load_detects(
        self, tmp_path, trained_retina, serving_world
    ):
        reg = ModelRegistry(tmp_path)
        chaos.enable(
            ChaosPlan(seed=3, rules={"registry.save": ChaosRule(rate=1.0)})
        )
        reg.save_bundle(
            "retina", _retina_bundle(trained_retina, serving_world.world.config)
        )
        chaos.disable()
        with pytest.raises(RegistryCorruptError):
            reg.load_bundle("retina", world=serving_world.world)

    def test_pre_checksum_bundles_still_load(
        self, tmp_path, trained_retina, serving_world
    ):
        """Bundles saved before this PR (no ``files`` key) load unchecked."""
        reg = ModelRegistry(tmp_path)
        reg.save_bundle(
            "retina", _retina_bundle(trained_retina, serving_world.world.config)
        )
        path = os.path.join(reg._version_dir("retina", 1), "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        del manifest["files"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert reg.load_bundle("retina", world=serving_world.world) is not None


class TestCorruptReloadOverHTTP:
    def test_409_and_old_predictor_keeps_serving(
        self, tmp_path, trained_retina, serving_world
    ):
        trainer, extractor, test_samples = trained_retina
        cascade_id = test_samples[0].candidate_set.cascade.root.tweet_id
        reg = ModelRegistry(tmp_path)
        bundle = _retina_bundle(trained_retina, serving_world.world.config)
        reg.save_bundle("retina", bundle)
        reg.save_bundle("retina", bundle)  # v2, then corrupt it
        v2 = reg._version_dir("retina", 2)
        victim = max(
            (os.path.join(v2, f) for f in os.listdir(v2) if f != "manifest.json"),
            key=os.path.getsize,
        )
        with open(victim, "r+b") as fh:
            fh.truncate(1)

        engine = InferenceEngine(
            {
                "retweeters": RetweeterPredictor(
                    reg.load_bundle("retina", 1, world=serving_world.world)
                )
            },
        )
        with AsyncPredictionServer(engine, port=0, registry=reg) as srv:
            def predict():
                req = urllib.request.Request(
                    srv.url + "/v1/predict/retweeters",
                    data=json.dumps({"cascade_id": cascade_id}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(req, timeout=60) as resp:
                    return resp.status, json.load(resp)

            status, before = predict()
            assert status == 200
            # Reloading the corrupt v2 answers a clean, typed 409 ...
            req = urllib.request.Request(
                srv.url + "/v1/models/retina/reload",
                data=json.dumps({"version": 2}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=60)
            assert err.value.code == 409
            body = json.load(err.value)
            assert body["error"]["code"] == "model_corrupt"
            # ... and the old predictor is untouched: same scores as before.
            status, after = predict()
            assert status == 200
            assert after["scores"] == before["scores"]


class _Echo:
    kind = "echo"

    def predict_batch(self, payloads):
        return [dict(p) for p in payloads]


class TestTypedShutdown:
    def test_submit_after_stop_is_typed_503(self):
        engine = InferenceEngine({"echo": _Echo()})
        engine.start()
        assert engine.predict("echo", {"x": 1}) == {"x": 1}
        engine.stop()
        with pytest.raises(ServingError) as err:
            engine.submit("echo", {"x": 2})
        assert err.value.code == "engine_shutdown"
        assert err.value.status == 503

    def test_requests_queued_before_stop_are_drained(self):
        """A read in flight on another thread when ``stop`` is called is
        answered, and ``stop`` waits for it before closing anything."""
        entered, release = threading.Event(), threading.Event()

        class Slow:
            kind = "slow"

            def predict_batch(self, payloads):
                entered.set()
                release.wait(timeout=10.0)
                return [{"ok": True} for _ in payloads]

        engine = InferenceEngine({"slow": Slow()}, max_batch_size=1)
        engine.start()
        answers = []
        caller = threading.Thread(
            target=lambda: answers.append(engine.predict("slow", {}))
        )
        caller.start()
        assert entered.wait(timeout=10.0)
        stopper = threading.Thread(target=engine.stop)
        stopper.start()
        stopper.join(timeout=0.2)
        assert stopper.is_alive()  # held off by the read in flight
        release.set()
        stopper.join(timeout=30.0)
        caller.join(timeout=30.0)
        assert not stopper.is_alive() and not caller.is_alive()
        # Graceful drain: the read was answered, not failed or hung.
        assert answers == [{"ok": True}]

    def test_stop_without_worker_fails_queued_typed(self):
        """A read queued for a batcher that never ran fails typed when the
        batcher's block exits."""
        engine = InferenceEngine({"echo": _Echo()})

        async def main():
            async with engine.batching():
                return engine.submit("echo", {"x": 1})

        future = asyncio.run(main())
        err = future.exception()
        assert isinstance(err, ServingError)
        assert err.code == "engine_shutdown"
        assert err.status == 503
