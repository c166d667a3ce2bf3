"""Every bundle carries the world it was trained on.

``save_bundle`` writes the seq-0 world as ``world.json`` + ``world.npz``;
loading reads it back instead of generating it.  A bundle saved before
worlds were stored (no ``world.*`` files in its manifest) still loads, by
generating the world from the manifest's config, and serves the same
scores.
"""

import dataclasses
import hashlib
import io
import json
import os
import shutil

import pytest

from repro.data import SyntheticWorld
from repro.obs import log as obs_log
from repro.serving import (
    ModelRegistry,
    RegistryCorruptError,
    RetinaBundle,
    engine_from_store,
    predictor_for_bundle,
)
from repro.store import RetweetEvent, StoredEvent, apply_events_to_world

NAMES = ("retina", "hategen")
WORLD_FILES = ("world.json", "world.npz")


@pytest.fixture
def store(registry, tmp_path):
    """A private copy of the session registry (tests here damage it)."""
    dest = tmp_path / "store"
    shutil.copytree(registry.root, dest)
    return ModelRegistry(dest)


@pytest.fixture
def generate_calls(monkeypatch):
    """Counts ``SyntheticWorld.generate`` calls (it still runs)."""
    calls = []
    original = SyntheticWorld.generate.__func__

    def counted(cls, config=None):
        calls.append(config)
        return original(cls, config)

    monkeypatch.setattr(SyntheticWorld, "generate", classmethod(counted))
    return calls


def _manifest_path(store, name):
    return os.path.join(store._version_dir(name, 1), "manifest.json")


def _edit_manifest(store, name, edit):
    path = _manifest_path(store, name)
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def _make_legacy(store, name):
    """Turn a bundle into one saved before worlds were stored."""
    for fname in WORLD_FILES:
        os.remove(os.path.join(store._version_dir(name, 1), fname))
    _edit_manifest(store, name, lambda m: [m["files"].pop(f) for f in WORLD_FILES])


def _scores(bundle):
    predictor = predictor_for_bundle(bundle)
    world = predictor.world
    if bundle.kind == "retina":
        payloads = [{"cascade_id": c.root.tweet_id, "top_k": 500} for c in world.cascades[:8]]
    else:
        tags = [spec.tag for spec in world.catalog]
        payloads = [
            {"user_id": u, "hashtag": tags[u % len(tags)], "timestamp": 50.0 + 7 * u}
            for u in range(8)
        ]
    results = predictor.predict_batch(payloads)
    assert all("error" not in r for r in results), results
    return results


def test_manifest_lists_the_world_artifacts(registry):
    for name in NAMES:
        assert set(WORLD_FILES) <= set(registry.manifest(name)["files"])


def test_loading_a_snapshot_bundle_never_generates(store, monkeypatch):
    def refuse(cls, config=None):
        raise AssertionError("SyntheticWorld.generate called")

    monkeypatch.setattr(SyntheticWorld, "generate", classmethod(refuse))
    for name in NAMES:
        store.load_bundle(name)
    engine = engine_from_store(store, with_events=False)
    worlds = {id(p.world) for p in engine.predictors.values()}
    assert len(worlds) == 1  # the hategen bundle shares the retina one's world


@pytest.mark.parametrize("name", NAMES)
def test_legacy_bundle_regenerates_and_serves_the_same_scores(store, name, generate_calls):
    snapshot = _scores(store.load_bundle(name))
    assert generate_calls == []
    _make_legacy(store, name)
    legacy = _scores(store.load_bundle(name))
    assert len(generate_calls) == 1
    assert legacy == snapshot


@pytest.mark.parametrize("fname", WORLD_FILES)
@pytest.mark.parametrize("damage", ["truncate", "remove"])
def test_damaged_world_artifact_is_corrupt(store, fname, damage):
    path = os.path.join(store._version_dir("retina", 1), fname)
    if damage == "remove":
        os.remove(path)
    else:
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
    with pytest.raises(RegistryCorruptError, match=fname):
        store.load_bundle("retina")
    with pytest.raises(RegistryCorruptError, match=fname):
        store.load_world(store.manifest("retina"))


def test_snapshot_config_must_equal_the_manifests(store):
    directory = store._version_dir("retina", 1)
    path = os.path.join(directory, "world.json")
    with open(path) as fh:
        state = json.load(fh)
    state["config"]["seed"] += 1
    with open(path, "w") as fh:
        json.dump(state, fh)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    # A matching checksum: the config check, not the checksum, refuses it.
    _edit_manifest(store, "retina", lambda m: m["files"].update({"world.json": digest}))
    with pytest.raises(RegistryCorruptError, match="does not match"):
        store.load_bundle("retina")


def test_save_refuses_a_world_past_seq_0(store):
    bundle = store.load_bundle("retina")  # over its own world, not the session's
    world = bundle.extractor.world
    root = world.tweets[0]
    retweet = RetweetEvent(tweet_id=root.tweet_id, user_id=0, timestamp=root.timestamp + 1.0)
    apply_events_to_world(world, [StoredEvent(1, "h", retweet)])
    with pytest.raises(ValueError, match="only a generated world"):
        store.save_bundle("retina", bundle)
    assert store.list_versions("retina") == [1]
    assert os.listdir(os.path.join(store.root, "retina")) == ["v0001"]


def test_save_refuses_a_config_that_is_not_the_worlds(store):
    bundle = store.load_bundle("retina")
    other = dataclasses.replace(bundle.world_config, seed=bundle.world_config.seed + 1)
    with pytest.raises(ValueError, match="is not the config"):
        store.save_bundle("retina", RetinaBundle(
            model=bundle.model, extractor=bundle.extractor, world_config=other,
        ))
    assert store.list_versions("retina") == [1]


@pytest.mark.parametrize("legacy", [False, True])
def test_engine_ready_says_where_startup_went(store, legacy):
    if legacy:
        for name in NAMES:
            _make_legacy(store, name)
    stream = io.StringIO()
    obs_log.set_stream(stream)
    try:
        engine = engine_from_store(store)
    finally:
        obs_log.set_stream(None)
    engine.stop()
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    ready = [line for line in lines if line["event"] == "engine.ready"]
    assert len(ready) == 1
    line = ready[0]
    assert line["models"] == list(store.list_models())
    assert line["world_from"] == ["generate" if legacy else "snapshot"]
    for key in ("world_s", "load_bundle_s", "replay_s"):
        assert line[key] >= 0.0
