"""A saved world reads back as the world that ``generate`` builds.

``SyntheticWorld.from_state(to_state(w))``, written to disk and read back
through the registry's JSON + npz state files, must equal the generated
world object for object: every field's type, every float bit, dict and
neighbour order, and the identity links (a cascade's root is the tweet in
``tweets``, ``cascade_by_root`` holds the cascades themselves).
"""

import dataclasses

import numpy as np
import pytest

from repro.data import SyntheticWorld, SyntheticWorldConfig
from repro.data.news import NewsStream
from repro.graph.network import InformationNetwork
from repro.serving.registry import load_state, save_state
from repro.store import RetweetEvent, StoredEvent, apply_events_to_world

CONFIGS = {
    # repro serve's world (perfbench's serve workloads).
    "serving": SyntheticWorldConfig(scale=0.01, n_hashtags=5, n_users=120, n_news=300, seed=0),
    # perfbench reproduce's world.
    "reproduce": SyntheticWorldConfig(scale=0.03, n_hashtags=10, n_users=300, n_news=1000, seed=0),
    "small": SyntheticWorldConfig(scale=0.005, n_hashtags=3, n_users=40, n_news=80, seed=11),
}


def _assert_same(a, b, path):
    assert type(a) is type(b), path
    if isinstance(a, float):
        assert a.hex() == b.hex(), path
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            _assert_same(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, InformationNetwork):
        assert a.n_users == b.n_users and a.n_follows == b.n_follows, path
        for u in range(a.n_users):
            assert a.followers(u) == b.followers(u), f"{path}.followers({u})"
            assert a.followees(u) == b.followees(u), f"{path}.followees({u})"
    elif isinstance(a, NewsStream):
        _assert_same(a.articles, b.articles, f"{path}.articles")
        _assert_same(a.bursts, b.bursts, f"{path}.bursts")
        _assert_same(a._times, b._times, f"{path}._times")
    elif dataclasses.is_dataclass(a):
        # vars() also covers attributes set after construction
        # (User.theme_preference).
        _assert_same(vars(a), vars(b), path)
    else:
        assert a == b, path


def _round_trip(world, directory):
    save_state(str(directory), "world", world.to_state())
    return SyntheticWorld.from_state(load_state(str(directory), "world"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_saved_world_equals_generated(name, tmp_path):
    world = SyntheticWorld.generate(CONFIGS[name])
    loaded = _round_trip(world, tmp_path)
    assert [f.name for f in dataclasses.fields(loaded)] == [
        f.name for f in dataclasses.fields(world)
    ]
    for f in dataclasses.fields(world):
        _assert_same(getattr(world, f.name), getattr(loaded, f.name), f.name)
    assert all(c.root is t for c, t in zip(loaded.cascades, loaded.tweets))
    assert all(loaded.cascade_by_root[c.root.tweet_id] is c for c in loaded.cascades)
    assert loaded.seq == 0 and loaded.network.n_overlay_edges == 0


def test_only_a_generated_world_is_saved(tmp_path):
    world = _round_trip(SyntheticWorld.generate(CONFIGS["small"]), tmp_path)
    root = world.tweets[0]
    retweet = RetweetEvent(tweet_id=root.tweet_id, user_id=0, timestamp=root.timestamp + 1.0)
    apply_events_to_world(world, [StoredEvent(1, "h", retweet)])
    with pytest.raises(ValueError, match="seq 1"):
        world.to_state()

    world = _round_trip(SyntheticWorld.generate(CONFIGS["small"]), tmp_path)
    a, b = next(
        (a, b) for a in range(40) for b in range(40)
        if a != b and not world.network.follows(b, a)
    )
    world.network.add_follow(a, b)
    with pytest.raises(ValueError, match="1 overlay"):
        world.to_state()
