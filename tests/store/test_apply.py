"""Semantic event validation + seq-guarded world application."""

import pytest

from repro.data import HateDiffusionDataset, SyntheticWorldConfig
from repro.store import (
    FollowEvent,
    HashtagEvent,
    RetweetEvent,
    StoredEvent,
    TweetEvent,
    apply_events_to_world,
    event_hash,
    validate_event_for_world,
)

CFG = SyntheticWorldConfig(scale=0.01, n_hashtags=5, n_users=80, n_news=200, seed=5)


@pytest.fixture()
def world():
    return HateDiffusionDataset.generate(CFG).world


def _stored(events, start_seq=1):
    return [
        StoredEvent(start_seq + i, event_hash(ev), ev)
        for i, ev in enumerate(events)
    ]


def _fresh_pair(world):
    """(cascade with retweets, a user not yet in it) for retweet events."""
    cascade = next(c for c in world.cascades if c.retweets)
    present = {r.user_id for r in cascade.retweets} | {cascade.root.user_id}
    newbie = next(u for u in sorted(world.users) if u not in present)
    return cascade, newbie


def _non_follower(world, followee):
    """A user with no existing follow edge toward ``followee``."""
    return next(
        u for u in sorted(world.users)
        if u != followee and not world.network.follows(u, followee)
    )


def test_validate_accepts_well_formed_events(world):
    cascade, newbie = _fresh_pair(world)
    tag = world.catalog[0].tag
    ok = [
        TweetEvent(tweet_id=900001, user_id=newbie, hashtag=tag, text="t",
                   timestamp=10.0),
        RetweetEvent(tweet_id=cascade.root.tweet_id, user_id=newbie,
                     timestamp=cascade.root.timestamp + 1.0),
        HashtagEvent(tag="#fresh"),
    ]
    for ev in ok:
        assert validate_event_for_world(world, ev) is None


def test_validate_rejects_semantic_errors(world):
    cascade, newbie = _fresh_pair(world)
    tag = world.catalog[0].tag
    already = cascade.retweets[0].user_id
    bad = [
        TweetEvent(tweet_id=900001, user_id=10**9, hashtag=tag, text="t",
                   timestamp=1.0),                                  # unknown user
        TweetEvent(tweet_id=900001, user_id=newbie, hashtag="#nope",
                   text="t", timestamp=1.0),                        # unknown tag
        TweetEvent(tweet_id=cascade.root.tweet_id, user_id=newbie,
                   hashtag=tag, text="t", timestamp=1.0),           # id taken
        TweetEvent(tweet_id=900001, user_id=newbie, hashtag=tag, text="t",
                   timestamp=float("inf")),                         # bad time
        RetweetEvent(tweet_id=424242, user_id=newbie, timestamp=1.0),
        RetweetEvent(tweet_id=cascade.root.tweet_id, user_id=already,
                     timestamp=1.0),                                # duplicate
        FollowEvent(followee=newbie, follower=newbie),              # self-loop
        FollowEvent(followee=10**9, follower=newbie),
        HashtagEvent(tag=tag),                                      # registered
        HashtagEvent(tag=""),
    ]
    for ev in bad:
        assert validate_event_for_world(world, ev) is not None, ev


def test_apply_mutates_world_structures(world):
    cascade, newbie = _fresh_pair(world)
    tag = world.catalog[0].tag
    n_cascades = len(world.cascades)
    size_before = cascade.size
    follower = _non_follower(world, newbie)
    followers_before = world.network.follower_count(newbie)
    stored = _stored([
        HashtagEvent(tag="#fresh", theme="politics"),
        TweetEvent(tweet_id=900001, user_id=newbie, hashtag="#fresh",
                   text="t", timestamp=10.0),
        RetweetEvent(tweet_id=cascade.root.tweet_id, user_id=newbie,
                     timestamp=cascade.root.timestamp + 1.0),
        FollowEvent(followee=newbie, follower=follower),
    ])
    applied = apply_events_to_world(world, stored)
    assert [s.seq for s in applied] == [1, 2, 3, 4]
    assert world.theme_of["#fresh"] == "politics"
    assert len(world.cascades) == n_cascades + 1
    assert world.cascades[-1].root.tweet_id == 900001
    assert cascade.size == size_before + 1
    assert world.network.follows(follower, newbie)
    assert world.network.follower_count(newbie) == followers_before + 1
    assert world.seq == 4


def test_apply_is_watermark_idempotent(world):
    cascade, newbie = _fresh_pair(world)
    stored = _stored([
        RetweetEvent(tweet_id=cascade.root.tweet_id, user_id=newbie,
                     timestamp=cascade.root.timestamp + 1.0),
    ])
    size_before = cascade.size
    assert len(apply_events_to_world(world, stored)) == 1
    # Same batch again: seq <= watermark, nothing re-applies.
    assert apply_events_to_world(world, stored) == []
    assert cascade.size == size_before + 1
    # Overlapping batch: only the genuinely new tail applies.
    more = stored + _stored(
        [FollowEvent(followee=newbie, follower=cascade.root.user_id)],
        start_seq=2,
    )
    applied = apply_events_to_world(world, more)
    assert [s.seq for s in applied] == [2]


def test_tweet_ingest_grows_the_cascade_index_in_place(world):
    """Each ingested tweet is one insert into ``world.cascade_by_root``.

    The index is the same dict object throughout and grows by exactly one
    entry per tweet: no ingest rebuilds it from ``world.cascades``.
    """
    index = world.cascade_by_root
    n_before = len(index)
    assert n_before == len(world.cascades)
    author = sorted(world.users)[0]
    tag = world.catalog[0].tag
    n = 50
    for i in range(n):
        event = TweetEvent(tweet_id=950000 + i, user_id=author, hashtag=tag,
                           text="t", timestamp=10.0 + i)
        assert validate_event_for_world(world, event) is None
        assert len(apply_events_to_world(world, _stored([event], start_seq=i + 1))) == 1
        assert world.cascade_by_root is index
        assert len(index) == n_before + i + 1
        assert index[950000 + i] is world.cascades[-1]
    assert world.seq == n


def test_in_batch_visibility(world):
    """A retweet may reference a tweet created earlier in the same batch."""
    _, newbie = _fresh_pair(world)
    other = next(u for u in sorted(world.users) if u != newbie)
    stored = _stored([
        HashtagEvent(tag="#batch"),
        TweetEvent(tweet_id=900002, user_id=newbie, hashtag="#batch",
                   text="t", timestamp=5.0),
    ])
    apply_events_to_world(world, stored[:1])
    # after the hashtag applies, the tweet validates; after the tweet
    # applies, a retweet of it validates.
    assert validate_event_for_world(world, stored[1].event) is None
    apply_events_to_world(world, stored)
    rt = RetweetEvent(tweet_id=900002, user_id=other, timestamp=6.0)
    assert validate_event_for_world(world, rt) is None
    apply_events_to_world(world, _stored([rt], start_seq=3))
    assert world.cascades[-1].size == 1
