"""Applying stored events to an in-memory world, idempotently.

:func:`apply_events_to_world` is the single place world state mutates
after generation.  The world records the highest sequence number it has
applied (``world.seq``) and skips events at or below it, so predictors
sharing one world object can each hand it the same event batch without
double-applying.  New cascades go into ``world.cascade_by_root`` as they
are appended.  Mutations are append-only and ordered by sequence number,
which is what makes replay-from-empty reproduce the exact walk a cold
build would have taken.

:func:`validate_event_for_world` is the semantic gate the ingest route
runs per item *before* anything reaches the log — schema-valid events
that reference unknown users/tweets/hashtags are rejected there with a
per-item error instead of poisoning the durable log.
"""

from __future__ import annotations

import math

from repro.data.schema import Cascade, HashtagSpec, Retweet, Tweet
from repro.store.events import Event, StoredEvent

__all__ = ["apply_events_to_world", "validate_event_for_world"]


def validate_event_for_world(world, event: Event) -> str | None:
    """Reason one event cannot apply to this world, or None when it can.

    The check is against *current* state — inside a batch, earlier items
    take effect before later ones are validated (a batch may register a
    hashtag and tweet with it).
    """
    kind = event.kind
    if kind == "tweet":
        if event.user_id not in world.users:
            return f"unknown user_id {event.user_id}"
        if event.hashtag not in world.theme_of:
            return (
                f"unknown hashtag {event.hashtag!r} "
                f"(register it with a hashtag event first)"
            )
        if not math.isfinite(event.timestamp) or event.timestamp < 0.0:
            return "timestamp must be finite and >= 0"
        if event.tweet_id in world.cascade_by_root:
            return f"tweet_id {event.tweet_id} already exists"
    elif kind == "retweet":
        if event.user_id not in world.users:
            return f"unknown user_id {event.user_id}"
        cascade = world.cascade_by_root.get(event.tweet_id)
        if cascade is None:
            return f"unknown cascade root tweet_id {event.tweet_id}"
        if not math.isfinite(event.timestamp) or event.timestamp < 0.0:
            return "timestamp must be finite and >= 0"
        if any(rt.user_id == event.user_id for rt in cascade.retweets):
            return (
                f"user {event.user_id} already retweeted "
                f"cascade {event.tweet_id}"
            )
    elif kind == "follow":
        if event.followee not in world.users:
            return f"unknown followee {event.followee}"
        if event.follower not in world.users:
            return f"unknown follower {event.follower}"
        if event.followee == event.follower:
            return "a user cannot follow themself"
        if world.network.follows(event.follower, event.followee):
            return (
                f"user {event.follower} already follows {event.followee}"
            )
    elif kind == "hashtag":
        if event.tag in world.theme_of:
            return f"hashtag {event.tag!r} already registered"
        if not event.tag:
            return "tag must be non-empty"
    else:  # pragma: no cover - event_from_wire rejects unknown kinds
        return f"unknown event kind {kind!r}"
    return None


def _apply_one(world, event: Event) -> None:
    kind = event.kind
    if kind == "tweet":
        tweet = Tweet(
            tweet_id=event.tweet_id,
            user_id=event.user_id,
            hashtag=event.hashtag,
            text=event.text,
            timestamp=float(event.timestamp),
            is_hate=bool(event.is_hate),
        )
        cascade = Cascade(root=tweet)
        world.tweets.append(tweet)
        world.cascades.append(cascade)
        world.cascade_by_root[tweet.tweet_id] = cascade
    elif kind == "retweet":
        cascade = world.cascade_by_root.get(event.tweet_id)
        if cascade is not None:
            cascade.retweets.append(
                Retweet(user_id=event.user_id, timestamp=float(event.timestamp))
            )
    elif kind == "follow":
        # The edge goes into the network's ingest overlay; an edge that
        # already exists is a no-op (add_follow returns False).
        world.network.add_follow(event.followee, event.follower)
    elif kind == "hashtag":
        if event.tag not in world.theme_of:
            world.catalog.append(
                HashtagSpec(
                    tag=event.tag,
                    n_tweets=0,
                    avg_retweets=0.0,
                    n_users=0,
                    pct_hate=0.0,
                    theme=event.theme,
                )
            )
            world.theme_of[event.tag] = event.theme


def apply_events_to_world(world, stored_events) -> list[StoredEvent]:
    """Apply the stored events past ``world.seq``; returns those applied.

    Safe to call repeatedly with overlapping batches: events at or below
    ``world.seq`` are skipped, so N predictors sharing one world object
    can each forward the same ingest batch.
    """
    applied: list[StoredEvent] = []
    for stored in stored_events:
        if stored.seq <= world.seq:
            continue
        _apply_one(world, stored.event)
        world.seq = stored.seq
        applied.append(stored)
    return applied
