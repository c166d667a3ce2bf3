"""``repro.store`` — durable append-only event log + online ingest.

The subsystem that turns the repo from "reproduce then serve a snapshot"
into a live system: events observed online (tweets, retweets, follows,
hashtag registrations) are appended to a crash-safe segment-file log
(:class:`EventLog`), surgically applied to the in-memory world and
feature caches (:func:`apply_events_to_world`,
``FeatureStore.apply_events``), and replayed on engine restart so ingest
survives crashes.

Two kinds of object hold a sequence number.  The world records the
highest seq it has applied (``world.seq``), so a world shared by several
predictors applies each event once.  Each serving predictor keeps one
watermark: it hands the events past it to the world and then, once, to
its feature extractor.  The feature layers below keep none; they apply
exactly the events they are given.

Guarantees:

- **Durability** — an acked append has been fsynced; a SIGKILL mid-append
  leaves at most a torn tail, which reopen truncates (acked events are
  never behind the torn region).
- **Dedup idempotency** — events are keyed by a canonical content hash;
  resubmitting an event returns the original sequence number and mutates
  nothing, which is what makes ``POST /v1/ingest`` safely retryable.
- **Replay parity** — replaying the log from empty produces features
  bit-identical to a cold rebuild of the equivalent world.
"""

from repro.store.events import (
    EVENT_KINDS,
    Event,
    FollowEvent,
    HashtagEvent,
    RetweetEvent,
    StoredEvent,
    TweetEvent,
    event_from_wire,
    event_hash,
)
from repro.store.log import EventLog, StoreIOError
from repro.store.apply import apply_events_to_world, validate_event_for_world

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "FollowEvent",
    "HashtagEvent",
    "RetweetEvent",
    "StoreIOError",
    "StoredEvent",
    "TweetEvent",
    "apply_events_to_world",
    "event_from_wire",
    "event_hash",
    "validate_event_for_world",
]
