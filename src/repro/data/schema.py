"""Core record types for the synthetic Twitter world.

Timestamps are float hours since the start of the observation window
(paper window: 2020-02-03 to 2020-04-14, i.e. 72 days = 1728 hours).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["User", "Tweet", "Retweet", "Cascade", "NewsArticle", "HashtagSpec"]

DAY_HOURS = 24.0
WINDOW_HOURS = 72 * DAY_HOURS  # the paper's 72-day crawl window


@dataclass
class User:
    """A Twitter user.

    ``hate_affinity`` maps hashtag -> probability that a tweet by this user
    on that hashtag is hateful (the paper's Fig. 3 observation that hate is
    user- *and* topic-dependent).
    """

    user_id: int
    community: int
    account_age_days: float
    activity_rate: float
    base_hate_propensity: float
    hate_affinity: dict[str, float] = field(default_factory=dict)

    def hate_probability(self, hashtag: str) -> float:
        """P(hateful | this user tweets on hashtag)."""
        return self.hate_affinity.get(hashtag, self.base_hate_propensity)


@dataclass
class Tweet:
    """A (root) tweet; ``is_hate`` is the gold generative label."""

    tweet_id: int
    user_id: int
    hashtag: str
    text: str
    timestamp: float
    is_hate: bool


@dataclass
class Retweet:
    """One retweet event inside a cascade."""

    user_id: int
    timestamp: float


@dataclass
class Cascade:
    """A root tweet plus its time-ordered retweets."""

    root: Tweet
    retweets: list[Retweet] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of retweets (cascade size in the paper's Fig. 9 sense)."""
        return len(self.retweets)

    @property
    def participants(self) -> list[int]:
        """Root user followed by retweeters in time order."""
        return [self.root.user_id] + [r.user_id for r in self.retweets]

    def participants_before(self, t: float) -> list[int]:
        """Participants whose event time is <= t (root always included)."""
        return [self.root.user_id] + [
            r.user_id for r in self.retweets if r.timestamp <= t
        ]

    def retweet_count_before(self, t: float) -> int:
        return sum(1 for r in self.retweets if r.timestamp <= t)


@dataclass
class NewsArticle:
    """A news item; the headline is the exogenous-signal text."""

    article_id: int
    headline: str
    topic: str
    timestamp: float


@dataclass(frozen=True)
class HashtagSpec:
    """Target statistics for one hashtag (a row of the paper's Table II)."""

    tag: str
    n_tweets: int
    avg_retweets: float
    n_users: int
    pct_hate: float
    theme: str
