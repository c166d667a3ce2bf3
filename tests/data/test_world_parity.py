"""The array cascade simulator builds the world the per-follower one built.

``_reference_tweets_and_cascades`` below is the generator's tweet and
cascade stage as it was before the simulator moved to arrays: a dict
frontier grown one follower at a time, trait weights computed per user,
and burst rates summed one time point at a time (``_reference_theme_rates``,
which also stands in for the news generator's rates).  Patched in with
``monkeypatch``, it must give the same world as the array code, field
for field and float bit for float bit.  History is drawn last from the
shared generator, so equal histories also mean that both made the same
draws; every ``choice`` also gets the same probabilities, bit for bit.
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.data import SyntheticWorld, SyntheticWorldConfig
from repro.data.news import EventBurst, NewsStream
from repro.data.schema import WINDOW_HOURS, Cascade, Retweet, Tweet
from repro.data.synthetic import FIG1_HORIZON, MAX_CASCADE
from repro.data.vocab import make_text
from repro.graph.network import InformationNetwork
from tests.data.test_world_state import _assert_same

#: Cascades whose "outside" pool ran empty in the reference.
_STATS: collections.Counter = collections.Counter()

_SERVING = dict(scale=0.01, n_hashtags=5, n_users=120, n_news=300, seed=0)
CONFIGS = {
    # The CLI default world (perfbench's reproduce workload at seed 0).
    "cli_seed0": SyntheticWorldConfig(scale=0.03, n_hashtags=10, n_users=300, n_news=1000, seed=0),
    "cli_seed1": SyntheticWorldConfig(scale=0.03, n_hashtags=10, n_users=300, n_news=1000, seed=1),
    "serving": SyntheticWorldConfig(**_SERVING),
    # Cascades larger than the population: every user joins and the
    # "outside" draw runs out.
    "tiny": SyntheticWorldConfig(
        scale=0.005, n_hashtags=3, n_users=12, n_communities=2, mean_follows=3, n_news=40, seed=3
    ),
    "organic_0": SyntheticWorldConfig(**{**_SERVING, "organic_prob": 0.0}),
    "organic_1": SyntheticWorldConfig(**{**_SERVING, "organic_prob": 1.0}),
    "hate_heavy": SyntheticWorldConfig(
        **{**_SERVING, "max_hate_cascade_fraction": 0.9, "hate_rt_boost": 8, "echo_bias": 10}
    ),
}


# --------------------------------------------------------------- reference
def _reference_theme_rates(self, theme, ts):
    return np.array([sum(b.rate_at(t) for b in self.bursts if b.theme == theme) for t in ts])


def _reference_tweets_and_cascades(cls, cfg, catalog, users, network, communities, news, dyad, rng):
    tweets = []
    cascades = []
    n = cfg.n_users
    activity = np.array([users[u].activity_rate for u in range(n)])
    tweet_id = 0
    grid = np.linspace(0, WINDOW_HOURS, 1024)
    for spec in catalog:
        n_tweets = max(6, int(round(cfg.scale * spec.n_tweets)))
        pref = np.array([users[u].theme_preference[spec.theme] for u in range(n)])
        weights = activity * pref
        weights /= weights.sum()
        rate = 0.15 + np.array(
            [sum(b.rate_at(t) for b in news.bursts if b.theme == spec.theme) for t in grid]
        )
        cdf = np.cumsum(rate)
        cdf /= cdf[-1]
        times = np.sort(np.interp(rng.random(n_tweets), cdf, grid))
        p_h = spec.pct_hate / 100.0
        base_size = spec.avg_retweets / ((1.0 - p_h) + cfg.hate_rt_boost * p_h)
        tweet_rates = 0.15 + np.array(
            [sum(b.rate_at(t) for b in news.bursts if b.theme == spec.theme) for t in times]
        )
        rel = tweet_rates / tweet_rates.mean()
        size_boost = 0.1 + 0.9 * rel**1.5
        size_boost /= size_boost.mean()
        hate_boost = 0.3 + 0.7 * rel
        hate_boost /= hate_boost.mean()
        authors = rng.choice(n, size=n_tweets, p=weights)
        for ti, (t, author) in enumerate(zip(times, authors)):
            author = int(author)
            p_hate = min(0.95, users[author].hate_probability(spec.tag) * hate_boost[ti])
            is_hate = bool(rng.random() < p_hate)
            text = make_text(spec.theme, spec.tag, is_hate, rng)
            tweet = Tweet(
                tweet_id=tweet_id,
                user_id=author,
                hashtag=spec.tag,
                text=text,
                timestamp=float(t),
                is_hate=is_hate,
            )
            tweet_id += 1
            cascade = _reference_simulate_cascade(
                cfg, tweet, base_size * size_boost[ti], network, communities, users, dyad, spec, rng
            )
            tweets.append(tweet)
            cascades.append(cascade)
    return tweets, cascades


def _reference_simulate_cascade(cfg, tweet, base_size, network, communities, users, dyad, spec, rng):
    mean_size = base_size * (cfg.hate_rt_boost if tweet.is_hate else 1.0)
    cap = MAX_CASCADE
    if tweet.is_hate:
        cap = min(cap, int(cfg.max_hate_cascade_fraction * cfg.n_users))
    size = int(min(cap, rng.lognormal(np.log(max(mean_size, 0.3)), 0.7)))
    root = tweet.user_id
    root_comm = communities[root]
    participants = {root}
    frontier = {}

    def trait_weight(f):
        user = users[f]
        q = user.activity_rate
        q *= 0.3 + user.theme_preference[spec.theme]
        if tweet.is_hate:
            q *= 0.2 + 5.0 * user.hate_probability(tweet.hashtag)
        else:
            q *= dyad[root, f]
        return q

    def admit_followers(uid):
        for f in network.followers(uid):
            if f not in participants:
                if tweet.is_hate:
                    w = cfg.echo_bias if communities[f] == root_comm else 0.05
                    novel = sum(1 for g in network.followers(f) if g not in participants)
                    w /= (1.0 + novel) ** 2
                else:
                    w = (1.0 + network.follower_count(f)) ** 1.5
                frontier[f] = max(frontier.get(f, 0.0), w * trait_weight(f))

    admit_followers(root)
    chosen = []
    for _ in range(size):
        take_organic = frontier and rng.random() < cfg.organic_prob
        if take_organic:
            cand = list(frontier)
            w = np.array([frontier[c] for c in cand]) ** 2
            pick = int(rng.choice(len(cand), p=w / w.sum()))
            uid = cand[pick]
            del frontier[uid]
        else:
            outside = [u for u in range(cfg.n_users) if u not in participants]
            if not outside:
                _STATS["outside_empty"] += 1
                break
            uid = int(outside[rng.integers(0, len(outside))])
            frontier.pop(uid, None)
        participants.add(uid)
        chosen.append(uid)
        admit_followers(uid)

    scale = cfg.hate_delay_hours if tweet.is_hate else cfg.nonhate_delay_hours
    delays = rng.exponential(scale, size=len(chosen))
    if not tweet.is_hate:
        tail = rng.random(len(chosen)) < 0.35
        delays[tail] = rng.uniform(0.0, FIG1_HORIZON, size=int(tail.sum()))
    delays = np.sort(np.minimum(delays, FIG1_HORIZON))
    retweets = [
        Retweet(user_id=uid, timestamp=float(tweet.timestamp + d)) for uid, d in zip(chosen, delays)
    ]
    return Cascade(root=tweet, retweets=retweets)


class _RecordingGenerator(np.random.Generator):
    """``default_rng(seed)``'s stream, logging every ``choice`` and its exact ``p``.

    A weight off by one ulp seldom flips a draw, so equal worlds alone
    would not show it; equal logs do.
    """

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.log = []

    def choice(self, a, size=None, replace=True, p=None, axis=0, shuffle=True):
        self.log.append((a, size, None if p is None else np.asarray(p).tobytes()))
        return super().choice(a, size=size, replace=replace, p=p, axis=axis, shuffle=shuffle)


def _generate(cfg, monkeypatch, reference=False):
    """``(world, choice log)``, through the reference stage if asked."""
    rngs = []

    def recording_rng(seed):
        rngs.append(_RecordingGenerator(seed))
        return rngs[-1]

    with monkeypatch.context() as m:
        m.setattr("repro.data.synthetic.ensure_rng", recording_rng)
        if reference:
            m.setattr(
                SyntheticWorld,
                "_make_tweets_and_cascades",
                classmethod(_reference_tweets_and_cascades),
            )
            m.setattr(NewsStream, "theme_rates", _reference_theme_rates)
        world = SyntheticWorld.generate(cfg)
    (rng,) = rngs
    return world, rng.log


# ------------------------------------------------------------------ tests
@pytest.mark.parametrize("name", list(CONFIGS))
def test_array_simulator_matches_reference(name, monkeypatch):
    _STATS.clear()
    reference, reference_log = _generate(CONFIGS[name], monkeypatch, reference=True)
    world, log = _generate(CONFIGS[name], monkeypatch)
    for f in dataclasses.fields(world):
        _assert_same(getattr(world, f.name), getattr(reference, f.name), f.name)
    assert log == reference_log
    assert sum(c.size for c in world.cascades) > 0
    if name == "tiny":
        assert _STATS["outside_empty"] > 0


@pytest.mark.parametrize("name", ["serving", "hate_heavy"])
def test_generation_makes_no_per_follower_calls(name, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-follower call during generation")

    for owner, attr in [
        (InformationNetwork, "follower_count"),
        (InformationNetwork, "followers"),
        (EventBurst, "rate_at"),
    ]:
        monkeypatch.setattr(owner, attr, forbidden)
    world = SyntheticWorld.generate(CONFIGS[name])
    assert world.cascades


def test_theme_rates_match_scalar_sums():
    news = SyntheticWorld.generate(CONFIGS["serving"]).news
    ts = np.concatenate([np.linspace(-5.0, WINDOW_HOURS + 5.0, 301), [b.t0 for b in news.bursts]])
    for theme in {b.theme for b in news.bursts} | {"no such theme"}:
        expected = _reference_theme_rates(news, theme, ts)
        assert news.theme_rates(theme, ts).tobytes() == expected.astype(np.float64).tobytes()
