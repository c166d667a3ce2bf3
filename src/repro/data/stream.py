"""Streaming world generation for million-user graphs.

:class:`SyntheticWorld` materialises everything — every ``User`` object,
every history tweet, an ``(n, n)`` dyadic matrix — which caps it near
10^4 users.  :class:`WorldStream` builds the same *kind* of world at
10^5–10^6 users by keeping only columnar per-user arrays and the CSR
network resident:

- **edges** stream from :class:`~repro.graph.generators.FollowerEdgeStream`
  (fast mode) in chunks straight into the CSR builder;
- **users** are columnar (activity, account age, hate propensity,
  community); ``User`` objects materialise lazily through an LRU view;
- **histories** are synthesised on demand per user from a
  per-user-seeded generator (``default_rng([seed, uid])``), so the same
  uid always gets the same history without storing any of them;
- **cascades** are drawn on demand over the CSR graph
  (:meth:`StreamedWorld.iter_cascades`) instead of being pre-simulated.

A :class:`StreamedWorld` exposes the attribute surface
:class:`~repro.features.store.FeatureStore` consumes (``users``,
``network``, ``history.get``, ``tweets``, ``cascades``), so the paged
feature store runs unmodified on top.

This mode is its own distribution — heavy-tailed, community-structured,
like the resident generator, but not draw-compatible with
:class:`SyntheticWorld` (which keeps its exact historical RNG sequence).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.data.hashtags import hashtag_catalog
from repro.data.schema import Cascade, Retweet, Tweet, User
from repro.data.vocab import make_text
from repro.graph.generators import FollowerEdgeStream, dedupe_edges
from repro.graph.network import InformationNetwork
from repro.utils.rng import ensure_rng

__all__ = ["WorldStreamConfig", "WorldStream", "StreamedWorld"]

#: Disjoint id space from in-window tweets (mirrors SyntheticWorld).
_HISTORY_ID_BASE = 10_000_000
#: Hard per-user history length cap (keeps lazy tweet ids collision-free).
_MAX_HISTORY = 500


@dataclass
class WorldStreamConfig:
    """Knobs of a streamed world.

    ``n_celebrities`` and ``celebrity_followers_mean`` are absolute (not
    fractions) because at 10^6 users a paper-scale celebrity *fraction*
    would alone emit tens of millions of edges; the defaults keep mean
    degree near ``mean_follows`` at every scale.
    """

    n_users: int = 100_000
    n_communities: int = 32
    mean_follows: int = 12
    p_in: float = 0.7
    n_celebrities: int = 20
    celebrity_followers_mean: float = 2000.0
    chunk_users: int = 100_000
    n_hashtags: int = 12
    history_tweets_mean: float = 8.0
    history_cache: int = 4096
    user_cache: int = 65536
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 2:
            raise ValueError(f"n_users must be >= 2, got {self.n_users}")
        if self.n_celebrities < 0:
            raise ValueError("n_celebrities must be >= 0")


class _LazyUsers:
    """Mapping-like ``uid -> User`` view over columnar per-user arrays.

    Materialises ``User`` objects on demand behind an LRU so a
    million-user world never holds a million dataclass instances.
    """

    def __init__(self, world: "StreamedWorld", cap: int):
        self._world = world
        self._cap = max(1, cap)
        self._cache: "OrderedDict[int, User]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._world.user_ids)

    def __iter__(self):
        return iter(range(len(self)))

    def __contains__(self, uid) -> bool:
        return 0 <= int(uid) < len(self)

    def __getitem__(self, uid: int) -> User:
        uid = int(uid)
        user = self._cache.get(uid)
        if user is not None:
            self._cache.move_to_end(uid)
            return user
        if not 0 <= uid < len(self):
            raise KeyError(uid)
        w = self._world
        user = User(
            user_id=uid,
            community=int(w.communities[uid]),
            account_age_days=float(w.account_age_days[uid]),
            activity_rate=float(w.activity_rate[uid]),
            base_hate_propensity=float(w.base_hate_propensity[uid]),
        )
        if len(self._cache) >= self._cap:
            self._cache.popitem(last=False)
        self._cache[uid] = user
        return user

    def get(self, uid, default=None):
        try:
            return self[uid]
        except KeyError:
            return default


class _LazyHistories:
    """``uid -> list[Tweet]`` pre-window histories, synthesised on demand.

    Each user's history comes from ``default_rng([seed, uid])`` — fully
    determined by the world seed and the uid, so repeated reads (and
    reads on different processes) see identical tweets without any
    resident storage beyond a bounded LRU.
    """

    def __init__(self, world: "StreamedWorld", cap: int):
        self._world = world
        self._cap = max(1, cap)
        self._cache: "OrderedDict[int, list[Tweet]]" = OrderedDict()

    def get(self, uid: int, default=None):
        uid = int(uid)
        if not 0 <= uid < len(self._world.user_ids):
            return default
        items = self._cache.get(uid)
        if items is not None:
            self._cache.move_to_end(uid)
            return items
        items = self._synthesise(uid)
        if len(self._cache) >= self._cap:
            self._cache.popitem(last=False)
        self._cache[uid] = items
        return items

    def __getitem__(self, uid: int) -> list[Tweet]:
        items = self.get(uid)
        if items is None:
            raise KeyError(uid)
        return items

    def _synthesise(self, uid: int) -> list[Tweet]:
        w = self._world
        cfg = w.config
        rng = np.random.default_rng([cfg.seed, 7, uid])
        mean = cfg.history_tweets_mean * min(float(w.activity_rate[uid]), 3.0)
        n_hist = int(min(_MAX_HISTORY, max(3, rng.poisson(mean))))
        catalog = w.catalog
        picks = rng.integers(0, len(catalog), size=n_hist)
        times = -np.sort(rng.uniform(1.0, 24.0 * 120, size=n_hist))[::-1]
        base = float(w.base_hate_propensity[uid])
        items: list[Tweet] = []
        for k, (j, ts) in enumerate(zip(picks, times)):
            spec = catalog[int(j)]
            is_hate = bool(rng.random() < base)
            items.append(
                Tweet(
                    tweet_id=_HISTORY_ID_BASE + uid * _MAX_HISTORY + k,
                    user_id=uid,
                    hashtag=spec.tag,
                    text=make_text(spec.theme, spec.tag, is_hate, rng, length=12),
                    timestamp=float(ts),
                    is_hate=is_hate,
                )
            )
        items.sort(key=lambda tw: tw.timestamp)
        return items


@dataclass
class StreamedWorld:
    """A world whose resident state is columnar arrays + a CSR network."""

    config: WorldStreamConfig
    network: InformationNetwork
    communities: np.ndarray
    user_ids: np.ndarray
    activity_rate: np.ndarray
    account_age_days: np.ndarray
    base_hate_propensity: np.ndarray
    catalog: list = field(default_factory=list)
    tweets: list = field(default_factory=list)
    cascades: list = field(default_factory=list)
    users: _LazyUsers = None  # type: ignore[assignment]
    history: _LazyHistories = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.users is None:
            self.users = _LazyUsers(self, self.config.user_cache)
        if self.history is None:
            self.history = _LazyHistories(self, self.config.history_cache)

    def iter_cascades(self, n_cascades: int, mean_size: float = 12.0, seed: int = 1):
        """Yield synthetic cascades drawn over the CSR graph on demand.

        Roots are popularity-weighted; participants spread follower-first
        over CSR rows.  Nothing is stored — each cascade is built, yielded,
        and dropped, which is what lets benchmarks run cascade workloads
        against million-user worlds.
        """
        rng = np.random.default_rng([self.config.seed, 11, seed])
        net = self.network
        n = len(self.user_ids)
        weights = net.follower_counts().astype(np.float64) + 1.0
        cdf = np.cumsum(weights)
        catalog = self.catalog
        for ci in range(n_cascades):
            root = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            root = min(root, n - 1)
            size = int(min(200, max(1, rng.poisson(mean_size))))
            participants = {root}
            frontier = list(net.followers_rows(root))
            chosen: list[int] = []
            while len(chosen) < size:
                if frontier:
                    pick = int(frontier[rng.integers(0, len(frontier))])
                else:
                    pick = int(rng.integers(0, n))
                if pick in participants:
                    # Rejection: densely-followed regions resample quickly.
                    if len(frontier) <= 1:
                        frontier = []
                        continue
                    frontier.remove(pick)
                    continue
                participants.add(pick)
                chosen.append(pick)
                frontier.extend(int(v) for v in net.followers_rows(pick))
                if len(frontier) > 4 * size:
                    frontier = frontier[-4 * size :]
            spec = catalog[ci % len(catalog)]
            is_hate = bool(rng.random() < 0.15)
            tweet = Tweet(
                tweet_id=ci,
                user_id=root,
                hashtag=spec.tag,
                text=make_text(spec.theme, spec.tag, is_hate, rng, length=12),
                timestamp=float(rng.uniform(0.0, 72.0)),
                is_hate=is_hate,
            )
            delays = np.sort(rng.exponential(12.0, size=len(chosen)))
            yield Cascade(
                root=tweet,
                retweets=[
                    Retweet(user_id=uid, timestamp=float(tweet.timestamp + d))
                    for uid, d in zip(chosen, delays)
                ],
            )


class WorldStream:
    """Builder: stream edge chunks into a CSR world."""

    def __init__(self, config: WorldStreamConfig | None = None):
        self.config = config or WorldStreamConfig()

    def build(self) -> StreamedWorld:
        cfg = self.config
        rng = ensure_rng(cfg.seed)
        n = cfg.n_users
        stream = FollowerEdgeStream(
            n,
            n_communities=cfg.n_communities,
            mean_follows=cfg.mean_follows,
            p_in=cfg.p_in,
            celebrity_fraction=cfg.n_celebrities / n,
            celebrity_follow_prob=min(1.0, cfg.celebrity_followers_mean / n),
            mode="fast",
            chunk_users=cfg.chunk_users,
            random_state=rng,
        )
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        for fe, fr in stream.chunks():
            srcs.append(fe.astype(np.int32))
            dsts.append(fr.astype(np.int32))
        src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int32)
        dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int32)
        # Phase-1 chunks are internally deduped but the celebrity phase can
        # re-emit an existing pair; one global pass keeps first emissions.
        src, dst = dedupe_edges(src, dst, n)
        network = InformationNetwork(n, src, dst)

        activity = rng.lognormal(mean=0.0, sigma=1.2, size=n)
        account_age = rng.uniform(30.0, 3650.0, size=n)
        base = rng.beta(1.2, 18.0, size=n)
        return StreamedWorld(
            config=cfg,
            network=network,
            communities=stream.communities,
            user_ids=np.arange(n, dtype=np.int64),
            activity_rate=activity,
            account_age_days=account_age,
            base_hate_propensity=base,
            catalog=hashtag_catalog(cfg.n_hashtags),
        )
