"""Generative model of the paper's Twitter corpus.

:class:`SyntheticWorld` produces — at a configurable scale — every artifact
the paper's models consume:

- a follower network with echo-chamber communities,
- users with topic-dependent hate affinities (Fig. 3),
- root tweets per hashtag matching Table II tweet counts and hate rates
  (Fig. 2), timed by exogenous news bursts,
- retweet cascades whose size and tempo differ for hate vs non-hate
  (Fig. 1: hateful content gathers more retweets faster, within
  better-connected audiences, exposing fewer susceptible users),
- pre-window activity history per user (the paper's H_{i,t}),
- a timestamped news stream (exogenous signal S_ex).

All randomness flows from a single seed.  :meth:`SyntheticWorld.to_state`
and :meth:`SyntheticWorld.from_state` turn a generated world into a
nested dict of JSON values and ndarrays and back, object for object, so
a saved model can be served over the world it was trained on without
generating it again.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field

import numpy as np

from repro.data.hashtags import THEMES, hashtag_catalog
from repro.data.news import EventBurst, NewsStream, generate_news_stream
from repro.data.schema import (
    WINDOW_HOURS,
    Cascade,
    HashtagSpec,
    NewsArticle,
    Retweet,
    Tweet,
    User,
)
from repro.data.vocab import make_text
from repro.graph.generators import community_follower_edges
from repro.graph.network import InformationNetwork
from repro.utils.rng import ensure_rng

__all__ = ["SyntheticWorldConfig", "SyntheticWorld"]

MAX_CASCADE = 196  # largest cascade in the paper's data
FIG1_HORIZON = 200.0  # hours shown in the paper's Figure 1


@dataclass
class SyntheticWorldConfig:
    """Knobs of the synthetic world.

    ``scale`` multiplies Table II tweet counts; the default keeps the world
    small enough for test suites while preserving every distributional
    property. ``hate_rt_boost`` is the hateful-cascade size multiplier
    implied by Fig. 1a; ``hate_delay_hours``/``nonhate_delay_hours`` set the
    retweet-latency scales that produce Fig. 1's early-saturating hate
    curves; ``echo_bias`` is the preference of hateful cascades for the root
    community (echo chambers).
    """

    scale: float = 0.04
    n_hashtags: int = 12
    n_users: int = 600
    n_communities: int = 8
    mean_follows: int = 14
    p_in: float = 0.85
    celebrity_fraction: float = 0.03
    celebrity_follow_prob: float = 0.5
    hate_clique_quantile: float = 0.7
    hate_clique_density: float = 0.7
    max_hate_cascade_fraction: float = 0.18
    n_news: int = 1500
    news_per_tweet: int = 60
    history_tweets_mean: float = 35.0
    hate_rt_boost: float = 3.0
    hate_delay_hours: float = 8.0
    nonhate_delay_hours: float = 45.0
    echo_bias: float = 4.0
    organic_prob: float = 0.93
    seed: int = 0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.n_users < 10:
            raise ValueError(f"n_users must be >= 10, got {self.n_users}")
        if not 0.0 <= self.organic_prob <= 1.0:
            raise ValueError(f"organic_prob must be in [0,1], got {self.organic_prob}")


@dataclass
class SyntheticWorld:
    """The generated corpus; construct via :meth:`generate`."""

    config: SyntheticWorldConfig
    catalog: list[HashtagSpec]
    users: dict[int, User]
    network: InformationNetwork
    communities: np.ndarray
    tweets: list[Tweet]
    cascades: list[Cascade]
    history: dict[int, list[Tweet]]
    news: NewsStream
    theme_of: dict[str, str] = field(default_factory=dict)
    #: Root tweet id -> cascade; ingest inserts each new cascade here.
    cascade_by_root: dict[int, Cascade] = field(default_factory=dict)
    #: Highest event-log seq applied to this world (0 = as generated).
    seq: int = 0

    # ------------------------------------------------------------ generation
    @classmethod
    def generate(cls, config: SyntheticWorldConfig | None = None) -> "SyntheticWorld":
        """Build a full world from the configuration seed."""
        cfg = config or SyntheticWorldConfig()
        rng = ensure_rng(cfg.seed)
        catalog = hashtag_catalog(cfg.n_hashtags)
        theme_of = {h.tag: h.theme for h in catalog}

        src, dst, communities = community_follower_edges(
            cfg.n_users,
            n_communities=cfg.n_communities,
            mean_follows=cfg.mean_follows,
            p_in=cfg.p_in,
            celebrity_fraction=cfg.celebrity_fraction,
            celebrity_follow_prob=cfg.celebrity_follow_prob,
            random_state=rng,
        )
        users = cls._make_users(cfg, catalog, communities, rng)
        clique_src, clique_dst = cls._densify_hate_cliques(
            cfg, users, set(zip(src.tolist(), dst.tolist())), communities, rng
        )
        # Clique edges follow the base edges, so each user's neighbour
        # order (which the cascade RNG draws consume) is base order first.
        network = InformationNetwork(
            cfg.n_users,
            np.concatenate([src, clique_src]),
            np.concatenate([dst, clique_dst]),
        )
        news = generate_news_stream(
            n_articles=cfg.n_news, window_hours=WINDOW_HOURS, random_state=rng
        )
        # Stable dyadic retweet habits: D[a, b] is b's tendency to retweet a.
        # Heavy-tailed so a few (source, follower) pairs retweet repeatedly —
        # the behaviour the paper's "times u_j retweeted u_0" feature tracks.
        dyad = rng.lognormal(mean=0.0, sigma=1.8, size=(cfg.n_users, cfg.n_users))
        tweets, cascades = cls._make_tweets_and_cascades(
            cfg, catalog, users, network, communities, news, dyad, rng
        )
        history = cls._make_history(cfg, catalog, users, rng)
        return cls(
            config=cfg,
            catalog=catalog,
            users=users,
            network=network,
            communities=communities,
            tweets=tweets,
            cascades=cascades,
            history=history,
            news=news,
            theme_of=theme_of,
            cascade_by_root={c.root.tweet_id: c for c in cascades},
        )

    # ----------------------------------------------------------------- state
    def to_state(self) -> dict:
        """The world as a nested dict of JSON values and ndarray leaves.

        Records become one column per field: numbers in arrays (every
        float bit kept), strings as codes into their distinct values.
        Only a generated world can be saved: once events are applied
        (``seq > 0``, or follows in the graph's overlay) it is no longer
        the world that the models were fitted on.
        """
        if self.seq or self.network.n_overlay_edges:
            raise ValueError(
                f"only a generated world can be saved, got seq {self.seq} "
                f"with {self.network.n_overlay_edges} overlay follow edges"
            )
        # Every generated user has the same affinity and preference keys,
        # in catalog and theme order, so one key list per matrix suffices.
        users = list(self.users.values())
        index = {id(t): i for i, t in enumerate(self.tweets)}
        src, dst = self.network.edges()
        return {
            "config": dataclasses.asdict(self.config),
            "catalog": [dataclasses.asdict(spec) for spec in self.catalog],
            "users": {
                "fields": _columns(users, User),
                "tags": list(users[0].hate_affinity),
                "hate_affinity": np.array([list(u.hate_affinity.values()) for u in users]),
                "themes": list(users[0].theme_preference),  # type: ignore[attr-defined]
                "theme_preference": np.array(
                    [list(u.theme_preference.values()) for u in users]  # type: ignore[attr-defined]
                ),
            },
            "network": {"n_users": self.network.n_users, "src": src, "dst": dst},
            "communities": self.communities,
            "tweets": _columns(self.tweets, Tweet),
            "cascades": {
                "root": np.array([index[id(c.root)] for c in self.cascades], dtype=np.int64),
                "ends": np.cumsum([c.size for c in self.cascades], dtype=np.int64),
                "retweets": _columns([r for c in self.cascades for r in c.retweets], Retweet),
            },
            "history": {
                "user_id": np.array(list(self.history), dtype=np.int64),
                "ends": np.cumsum([len(v) for v in self.history.values()], dtype=np.int64),
                "tweets": _columns([t for v in self.history.values() for t in v], Tweet),
            },
            "news": {
                "articles": _columns(self.news.articles, NewsArticle),
                "bursts": [dataclasses.asdict(b) for b in self.news.bursts],
            },
            "theme_of": dict(self.theme_of),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SyntheticWorld":
        """Inverse of :meth:`to_state`: every object through its constructor."""
        u = state["users"]
        users = _records(
            User,
            u["fields"],
            hate_affinity=[dict(zip(u["tags"], row)) for row in u["hate_affinity"].tolist()],
        )
        for user, row in zip(users, u["theme_preference"].tolist()):
            user.theme_preference = dict(zip(u["themes"], row))  # type: ignore[attr-defined]
        tweets = _records(Tweet, state["tweets"])
        c = state["cascades"]
        retweets = _records(Retweet, c["retweets"])
        cascades = [
            Cascade(root=tweets[root], retweets=retweets[lo:hi])
            for root, lo, hi in zip(c["root"].tolist(), *_bounds(c["ends"]))
        ]
        h = state["history"]
        history = _records(Tweet, h["tweets"])
        n = state["network"]
        return cls(
            config=SyntheticWorldConfig(**state["config"]),
            catalog=[HashtagSpec(**spec) for spec in state["catalog"]],
            users={user.user_id: user for user in users},
            network=InformationNetwork(n["n_users"], n["src"], n["dst"]),
            communities=state["communities"],
            tweets=tweets,
            cascades=cascades,
            history={
                uid: history[lo:hi]
                for uid, lo, hi in zip(h["user_id"].tolist(), *_bounds(h["ends"]))
            },
            news=NewsStream(
                _records(NewsArticle, state["news"]["articles"]),
                [EventBurst(**b) for b in state["news"]["bursts"]],
            ),
            theme_of=dict(state["theme_of"]),
            cascade_by_root={c.root.tweet_id: c for c in cascades},
        )

    # ----------------------------------------------------------------- users
    @staticmethod
    def _make_users(cfg, catalog, communities, rng) -> dict[int, User]:
        n = cfg.n_users
        n_comm = cfg.n_communities
        # Community theme preferences (Dirichlet) and hate multipliers: some
        # communities are hate-prone on some themes (Fig. 3 block structure).
        theme_list = list(THEMES)
        comm_theme_pref = rng.dirichlet(np.full(len(theme_list), 0.8), size=n_comm)
        comm_hate_mult = rng.gamma(2.0, 0.75, size=(n_comm, len(theme_list)))

        # A small fraction of users produce most hate (Mathew et al.):
        # Beta(1.2, 18) puts most mass near zero with a heavy right tail.
        base = rng.beta(1.2, 18.0, size=n)
        activity = rng.lognormal(mean=0.0, sigma=1.2, size=n)
        account_age = rng.uniform(30.0, 3650.0, size=n)

        theme_index = {t: i for i, t in enumerate(theme_list)}
        users: dict[int, User] = {}
        # Raw affinity r(u, tag) = base_u * community multiplier(theme);
        # calibrated per hashtag so the mean hate probability over authors
        # equals the Table II hate rate.
        raw = np.empty((n, len(catalog)))
        for j, spec in enumerate(catalog):
            ti = theme_index[spec.theme]
            raw[:, j] = base * comm_hate_mult[communities, ti]
        for j, spec in enumerate(catalog):
            mean_raw = raw[:, j].mean()
            target = spec.pct_hate / 100.0
            if mean_raw > 0:
                raw[:, j] = np.clip(raw[:, j] * target / mean_raw, 0.0, 0.95)
        for uid in range(n):
            affinity = {spec.tag: float(raw[uid, j]) for j, spec in enumerate(catalog)}
            users[uid] = User(
                user_id=uid,
                community=int(communities[uid]),
                account_age_days=float(account_age[uid]),
                activity_rate=float(activity[uid]),
                base_hate_propensity=float(np.clip(base[uid] * 0.3, 0.0, 0.9)),
                hate_affinity=affinity,
            )
        # Topic preference for *tweeting* (who talks about what).
        for uid in range(n):
            pref = comm_theme_pref[communities[uid]] + rng.dirichlet(
                np.full(len(theme_list), 1.2)
            )
            users[uid].theme_preference = {  # type: ignore[attr-defined]
                t: float(pref[i] / pref.sum()) for i, t in enumerate(theme_list)
            }
        return users

    @staticmethod
    def _densify_hate_cliques(cfg, users, base_edges, communities, rng):
        """Follow edges interconnecting high-hate-propensity users per community.

        Mathew et al. (and this paper's Fig. 1 reading) observe hateful
        content circulating among a small, well-connected user set.  Mutual
        follows among the top-propensity users of a community make hateful
        cascades recirculate internally instead of exposing new audiences.

        Returns ``(followees, followers)`` arrays of the edges not already
        in ``base_edges`` (a set of ``(followee, follower)`` pairs).  Each
        unordered pair is drawn once, so checking the base graph alone
        never admits a duplicate.
        """
        base = np.array([users[u].base_hate_propensity for u in sorted(users)])
        cutoff = np.quantile(base, cfg.hate_clique_quantile)
        prone = np.flatnonzero(base >= cutoff)
        followees: list[int] = []
        followers: list[int] = []
        for comm in range(cfg.n_communities):
            group = [int(u) for u in prone if communities[u] == comm]
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    if rng.random() < cfg.hate_clique_density:
                        for edge in ((a, b), (b, a)):
                            if edge not in base_edges:
                                followees.append(edge[0])
                                followers.append(edge[1])
        return np.array(followees, dtype=np.int64), np.array(followers, dtype=np.int64)

    # ------------------------------------------------------------- cascades
    @classmethod
    def _make_tweets_and_cascades(cls, cfg, catalog, users, network, communities, news, dyad, rng):
        tweets: list[Tweet] = []
        cascades: list[Cascade] = []
        n = cfg.n_users
        activity = np.array([users[u].activity_rate for u in range(n)])
        deg = network.follower_counts()
        # The hub weight of organic spread, by Python's float pow: numpy's
        # array power can differ from it in the last bit, and the cascade
        # draws see these bits.
        hub = np.array([(1.0 + c) ** 1.5 for c in deg.tolist()])
        tweet_id = 0
        grid = np.linspace(0, WINDOW_HOURS, 1024)
        for spec in catalog:
            n_tweets = max(6, int(round(cfg.scale * spec.n_tweets)))
            # Author weights: activity x theme preference.
            pref = np.array(
                [users[u].theme_preference[spec.theme] for u in range(n)]  # type: ignore[attr-defined]
            )
            weights = activity * pref
            weights /= weights.sum()
            # Retweet propensity from user traits (see _simulate_cascade):
            # activity x topic preference x dyadic habit toward the root.
            # Hate participation is driven by hate affinity instead; the
            # noisy dyadic habit is dropped so the echo-chamber structure
            # (novelty penalty) dominates selection.
            topical = activity * (0.3 + pref)
            hateful = topical * (
                0.2 + 5.0 * np.array([users[u].hate_probability(spec.tag) for u in range(n)])
            )
            # Tweet times follow the theme's news-burst profile (exogenous
            # influence: off-platform events trigger on-platform volume).
            rate = 0.15 + news.theme_rates(spec.theme, grid)
            cdf = np.cumsum(rate)
            cdf /= cdf[-1]
            times = np.sort(np.interp(rng.random(n_tweets), cdf, grid))
            # Base cascade size such that the hate/non-hate mixture matches
            # the hashtag's average retweet count.
            p_h = spec.pct_hate / 100.0
            base_size = spec.avg_retweets / ((1.0 - p_h) + cfg.hate_rt_boost * p_h)
            # Exogenous coupling: cascades during news bursts grow larger and
            # turn hateful more often (events fuel both volume and vitriol) —
            # this is the signal the paper's exogenous features/attention
            # read.  Normalised to mean 1 so Table II calibration holds.
            tweet_rates = 0.15 + news.theme_rates(spec.theme, times)
            rel = tweet_rates / tweet_rates.mean()
            size_boost = 0.1 + 0.9 * rel**1.5
            size_boost /= size_boost.mean()
            hate_boost = 0.3 + 0.7 * rel
            hate_boost /= hate_boost.mean()
            authors = rng.choice(n, size=n_tweets, p=weights)
            for ti, (t, author) in enumerate(zip(times, authors)):
                author = int(author)
                p_hate = min(
                    0.95, users[author].hate_probability(spec.tag) * hate_boost[ti]
                )
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
                cascade = cls._simulate_cascade(
                    cfg,
                    tweet,
                    base_size * size_boost[ti],
                    network,
                    communities,
                    deg,
                    hub,
                    hateful if is_hate else topical * dyad[author],
                    rng,
                )
                tweets.append(tweet)
                cascades.append(cascade)
        return tweets, cascades

    @staticmethod
    def _simulate_cascade(
        cfg, tweet, base_size, network, communities, deg, hub, trait, rng
    ) -> Cascade:
        """Grow one retweet cascade over the follower graph.

        Size: geometric-like draw around the calibrated mean (hate boosted).
        Participants: mostly followers of current participants (organic
        diffusion), hateful cascades biased toward the root community (echo
        chamber); a small fraction arrives from outside the visible graph
        (promoted/searched content, Sec. III "beyond organic diffusion").
        Who retweets is driven by stable user traits — activity, topic
        preference, dyadic habit toward the root, and (for hateful roots)
        hate affinity — given per user by ``trait`` — so the paper's
        features carry real signal.
        Timing: exponential delays, much shorter for hate (Fig. 1).

        ``deg`` and ``hub`` are each user's follower count and its hub
        weight ``(1.0 + deg) ** 1.5``.  The frontier is three ``n_users``
        arrays: a weight, a presence mask and the admission order.  When a
        user joins, their followers who are not in the cascade are
        admitted: in a hateful cascade each keeps the larger of its old and
        new weight, and those not yet present are appended in follower
        order.  Candidates are the present users in admission order.  A
        user leaves the frontier only by joining the cascade and is never
        admitted again, so each keeps the place of their first admission.
        That order, the weights' bits and the RNG calls made with them
        define the world a seed gives (``tests/data/test_world_parity.py``
        pins all three).
        """
        mean_size = base_size * (cfg.hate_rt_boost if tweet.is_hate else 1.0)
        # Lognormal sizes give the heavy tail of real cascades.  Hateful
        # cascades are additionally capped relative to the population so an
        # echo chamber remains possible at small world scales.
        cap = MAX_CASCADE
        if tweet.is_hate:
            cap = min(cap, int(cfg.max_hate_cascade_fraction * cfg.n_users))
        size = int(
            min(
                cap,
                rng.lognormal(np.log(max(mean_size, 0.3)), 0.7),
            )
        )
        n = cfg.n_users
        root = tweet.user_id
        root_comm = communities[root]
        participant = np.zeros(n, dtype=bool)
        # inside[f]: how many of f's followers are in the cascade (hateful
        # roots only; f's novelty is deg[f] - inside[f]).
        inside = np.zeros(n, dtype=np.int64)
        # Organic spread rides hub users across communities, constantly
        # exposing fresh audiences: a non-hate weight is fixed per cascade.
        weight = np.zeros(n) if tweet.is_hate else hub * trait
        present = np.zeros(n, dtype=bool)
        order = np.empty(n, dtype=np.int64)
        n_order = n_present = 0

        def join(uid: int) -> None:
            nonlocal n_order, n_present
            participant[uid] = True
            fol = network.followers_rows(uid)
            new = fol[~participant[fol]]
            if tweet.is_hate:
                inside[network.followees_rows(uid)] += 1
                # Echo chamber: prefer same-community users whose audience
                # is already inside the cascade — more retweets, few *new*
                # exposures.  The squared novelty penalty keeps celebrities
                # and other high-fanout users out of hateful cascades.
                w = np.where(communities[new] == root_comm, cfg.echo_bias, 0.05)
                w = w / (1.0 + (deg[new] - inside[new])) ** 2
                weight[new] = np.maximum(weight[new], w * trait[new])
            fresh = new[~present[new]]
            present[fresh] = True
            order[n_order : n_order + len(fresh)] = fresh
            n_order += len(fresh)
            n_present += len(fresh)

        join(root)
        chosen: list[int] = []
        for _ in range(size):
            if n_present and rng.random() < cfg.organic_prob:
                cand = order[:n_order]
                cand = cand[present[cand]]
                # Squared weights sharpen selection toward high-propensity
                # users, making participation consistent across cascades
                # (the predictability the paper's models exploit).
                w = weight[cand] ** 2
                uid = int(cand[rng.choice(len(cand), p=w / w.sum())])
            else:
                outside = np.flatnonzero(~participant)
                if not len(outside):
                    break
                uid = int(outside[rng.integers(0, len(outside))])
            if present[uid]:
                present[uid] = False
                n_present -= 1
            chosen.append(uid)
            join(uid)

        scale = cfg.hate_delay_hours if tweet.is_hate else cfg.nonhate_delay_hours
        delays = rng.exponential(scale, size=len(chosen))
        if not tweet.is_hate:
            # Non-hate keeps spreading at a low rate for a long time: mix in
            # a uniform tail over the Fig. 1 horizon.
            tail = rng.random(len(chosen)) < 0.35
            delays[tail] = rng.uniform(0.0, FIG1_HORIZON, size=int(tail.sum()))
        delays = np.sort(np.minimum(delays, FIG1_HORIZON))
        retweets = [
            Retweet(user_id=uid, timestamp=float(tweet.timestamp + d))
            for uid, d in zip(chosen, delays)
        ]
        return Cascade(root=tweet, retweets=retweets)

    # -------------------------------------------------------------- history
    @staticmethod
    def _make_history(cfg, catalog, users, rng) -> dict[int, list[Tweet]]:
        """Pre-window tweets per user (negative timestamps).

        These instantiate the paper's activity history H_{i,t}: recent
        topical interest, hate ratio, and lexicon counts are all computed
        from this pool.
        """
        history: dict[int, list[Tweet]] = {}
        tweet_id = 10_000_000  # disjoint id space from in-window tweets
        tags = [spec.tag for spec in catalog]
        themes = [spec.theme for spec in catalog]
        for uid, user in users.items():
            n_hist = int(rng.poisson(cfg.history_tweets_mean * min(user.activity_rate, 3.0)))
            n_hist = max(n_hist, 3)
            pref = np.array([user.theme_preference[t] for t in themes])  # type: ignore[attr-defined]
            pref /= pref.sum()
            picks = rng.choice(len(tags), size=n_hist, p=pref)
            times = -np.sort(rng.uniform(1.0, 24.0 * 120, size=n_hist))[::-1]
            items: list[Tweet] = []
            for k, (j, ts) in enumerate(zip(picks, times)):
                tag, theme = tags[j], themes[j]
                is_hate = bool(rng.random() < user.hate_probability(tag))
                items.append(
                    Tweet(
                        tweet_id=tweet_id,
                        user_id=uid,
                        hashtag=tag,
                        text=make_text(theme, tag, is_hate, rng, length=12),
                        timestamp=float(ts),
                        is_hate=is_hate,
                    )
                )
                tweet_id += 1
            items.sort(key=lambda tw: tw.timestamp)
            history[uid] = items
        return history

    # ------------------------------------------------------------- summaries
    def hashtag_stats(self) -> list[dict]:
        """Per-hashtag generated statistics in Table II form."""
        out = []
        for spec in self.catalog:
            tw = [t for t in self.tweets if t.hashtag == spec.tag]
            cs = [c for c in self.cascades if c.root.hashtag == spec.tag]
            users_tweeting = {t.user_id for t in tw}
            users_all = set(users_tweeting)
            for c in cs:
                users_all.update(r.user_id for r in c.retweets)
            n_hate = sum(t.is_hate for t in tw)
            out.append(
                {
                    "tag": spec.tag,
                    "tweets": len(tw),
                    "avg_rt": float(np.mean([c.size for c in cs])) if cs else 0.0,
                    "users": len(users_tweeting),
                    "users_all": len(users_all),
                    "pct_hate": 100.0 * n_hate / len(tw) if tw else 0.0,
                    "target_avg_rt": spec.avg_retweets,
                    "target_pct_hate": spec.pct_hate,
                }
            )
        return out

    def user_history_before(self, user_id: int, t: float, k: int = 30) -> list[Tweet]:
        """The user's ``k`` most recent tweets strictly before time ``t``.

        Combines pre-window history with in-window tweets, which is how the
        paper's H_{i,t} features are computed at prediction time t0.
        """
        pool = list(self.history.get(user_id, []))
        pool.extend(tw for tw in self.tweets if tw.user_id == user_id)
        pool = [tw for tw in pool if tw.timestamp < t]
        pool.sort(key=lambda tw: tw.timestamp)
        return pool[-k:]


# ----------------------------------------------------------- state columns
_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_}


def _columns(records: list, cls) -> dict:
    """The int, float, bool and str fields of dataclass records, one column
    each: numbers in an array, strings through :func:`_encode`."""
    hints = typing.get_type_hints(cls)
    columns = {}
    for f in dataclasses.fields(cls):
        values = [getattr(r, f.name) for r in records]
        if hints[f.name] is str:
            columns[f.name] = _encode(values)
        elif hints[f.name] in _DTYPES:
            columns[f.name] = np.array(values, dtype=_DTYPES[hints[f.name]])
    return columns


def _records(cls, columns: dict, **other) -> list:
    """Inverse of :func:`_columns`; ``other`` gives the remaining fields' values."""
    values = {
        name: _decode(col) if isinstance(col, dict) else col.tolist()
        for name, col in columns.items()
    }
    values.update(other)
    return [cls(*row) for row in zip(*(values[f.name] for f in dataclasses.fields(cls)))]


def _encode(strings: list[str]) -> dict:
    """Strings as codes into their distinct values, first seen first; the
    values are stored as one joined string plus end offsets."""
    names = list(dict.fromkeys(strings))
    index = {name: i for i, name in enumerate(names)}
    return {
        "joined": "".join(names),
        "ends": np.cumsum([len(name) for name in names], dtype=np.int64),
        "codes": np.array([index[s] for s in strings], dtype=np.int64),
    }


def _decode(encoded: dict) -> list[str]:
    joined = encoded["joined"]
    names = [joined[lo:hi] for lo, hi in zip(*_bounds(encoded["ends"]))]
    return [names[i] for i in encoded["codes"].tolist()]


def _bounds(ends: np.ndarray) -> tuple[list[int], list[int]]:
    """``(starts, ends)`` of consecutive slices from their end offsets."""
    ends = ends.tolist()
    return [0] + ends[:-1], ends
