"""Synthetic follower-graph generation.

The paper crawls followers up to depth 3 (41M users).  We generate a
scaled-down directed graph with the two properties the diffusion analysis
depends on:

1. **Heavy-tailed follower counts** — preferential attachment: the
   probability of following a user grows with their current follower count.
2. **Community structure (echo chambers)** — users belong to communities and
   follow within their community with probability ``p_in``; hateful cascades
   in the paper spread within well-connected groups, which is what this
   clustering produces.

Generation is expressed as an **edge stream** (:class:`FollowerEdgeStream`)
so world builders can consume ``(followee, follower)`` chunks without a
resident adjacency:

- ``mode="exact"`` replays the original per-draw loop RNG call for RNG
  call — :func:`community_follower_edges` consumes it and produces
  bit-identical graphs to every earlier release;
- ``mode="fast"`` is the world-scale path: chunked preferential
  attachment with per-chunk frozen weights, inverse-CDF sampling via
  ``searchsorted``, and vectorised celebrity fan-out.  Same family of
  graphs (heavy tail + echo chambers), not draw-compatible with exact.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.network import InformationNetwork
from repro.utils.rng import ensure_rng

__all__ = [
    "FollowerEdgeStream",
    "community_follower_edges",
    "community_follower_graph",
    "dedupe_edges",
]


def dedupe_edges(
    src: np.ndarray, dst: np.ndarray, n_users: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate ``(src, dst)`` pairs, keeping first emission order."""
    key = src.astype(np.int64) * int(n_users) + dst.astype(np.int64)
    _, first = np.unique(key, return_index=True)
    keep = np.sort(first)
    return src[keep], dst[keep]


class FollowerEdgeStream:
    """Chunked ``(followee, follower)`` edge emission for the community graph.

    Drawing community labels happens in the constructor (first RNG call,
    matching the original generator); edges arrive via :meth:`chunks` as
    pairs of int arrays in emission order.  ``popularity`` and
    ``communities`` stay available afterwards for world builders.
    """

    def __init__(
        self,
        n_users: int,
        n_communities: int = 8,
        mean_follows: int = 12,
        p_in: float = 0.7,
        celebrity_fraction: float = 0.02,
        celebrity_follow_prob: float = 0.25,
        mode: str = "exact",
        chunk_users: int = 50_000,
        random_state=None,
    ):
        if n_users < 2:
            raise ValueError(f"need at least 2 users, got {n_users}")
        if not 0.0 <= p_in <= 1.0:
            raise ValueError(f"p_in must be in [0, 1], got {p_in}")
        if not 0.0 <= celebrity_fraction < 1.0:
            raise ValueError(
                f"celebrity_fraction must be in [0, 1), got {celebrity_fraction}"
            )
        if mode not in ("exact", "fast"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n_users = n_users
        self.n_communities = n_communities
        self.mean_follows = mean_follows
        self.p_in = p_in
        self.celebrity_fraction = celebrity_fraction
        self.celebrity_follow_prob = celebrity_follow_prob
        self.mode = mode
        self.chunk_users = max(1, int(chunk_users))
        self.rng = ensure_rng(random_state)
        self.communities = self.rng.integers(0, n_communities, size=n_users)
        # follower_counts + 1 drives preferential attachment.
        self.popularity = np.ones(n_users)
        self.celebrities: np.ndarray = np.empty(0, dtype=np.int64)

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if self.mode == "exact":
            yield from self._chunks_exact()
        else:
            yield from self._chunks_fast()

    # ------------------------------------------------------------- exact
    def _chunks_exact(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Draw-for-draw identical to the historical resident loop.

        The original loop deduplicated against the live network with
        ``net.follows``.  In phase 1 an edge ``(followee -> uid)`` can only
        arise inside ``uid``'s own inner loop, so a local per-stream edge
        set is an equivalent guard; the celebrity phase then consults the
        same set, seeing exactly the phase-1 edges the network would hold.
        """
        n_users = self.n_users
        rng = self.rng
        popularity = self.popularity
        members = [
            np.flatnonzero(self.communities == c) for c in range(self.n_communities)
        ]
        seen: set[tuple[int, int]] = set()
        buf_fe: list[int] = []
        buf_fr: list[int] = []

        def flush() -> tuple[np.ndarray, np.ndarray]:
            fe = np.array(buf_fe, dtype=np.int64)
            fr = np.array(buf_fr, dtype=np.int64)
            buf_fe.clear()
            buf_fr.clear()
            return fe, fr

        for uid in range(n_users):
            k = max(1, rng.poisson(self.mean_follows))
            own = members[self.communities[uid]]
            for _ in range(k):
                if rng.random() < self.p_in and len(own) > 1:
                    pool = own
                else:
                    pool = None  # global
                if pool is None:
                    weights = popularity
                    candidates = None
                else:
                    weights = popularity[pool]
                    candidates = pool
                probs = weights / weights.sum()
                pick = rng.choice(len(probs), p=probs)
                followee = int(candidates[pick]) if candidates is not None else int(pick)
                if followee == uid:
                    continue
                if (followee, uid) not in seen:
                    seen.add((followee, uid))
                    buf_fe.append(followee)
                    buf_fr.append(uid)
                    popularity[followee] += 1.0
            if len(buf_fe) >= self.chunk_users:
                yield flush()
        if buf_fe:
            yield flush()

        n_celebs = int(round(self.celebrity_fraction * n_users))
        celebs = (
            rng.choice(n_users, size=n_celebs, replace=False) if n_celebs else []
        )
        self.celebrities = np.asarray(celebs, dtype=np.int64)
        for celeb in celebs:
            for uid in range(n_users):
                if uid != celeb and rng.random() < self.celebrity_follow_prob:
                    if (int(celeb), uid) not in seen:
                        seen.add((int(celeb), uid))
                        buf_fe.append(int(celeb))
                        buf_fr.append(uid)
                        popularity[int(celeb)] += 1.0
            if len(buf_fe) >= self.chunk_users:
                yield flush()
        if buf_fe:
            yield flush()

    # -------------------------------------------------------------- fast
    def _chunks_fast(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Vectorised preferential attachment, one user-chunk at a time.

        Weights are frozen per chunk (popularity applied with
        ``np.add.at`` at chunk end) — the draw-by-draw feedback of exact
        mode is the one approximation traded away for vectorisation.
        Emission may repeat a ``(followee, follower)`` pair across phases;
        consumers dedupe globally with :func:`dedupe_edges`.
        """
        n_users = self.n_users
        rng = self.rng
        popularity = self.popularity
        communities = self.communities
        members = [
            np.flatnonzero(communities == c) for c in range(self.n_communities)
        ]

        for lo in range(0, n_users, self.chunk_users):
            hi = min(lo + self.chunk_users, n_users)
            uids = np.arange(lo, hi, dtype=np.int64)
            k = np.maximum(1, rng.poisson(self.mean_follows, size=len(uids)))
            followers = np.repeat(uids, k)
            total = int(k.sum())
            use_own = rng.random(total) < self.p_in
            followees = np.empty(total, dtype=np.int64)

            # Global draws: inverse-CDF over the frozen popularity.
            glob = np.flatnonzero(~use_own)
            if len(glob):
                cdf = np.cumsum(popularity)
                u = rng.random(len(glob)) * cdf[-1]
                followees[glob] = np.searchsorted(cdf, u, side="right")

            # In-community draws, one community at a time.
            own_idx = np.flatnonzero(use_own)
            if len(own_idx):
                draw_comm = communities[followers[own_idx]]
                for c in np.unique(draw_comm):
                    pool = members[int(c)]
                    sel = own_idx[draw_comm == c]
                    if len(pool) <= 1:
                        # Degenerate community: fall back to global, as
                        # exact mode does when ``len(own) > 1`` fails.
                        cdf = np.cumsum(popularity)
                        u = rng.random(len(sel)) * cdf[-1]
                        followees[sel] = np.searchsorted(cdf, u, side="right")
                        continue
                    cdf = np.cumsum(popularity[pool])
                    u = rng.random(len(sel)) * cdf[-1]
                    followees[sel] = pool[np.searchsorted(cdf, u, side="right")]

            ok = followees != followers
            fe, fr = followees[ok], followers[ok]
            fe, fr = dedupe_edges(fe, fr, n_users)
            np.add.at(popularity, fe, 1.0)
            if len(fe):
                yield fe, fr

        n_celebs = int(round(self.celebrity_fraction * n_users))
        if n_celebs:
            self.celebrities = np.sort(
                rng.choice(n_users, size=n_celebs, replace=False)
            ).astype(np.int64)
            for celeb in self.celebrities:
                picked = np.flatnonzero(
                    rng.random(n_users) < self.celebrity_follow_prob
                ).astype(np.int64)
                picked = picked[picked != celeb]
                if len(picked):
                    popularity[int(celeb)] += float(len(picked))
                    fe = np.full(len(picked), int(celeb), dtype=np.int64)
                    yield fe, picked


def community_follower_edges(
    n_users: int,
    n_communities: int = 8,
    mean_follows: int = 12,
    p_in: float = 0.7,
    celebrity_fraction: float = 0.02,
    celebrity_follow_prob: float = 0.25,
    random_state=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Follower edges with preferential attachment + communities.

    Parameters
    ----------
    n_users:
        Number of users (node ids ``0..n_users-1``).
    n_communities:
        Number of echo-chamber communities.
    mean_follows:
        Average number of accounts each user follows.
    p_in:
        Probability that a follow stays within the user's community.
    celebrity_fraction:
        Fraction of users designated broadcasters (news outlets, public
        figures) that the whole population follows with probability
        ``celebrity_follow_prob`` — the high-fanout hubs organic diffusion
        rides on.

    Returns
    -------
    ``(followees, followers, communities)``: deduplicated edge arrays in
    emission order (``followers[k]`` follows ``followees[k]``) and the
    community id of each user.
    """
    stream = FollowerEdgeStream(
        n_users,
        n_communities=n_communities,
        mean_follows=mean_follows,
        p_in=p_in,
        celebrity_fraction=celebrity_fraction,
        celebrity_follow_prob=celebrity_follow_prob,
        mode="exact",
        random_state=random_state,
    )
    empty = np.empty(0, dtype=np.int64)
    chunks = list(stream.chunks())
    src = np.concatenate([empty] + [fe for fe, _ in chunks])
    dst = np.concatenate([empty] + [fr for _, fr in chunks])
    src, dst = dedupe_edges(src, dst, n_users)
    return src, dst, stream.communities


def community_follower_graph(
    n_users: int, **kwargs
) -> tuple[InformationNetwork, np.ndarray]:
    """:func:`community_follower_edges` compiled into a network.

    Returns ``(network, communities)`` where ``communities[i]`` is the
    community id of user ``i``.
    """
    src, dst, communities = community_follower_edges(n_users, **kwargs)
    return InformationNetwork(n_users, src, dst), communities
