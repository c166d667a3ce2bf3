"""Directed follower network.

Following the paper (Sec. III): nodes are users; an ordered edge
``(u_i, u_j)`` exists iff ``u_j`` follows ``u_i``, i.e. edges point in the
direction information flows.  "Followers of u" are therefore successors of
``u``, and a user is *susceptible* to a cascade once at least one of their
followees has participated.

The graph is one CSR (compressed sparse row) adjacency compiled from
``(followee, follower)`` edge arrays by :mod:`repro.graph.csr`: int32
successors plus a transposed copy for predecessors.  User ids are the
rows ``0..n_users-1``.  Neighbour queries are array slices, degrees come
straight off ``indptr``, BFS runs frontier-vectorised,
``followers_rows``/``followees_rows`` are zero-copy slices (cascade
simulation reads them per retweet), and ``followers``/``followees``
return cached tuples for the per-user diffusion baselines.

:meth:`InformationNetwork.add_follow` is the only mutation: live ingest
puts the edge in a small overlay that every query merges in, exactly as
if the CSR had been rebuilt with the combined edge set.

``networkx`` is not the substrate — :meth:`to_networkx` builds a
``DiGraph`` view on demand for analysis code that wants one.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import (
    bfs_distances,
    bfs_distances_overlay,
    bfs_hops_to,
    build_csr,
    csr_edges,
)

__all__ = ["InformationNetwork"]

#: Bound on the followers/followees tuple caches: the diffusion
#: baselines revisit a hot set of users, but a full sweep over a
#: million-user graph must not pin every adjacency list as a tuple.
_NEIGHBOR_CACHE_CAP = 65536


class InformationNetwork:
    """The paper's follower graph G = {U, E} with diffusion helpers.

    ``src[k] -> dst[k]`` means user ``dst[k]`` follows ``src[k]``; users
    are ``0..n_users-1``.  Edges must be deduplicated
    (:func:`~repro.graph.generators.dedupe_edges`) and each user's
    neighbours keep emission order, which RNG-driven consumers (cascade
    simulation) depend on for bit-identical worlds.
    """

    def __init__(self, n_users: int, src: np.ndarray, dst: np.ndarray):
        self._indptr, self._indices = build_csr(src, dst, n_users)
        self._tindptr, self._tindices = build_csr(dst, src, n_users)
        self._n_edges = len(self._indices)
        self._fol_cache: dict[int, tuple] = {}
        self._fee_cache: dict[int, tuple] = {}
        # Ingest overlay: edges added by add_follow live here instead of
        # forcing a CSR rebuild.  Rows without overlay entries stay on the
        # zero-copy path.
        self._extra_succ: dict[int, list[int]] = {}
        self._extra_pred: dict[int, list[int]] = {}
        self._extra_edges: set[tuple[int, int]] = set()

    # ------------------------------------------------------------- mutation
    def add_follow(self, followee: int, follower: int) -> bool:
        """Record that ``follower`` follows ``followee`` (edge followee -> follower).

        Both users must exist.  Returns True when a new edge was added,
        False for a duplicate.
        """
        if followee == follower:
            raise ValueError("a user cannot follow themselves")
        followee, follower = int(followee), int(follower)
        if followee not in self or follower not in self:
            raise ValueError(
                f"cannot add a follow edge between unknown users ({followee} -> {follower})"
            )
        if self.follows(follower, followee):
            return False
        self._extra_succ.setdefault(followee, []).append(follower)
        self._extra_pred.setdefault(follower, []).append(followee)
        self._extra_edges.add((followee, follower))
        self._n_edges += 1
        # The affected adjacency tuples are stale; rebuild lazily.
        self._fol_cache.pop(followee, None)
        self._fee_cache.pop(follower, None)
        return True

    @property
    def n_overlay_edges(self) -> int:
        """Edges added by :meth:`add_follow` since construction."""
        return len(self._extra_edges)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays that rebuild this graph exactly.

        ``InformationNetwork(n_users, *net.edges())`` has the same
        followers *and* followees in the same order.  Overlay edges are
        not part of the CSR, so a graph that has them is refused.
        """
        if self._extra_edges:
            raise ValueError(
                f"graph has {len(self._extra_edges)} overlay edges; "
                "edges() covers the constructed graph only"
            )
        return csr_edges(self._indptr, self._indices, self._tindptr, self._tindices)

    # -------------------------------------------------------------- queries
    @property
    def n_users(self) -> int:
        return len(self._indptr) - 1

    @property
    def n_follows(self) -> int:
        return self._n_edges

    def __contains__(self, user_id) -> bool:
        return 0 <= int(user_id) < self.n_users

    def users(self) -> list[int]:
        return list(range(self.n_users))

    def _succ_slice(self, row: int) -> np.ndarray:
        return self._indices[self._indptr[row] : self._indptr[row + 1]]

    def followers(self, user_id: int) -> tuple:
        """Users who follow ``user_id`` (receive their tweets), cached."""
        cached = self._fol_cache.get(user_id)
        if cached is not None:
            return cached
        if user_id not in self:
            return ()
        value = tuple(self.followers_rows(int(user_id)).tolist())
        if len(self._fol_cache) >= _NEIGHBOR_CACHE_CAP:
            self._fol_cache.pop(next(iter(self._fol_cache)))
        self._fol_cache[user_id] = value
        return value

    def followees(self, user_id: int) -> tuple:
        """Users whom ``user_id`` follows, cached."""
        cached = self._fee_cache.get(user_id)
        if cached is not None:
            return cached
        if user_id not in self:
            return ()
        value = tuple(self.followees_rows(int(user_id)).tolist())
        if len(self._fee_cache) >= _NEIGHBOR_CACHE_CAP:
            self._fee_cache.pop(next(iter(self._fee_cache)))
        self._fee_cache[user_id] = value
        return value

    def followers_rows(self, row: int) -> np.ndarray:
        """Follower rows of a user (the cascade-sampling hot path).

        Zero-copy base slice when the row has no overlay edges; a fresh
        concatenation (base order, then ingest order) when it does.
        """
        base = self._succ_slice(row)
        extra = self._extra_succ.get(int(row))
        if not extra:
            return base
        return np.concatenate([base, np.asarray(extra, dtype=base.dtype)])

    def followees_rows(self, row: int) -> np.ndarray:
        """Followee rows of a user, the transpose of :meth:`followers_rows`.

        Zero-copy base slice when the row has no overlay edges; a fresh
        concatenation (base order, then ingest order) when it does.
        """
        base = self._tindices[self._tindptr[row] : self._tindptr[row + 1]]
        extra = self._extra_pred.get(int(row))
        if not extra:
            return base
        return np.concatenate([base, np.asarray(extra, dtype=base.dtype)])

    def follower_count(self, user_id: int) -> int:
        if user_id not in self:
            return 0
        row = int(user_id)
        count = int(self._indptr[row + 1] - self._indptr[row])
        return count + len(self._extra_succ.get(row, ()))

    def follower_counts(self) -> np.ndarray:
        """Follower count of every user, straight off ``indptr``."""
        counts = np.diff(self._indptr)
        if self._extra_succ:
            counts = counts.copy()
            for row, extra in self._extra_succ.items():
                counts[row] += len(extra)
        return counts

    def follows(self, follower: int, followee: int) -> bool:
        """True when ``follower`` follows ``followee``."""
        if followee not in self or follower not in self:
            return False
        row, frow = int(followee), int(follower)
        if (row, frow) in self._extra_edges:
            return True
        return bool((self._succ_slice(row) == frow).any())

    # ------------------------------------------------------------------ BFS
    def shortest_path_length(self, source: int, target: int, cutoff: int = 6) -> int:
        """BFS hops from ``source`` to ``target`` along information flow.

        Returns ``cutoff + 1`` when unreachable within ``cutoff`` hops, which
        gives downstream features a finite "far away" value (the paper uses
        the shortest path from the root user as a peer-influence feature).
        """
        if self._extra_succ:
            if target not in self:
                return cutoff + 1
            return int(self.distances_array_from(source, cutoff)[int(target)])
        return bfs_hops_to(self._indptr, self._indices, int(source), int(target), cutoff)

    def distances_from(self, source: int, cutoff: int = 6) -> dict[int, int]:
        """Hop counts from ``source`` to every node within ``cutoff``.

        One BFS along information flow covering all targets at once — the
        single-source counterpart of :meth:`shortest_path_length`.  The
        returned mapping contains ``source`` at distance 0 and omits nodes
        unreachable within ``cutoff``; pair queries treat absent nodes as
        ``cutoff + 1``, so ``distances_from(s, c).get(t, c + 1)`` equals
        ``shortest_path_length(s, t, cutoff=c)`` for every target ``t``.
        """
        arr = self.distances_array_from(source, cutoff)
        return {int(u): int(arr[u]) for u in np.flatnonzero(arr <= cutoff)}

    def distances_array_from(self, source: int, cutoff: int = 6) -> np.ndarray:
        """(n,) int16 hop counts per user; ``cutoff + 1`` = unreached.

        The array counterpart of :meth:`distances_from` — one
        frontier-vectorised BFS, no per-node dict.  An absent source
        yields an all-far array.
        """
        if self._extra_succ:
            return bfs_distances_overlay(
                self._indptr, self._indices, self._extra_succ, int(source), cutoff
            )
        return bfs_distances(self._indptr, self._indices, int(source), cutoff)

    # ----------------------------------------------------------- set queries
    def susceptible_set(self, participants) -> set[int]:
        """Users exposed to a cascade but not participating (paper Fig. 1b).

        The susceptible set at a time instant is every follower of any
        participant, minus the participants themselves.
        """
        participants = set(participants)
        exposed: set[int] = set()
        for uid in participants:
            if uid in self:
                exposed.update(self.followers_rows(int(uid)).tolist())
        return exposed - participants

    def to_networkx(self):
        """A ``networkx.DiGraph`` *view* of the adjacency (built on demand)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.users())
        for u in self.users():
            for v in self.followers(u):
                g.add_edge(u, v)
        return g
