"""Golden parity suite for the frozen CSR graph substrate.

The frozen path must be *bit-identical* to its two references: the
unfrozen dict-of-lists network it was compiled from (including
per-node neighbour order, which downstream RNG draws consume) and
networkx on the same graph (distances and neighbour sets).
"""

import numpy as np
import pytest

from repro.graph import (
    FollowerEdgeStream,
    InformationNetwork,
    community_follower_graph,
    dedupe_edges,
)

N = 150
SOURCES = (0, 17, 64, 101, 149)


@pytest.fixture(scope="module")
def nets():
    """(unfrozen reference, frozen twin) of the same generated graph."""
    ref, _ = community_follower_graph(N, random_state=11)
    frozen, _ = community_follower_graph(N, random_state=11)
    frozen.freeze()
    return ref, frozen


class TestNeighborParity:
    def test_followers_order_exact(self, nets):
        ref, frozen = nets
        for u in range(N):
            assert tuple(ref.followers(u)) == frozen.followers(u)

    def test_followees_order_exact(self, nets):
        ref, frozen = nets
        for u in range(N):
            assert tuple(ref.followees(u)) == frozen.followees(u)

    def test_sets_match_networkx(self, nets):
        pytest.importorskip("networkx")
        _, frozen = nets
        g = frozen.to_networkx()
        for u in range(N):
            assert set(frozen.followers(u)) == set(g.successors(u))
            assert set(frozen.followees(u)) == set(g.predecessors(u))

    def test_frozen_accessors_return_cached_tuples(self, nets):
        # The satellite contract: cascade simulation calls followers()
        # per retweet, so the frozen accessors must hand back the same
        # tuple object instead of allocating a list per call.
        _, frozen = nets
        a, b = frozen.followers(5), frozen.followers(5)
        assert isinstance(a, tuple) and a is b
        c, d = frozen.followees(5), frozen.followees(5)
        assert isinstance(c, tuple) and c is d

    def test_follower_counts_parity(self, nets):
        ref, frozen = nets
        counts = frozen.follower_counts()
        for u in range(N):
            assert counts[frozen.row_index([u])[0]] == ref.follower_count(u)
            assert frozen.follower_count(u) == ref.follower_count(u)

    def test_follows_parity(self, nets):
        ref, frozen = nets
        rng = np.random.default_rng(0)
        for a, b in rng.integers(0, N, size=(200, 2)):
            assert frozen.follows(int(a), int(b)) == ref.follows(int(a), int(b))


class TestDistanceParity:
    def test_distances_from_matches_networkx(self, nets):
        nx = pytest.importorskip("networkx")
        _, frozen = nets
        g = frozen.to_networkx()
        for s in SOURCES:
            expected = dict(nx.single_source_shortest_path_length(g, s, cutoff=4))
            assert frozen.distances_from(s, cutoff=4) == expected

    def test_distances_from_matches_unfrozen(self, nets):
        ref, frozen = nets
        for s in SOURCES:
            assert frozen.distances_from(s, cutoff=4) == ref.distances_from(s, cutoff=4)

    def test_pairwise_spl_parity(self, nets):
        ref, frozen = nets
        rng = np.random.default_rng(1)
        for a, b in rng.integers(0, N, size=(100, 2)):
            assert frozen.shortest_path_length(
                int(a), int(b), cutoff=4
            ) == ref.shortest_path_length(int(a), int(b), cutoff=4)

    def test_distance_array_agrees_with_dict(self, nets):
        _, frozen = nets
        for s in SOURCES:
            arr = frozen.distances_array_from(s, cutoff=4)
            dist = frozen.distances_from(s, cutoff=4)
            for u in range(N):
                row = int(frozen.row_index([u])[0])
                assert int(arr[row]) == dist.get(u, 5)

    def test_susceptible_set_parity(self, nets):
        ref, frozen = nets
        rng = np.random.default_rng(2)
        for _ in range(10):
            participants = [int(u) for u in rng.choice(N, size=6, replace=False)]
            assert frozen.susceptible_set(participants) == ref.susceptible_set(
                participants
            )


class TestFrozenLifecycle:
    def test_mutation_raises_after_freeze(self, nets):
        _, frozen = nets
        with pytest.raises(RuntimeError):
            frozen.add_user(N + 1)
        # add_follow is the one allowed frozen mutation (live-ingest
        # overlay; parity pinned in test_overlay.py).  An edge that
        # already exists is a no-op and adds nothing to the overlay.
        existing = next(
            (a, b) for a in range(N) for b in frozen.followers(a)
        )
        assert frozen.add_follow(*existing) is False
        assert frozen.n_overlay_edges == 0

    def test_freeze_is_idempotent(self, nets):
        _, frozen = nets
        before = frozen.n_follows
        assert frozen.freeze() is frozen
        assert frozen.n_follows == before

    def test_subgraph_of_frozen_is_mutable(self, nets):
        _, frozen = nets
        sub = frozen.subgraph_users(list(range(10)))
        assert not sub.is_frozen
        sub.add_user(999)  # must not raise


class TestEdgeStreamParity:
    def test_exact_stream_equals_resident_generator(self):
        # The chunked exact stream replays the resident generator's RNG
        # draw-for-draw: consuming it through from_edge_arrays must give
        # the same graph, neighbour order included.
        ref, _ = community_follower_graph(N, random_state=11)
        stream = FollowerEdgeStream(N, mode="exact", chunk_users=37, random_state=11)
        fes, frs = [], []
        for fe, fr in stream.chunks():
            fes.append(fe)
            frs.append(fr)
        src = np.concatenate(fes) if fes else np.empty(0, dtype=np.int64)
        dst = np.concatenate(frs) if frs else np.empty(0, dtype=np.int64)
        src, dst = dedupe_edges(src, dst, N)
        net = InformationNetwork.from_edge_arrays(N, src, dst)
        assert net.n_follows == ref.n_follows
        for u in range(N):
            assert net.followers(u) == tuple(ref.followers(u))
            assert set(net.followees(u)) == set(ref.followees(u))

    def test_fast_stream_produces_a_valid_graph(self):
        stream = FollowerEdgeStream(
            1000, mode="fast", chunk_users=256, random_state=3
        )
        fes, frs = [], []
        for fe, fr in stream.chunks():
            fes.append(fe)
            frs.append(fr)
        src, dst = np.concatenate(fes), np.concatenate(frs)
        src, dst = dedupe_edges(src, dst, 1000)
        assert np.all(src != dst)  # no self-follows
        assert src.min() >= 0 and src.max() < 1000
        assert dst.min() >= 0 and dst.max() < 1000
        # dedupe is a fixpoint: no duplicate pairs survive.
        s2, d2 = dedupe_edges(src, dst, 1000)
        assert len(s2) == len(src)
        net = InformationNetwork.from_edge_arrays(1000, src, dst)
        assert net.n_follows == len(src)
        # Mean degree lands near the requested mean_follows ballpark.
        assert 6 <= net.n_follows / 1000 <= 30

    def test_fast_stream_deterministic(self):
        def edges(seed):
            st = FollowerEdgeStream(500, mode="fast", chunk_users=128, random_state=seed)
            parts = [np.stack([fe, fr]) for fe, fr in st.chunks()]
            return np.concatenate(parts, axis=1)

        assert np.array_equal(edges(9), edges(9))
        assert not np.array_equal(edges(9), edges(10))
