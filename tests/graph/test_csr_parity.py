"""Golden parity suite for the CSR graph on a generated world-sized graph.

The network must be *bit-identical* to its two references: a
dict-of-lists graph built from the same edges in emission order
(including per-node neighbour order, which downstream RNG draws
consume) and networkx on the same graph (distances and neighbour sets).
"""

import numpy as np
import pytest

from repro.graph import (
    FollowerEdgeStream,
    InformationNetwork,
    community_follower_edges,
    community_follower_graph,
    dedupe_edges,
)
from tests.graph.oracle import DictGraph

N = 150
SOURCES = (0, 17, 64, 101, 149)


@pytest.fixture(scope="module")
def nets():
    """(dict-of-lists oracle, CSR network) of the same generated edges."""
    src, dst, _ = community_follower_edges(N, random_state=11)
    return DictGraph(N, zip(src, dst)), InformationNetwork(N, src, dst)


class TestNeighborParity:
    def test_followers_order_exact(self, nets):
        ref, net = nets
        for u in range(N):
            assert tuple(ref.followers(u)) == net.followers(u)

    def test_followees_order_exact(self, nets):
        ref, net = nets
        for u in range(N):
            assert tuple(ref.followees(u)) == net.followees(u)

    def test_sets_match_networkx(self, nets):
        pytest.importorskip("networkx")
        _, net = nets
        g = net.to_networkx()
        for u in range(N):
            assert set(net.followers(u)) == set(g.successors(u))
            assert set(net.followees(u)) == set(g.predecessors(u))

    def test_frozen_accessors_return_cached_tuples(self, nets):
        # Cascade simulation calls followers() per retweet, so the
        # accessors must hand back the same tuple object instead of
        # allocating a fresh sequence per call.
        _, net = nets
        a, b = net.followers(5), net.followers(5)
        assert isinstance(a, tuple) and a is b
        c, d = net.followees(5), net.followees(5)
        assert isinstance(c, tuple) and c is d

    def test_follower_counts_parity(self, nets):
        ref, net = nets
        counts = net.follower_counts()
        for u in range(N):
            assert counts[u] == ref.follower_count(u)
            assert net.follower_count(u) == ref.follower_count(u)

    def test_follows_parity(self, nets):
        ref, net = nets
        rng = np.random.default_rng(0)
        for a, b in rng.integers(0, N, size=(200, 2)):
            assert net.follows(int(a), int(b)) == ref.follows(int(a), int(b))


class TestDistanceParity:
    def test_distances_from_matches_networkx(self, nets):
        nx = pytest.importorskip("networkx")
        _, net = nets
        g = net.to_networkx()
        for s in SOURCES:
            expected = dict(nx.single_source_shortest_path_length(g, s, cutoff=4))
            assert net.distances_from(s, cutoff=4) == expected

    def test_distances_from_matches_oracle(self, nets):
        ref, net = nets
        for s in SOURCES:
            assert net.distances_from(s, cutoff=4) == ref.distances_from(s, cutoff=4)

    def test_pairwise_spl_parity(self, nets):
        ref, net = nets
        rng = np.random.default_rng(1)
        for a, b in rng.integers(0, N, size=(100, 2)):
            assert net.shortest_path_length(
                int(a), int(b), cutoff=4
            ) == ref.shortest_path_length(int(a), int(b), cutoff=4)

    def test_distance_array_agrees_with_dict(self, nets):
        _, net = nets
        for s in SOURCES:
            arr = net.distances_array_from(s, cutoff=4)
            dist = net.distances_from(s, cutoff=4)
            for u in range(N):
                assert int(arr[u]) == dist.get(u, 5)

    def test_susceptible_set_parity(self, nets):
        ref, net = nets
        rng = np.random.default_rng(2)
        for _ in range(10):
            participants = [int(u) for u in rng.choice(N, size=6, replace=False)]
            assert net.susceptible_set(participants) == ref.susceptible_set(
                participants
            )


class TestEdgeStreamParity:
    def test_exact_stream_equals_resident_generator(self):
        # Chunking the exact stream must not change its RNG draws: a
        # small chunk size gives the same graph as the generator's single
        # chunk, neighbour order included.
        ref, _ = community_follower_graph(N, random_state=11)
        stream = FollowerEdgeStream(N, mode="exact", chunk_users=37, random_state=11)
        fes, frs = [], []
        for fe, fr in stream.chunks():
            fes.append(fe)
            frs.append(fr)
        src = np.concatenate(fes) if fes else np.empty(0, dtype=np.int64)
        dst = np.concatenate(frs) if frs else np.empty(0, dtype=np.int64)
        src, dst = dedupe_edges(src, dst, N)
        net = InformationNetwork(N, src, dst)
        assert net.n_follows == ref.n_follows
        for u in range(N):
            assert net.followers(u) == tuple(ref.followers(u))
            assert net.followees(u) == ref.followees(u)

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
        net = InformationNetwork(1000, src, dst)
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
