"""Tests for the information network and graph generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import InformationNetwork, community_follower_graph


@pytest.fixture
def small_net():
    """0 -> {1, 2}, 1 -> {2}, 3 isolated.  Edges point info-flow direction."""
    net = InformationNetwork()
    for u in range(4):
        net.add_user(u)
    net.add_follow(0, 1)  # 1 follows 0
    net.add_follow(0, 2)
    net.add_follow(1, 2)
    return net


class TestInformationNetwork:
    def test_followers(self, small_net):
        assert sorted(small_net.followers(0)) == [1, 2]
        assert small_net.followers(3) == []

    def test_followees(self, small_net):
        assert sorted(small_net.followees(2)) == [0, 1]

    def test_follows_direction(self, small_net):
        assert small_net.follows(1, 0)  # 1 follows 0
        assert not small_net.follows(0, 1)

    def test_follower_count(self, small_net):
        assert small_net.follower_count(0) == 2
        assert small_net.follower_count(2) == 0

    def test_self_follow_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.add_follow(1, 1)

    def test_shortest_path(self, small_net):
        assert small_net.shortest_path_length(0, 1) == 1
        assert small_net.shortest_path_length(0, 2) == 1
        assert small_net.shortest_path_length(0, 0) == 0

    def test_shortest_path_unreachable(self, small_net):
        assert small_net.shortest_path_length(0, 3, cutoff=4) == 5

    def test_shortest_path_respects_direction(self, small_net):
        assert small_net.shortest_path_length(2, 0, cutoff=4) == 5

    def test_missing_nodes(self, small_net):
        assert small_net.shortest_path_length(99, 0) > 0
        assert small_net.followers(99) == []

    def test_susceptible_set(self, small_net):
        # participants {0}: followers {1,2} -> susceptible {1,2}
        assert small_net.susceptible_set([0]) == {1, 2}
        # participants {0,1}: followers {1,2}; minus participants -> {2}
        assert small_net.susceptible_set([0, 1]) == {2}

    def test_susceptible_empty(self, small_net):
        assert small_net.susceptible_set([3]) == set()

    def test_subgraph(self, small_net):
        sub = small_net.subgraph_users([0, 1])
        assert sub.n_users == 2
        assert sub.follows(1, 0)
        assert not sub.follows(2, 0)

    def test_counts(self, small_net):
        assert small_net.n_users == 4
        assert small_net.n_follows == 3


class TestDistancesFrom:
    def test_matches_pairwise_bfs_on_small_net(self, small_net):
        dist = small_net.distances_from(0, cutoff=4)
        assert dist == {0: 0, 1: 1, 2: 1}
        for target in range(4):
            assert dist.get(target, 5) == small_net.shortest_path_length(
                0, target, cutoff=4
            )

    def test_missing_source_is_empty(self, small_net):
        assert small_net.distances_from(99) == {}

    def test_cutoff_truncates_frontier(self):
        # Chain 0 -> 1 -> 2 -> 3.
        net = InformationNetwork()
        for u in range(4):
            net.add_user(u)
        for u in range(3):
            net.add_follow(u, u + 1)
        assert net.distances_from(0, cutoff=2) == {0: 0, 1: 1, 2: 2}
        assert net.distances_from(0, cutoff=3) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_matches_pairwise_bfs_on_generated_graph(self):
        net, _ = community_follower_graph(120, random_state=3)
        for source in (0, 17, 60):
            dist = net.distances_from(source, cutoff=4)
            for target in range(120):
                assert dist.get(target, 5) == net.shortest_path_length(
                    source, target, cutoff=4
                )


class TestGenerator:
    def test_basic_shape(self):
        net, comm = community_follower_graph(100, random_state=0)
        assert net.n_users == 100
        assert len(comm) == 100
        assert net.n_follows > 100

    def test_reproducible(self):
        n1, c1 = community_follower_graph(80, random_state=5)
        n2, c2 = community_follower_graph(80, random_state=5)
        assert n1.n_follows == n2.n_follows
        assert np.array_equal(c1, c2)

    def test_community_homophily(self):
        pytest.importorskip("networkx")
        net, comm = community_follower_graph(
            300, n_communities=4, p_in=0.8, celebrity_fraction=0.0, random_state=0
        )
        g = net.to_networkx()
        same = sum(1 for u, v in g.edges if comm[u] == comm[v])
        assert same / g.number_of_edges() > 0.5

    def test_heavy_tail(self):
        net, _ = community_follower_graph(400, random_state=1)
        counts = np.array([net.follower_count(u) for u in range(400)])
        # Preferential attachment + celebrities: max far above median.
        assert counts.max() > 5 * max(np.median(counts), 1)

    def test_celebrities_create_hubs(self):
        net, _ = community_follower_graph(
            200, celebrity_fraction=0.05, celebrity_follow_prob=0.5, random_state=2
        )
        counts = sorted((net.follower_count(u) for u in range(200)), reverse=True)
        assert counts[0] > 60  # ~ half the population

    def test_validation(self):
        with pytest.raises(ValueError):
            community_follower_graph(1)
        with pytest.raises(ValueError):
            community_follower_graph(10, p_in=1.5)
        with pytest.raises(ValueError):
            community_follower_graph(10, celebrity_fraction=1.0)

    @given(st.integers(10, 60), st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_no_self_loops_property(self, n, k):
        pytest.importorskip("networkx")
        net, _ = community_follower_graph(n, n_communities=k, random_state=0)
        g = net.to_networkx()
        assert all(u != v for u, v in g.edges)
