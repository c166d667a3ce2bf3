"""Overlay parity: ingest-time follows == the same edges built into the CSR.

Live ingest adds follow edges to a built CSR network through the
overlay (``_extra_succ``/``_extra_pred``).  Every read surface must be
indistinguishable from a network built from the base edges followed by
those edges — otherwise incremental invalidation cannot be bit-exact.
"""

import numpy as np
import pytest

from repro.graph import InformationNetwork, community_follower_edges

BASE_SEED = 21
N_USERS = 60


def _base_net(extra_edges=()):
    src, dst, _ = community_follower_edges(
        n_users=N_USERS, n_communities=4, mean_follows=6,
        random_state=BASE_SEED,
    )
    extra = np.array(extra_edges, dtype=np.int64).reshape(-1, 2)
    return InformationNetwork(
        N_USERS, np.concatenate([src, extra[:, 0]]), np.concatenate([dst, extra[:, 1]])
    )


def _fresh_edges(net, k=5):
    """k (followee, follower) pairs absent from ``net``, deterministic."""
    edges = []
    rng = np.random.default_rng(7)
    while len(edges) < k:
        followee, follower = (int(v) for v in rng.integers(0, N_USERS, 2))
        if followee == follower or net.follows(follower, followee):
            continue
        if (followee, follower) in edges:
            continue
        edges.append((followee, follower))
    return edges


@pytest.fixture(scope="module")
def nets():
    overlay = _base_net()
    edges = _fresh_edges(overlay)
    for followee, follower in edges:
        assert overlay.add_follow(followee, follower)
    golden = _base_net(edges)
    return overlay, golden, edges


def test_overlay_edge_count(nets):
    overlay, golden, edges = nets
    assert overlay.n_overlay_edges == len(edges)
    assert golden.n_overlay_edges == 0
    assert overlay.n_follows == golden.n_follows


def test_follows_parity(nets):
    overlay, golden, edges = nets
    for followee, follower in edges:
        assert overlay.follows(follower, followee)
    for follower in range(N_USERS):
        for followee in range(N_USERS):
            assert overlay.follows(follower, followee) == golden.follows(
                follower, followee
            ), (follower, followee)


def test_neighbor_sets_parity(nets):
    # Overlay edges read after the base edges, as they were emitted.
    overlay, golden, _ = nets
    for u in range(N_USERS):
        assert overlay.followers(u) == golden.followers(u)
        assert overlay.followees(u) == golden.followees(u)
        assert overlay.follower_count(u) == golden.follower_count(u)


def test_follower_counts_vector_parity(nets):
    overlay, golden, _ = nets
    np.testing.assert_array_equal(overlay.follower_counts(), golden.follower_counts())


def test_bfs_distance_parity(nets):
    overlay, golden, edges = nets
    sources = sorted({followee for followee, _ in edges} | {0, N_USERS - 1})
    for s in sources:
        np.testing.assert_array_equal(
            overlay.distances_array_from(s, cutoff=6),
            golden.distances_array_from(s, cutoff=6),
            err_msg=f"BFS from {s} diverges",
        )
        for t in range(N_USERS):
            assert overlay.shortest_path_length(s, t, cutoff=6) == \
                golden.shortest_path_length(s, t, cutoff=6)


def test_overlay_add_is_idempotent(nets):
    overlay, _, edges = nets
    followee, follower = edges[0]
    before = overlay.n_overlay_edges
    assert not overlay.add_follow(followee, follower)  # already present
    assert overlay.n_overlay_edges == before
