"""The CSR follower graph against a dict-of-lists oracle on generated inputs.

Each case is a small random edge list (duplicates allowed, no
self-loops) compiled through ``dedupe_edges`` into an
:class:`InformationNetwork`, then a few random follows added through the
ingest overlay.  Every query must equal :class:`DictGraph` built in the
same emission order — before the overlay (which fills the neighbour
caches) and after it (which must invalidate them).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import InformationNetwork, dedupe_edges
from tests.graph.oracle import DictGraph

CUTOFFS = (1, 2, 4)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 12))
    # (a, k) -> edge a -> (a + k) % n with k in 1..n-1: never a self-loop.
    edge = st.builds(
        lambda a, k: (a, (a + k) % n), st.integers(0, n - 1), st.integers(1, n - 1)
    )
    base = draw(st.lists(edge, max_size=40))
    extra = draw(st.lists(edge, max_size=12))
    participants = draw(st.lists(st.integers(-1, n), max_size=5))
    return n, base, extra, participants


def _network(n, edges):
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = dedupe_edges(arr[:, 0], arr[:, 1], n)
    return InformationNetwork(n, src, dst)


def _assert_matches(net, oracle, participants):
    n = oracle.n_users
    assert net.n_users == n
    assert net.n_follows == oracle.n_follows
    ids = list(range(-1, n + 1))  # one absent id on each side
    for u in ids:
        assert net.followers(u) == oracle.followers(u), u
        assert net.followees(u) == oracle.followees(u), u
        assert net.follower_count(u) == oracle.follower_count(u), u
    assert net.follower_counts().tolist() == [oracle.follower_count(u) for u in range(n)]
    for a in ids:
        for b in ids:
            assert net.follows(a, b) == oracle.follows(a, b), (a, b)
    for cutoff in CUTOFFS:
        far = cutoff + 1
        for s in ids:
            expected = oracle.distances_from(s, cutoff)
            assert net.distances_from(s, cutoff) == expected, (s, cutoff)
            arr = net.distances_array_from(s, cutoff)
            assert arr.tolist() == [expected.get(t, far) for t in range(n)]
            for t in ids:
                assert net.shortest_path_length(s, t, cutoff) == \
                    oracle.shortest_path_length(s, t, cutoff), (s, t, cutoff)
    assert net.susceptible_set(participants) == oracle.susceptible_set(participants)


@given(cases())
@settings(max_examples=150, deadline=None)
def test_queries_match_dict_oracle(case):
    n, base, extra, participants = case
    net = _network(n, base)
    oracle = DictGraph(n, base)
    _assert_matches(net, oracle, participants)
    for followee, follower in extra:
        assert net.add_follow(followee, follower) == oracle.add_follow(followee, follower)
    assert net.n_overlay_edges == oracle.n_follows - len(set(base))
    _assert_matches(net, oracle, participants)


@given(cases())
@settings(max_examples=50, deadline=None)
def test_overlay_equals_rebuilt_network(case):
    # Follows added through the overlay read exactly like the same edges
    # compiled into the CSR after the base edges.
    n, base, extra, _ = case
    net = _network(n, base)
    for followee, follower in extra:
        net.add_follow(followee, follower)
    rebuilt = _network(n, base + extra)
    assert rebuilt.n_overlay_edges == 0
    oracle = DictGraph(n, base + extra)
    _assert_matches(net, oracle, [])
    _assert_matches(rebuilt, oracle, [])


@given(cases())
@settings(max_examples=150, deadline=None)
def test_edges_rebuild_both_neighbour_orders(case):
    # A saved world rebuilds its graph from edges(): followers and
    # followees must both come back in emission order.
    n, base, extra, _ = case
    net = _network(n, base)
    again = InformationNetwork(n, *net.edges())
    _assert_matches(again, DictGraph(n, base), [])
    if any(net.add_follow(a, b) for a, b in extra):
        with pytest.raises(ValueError, match="overlay"):
            net.edges()


def test_add_follow_rejects_self_and_unknown_users():
    net = _network(3, [(0, 1)])
    with pytest.raises(ValueError):
        net.add_follow(1, 1)
    for followee, follower in ((0, 3), (3, 0), (-1, 0)):
        with pytest.raises(ValueError):
            net.add_follow(followee, follower)
    assert net.n_overlay_edges == 0
