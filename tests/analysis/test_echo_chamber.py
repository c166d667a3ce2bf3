"""Tests for the echo-chamber metrics."""

import numpy as np
import pytest

from repro.analysis import cascade_echo_metrics, echo_chamber_comparison
from repro.data.schema import Cascade, Retweet, Tweet
from repro.graph import InformationNetwork


def _clique_network(n=4):
    """Fully mutually-following clique of n users plus one outsider."""
    pairs = np.array([(a, b) for a in range(n) for b in range(n) if a != b])
    return InformationNetwork(n + 1, pairs[:, 0], pairs[:, 1])


def _cascade(users):
    root = Tweet(0, users[0], "t", "x", 0.0, True)
    rts = [Retweet(u, float(i)) for i, u in enumerate(users[1:], 1)]
    return Cascade(root=root, retweets=rts)


class TestCascadeEchoMetrics:
    def test_clique_cascade_is_dense(self):
        net = _clique_network(4)
        communities = np.zeros(5, dtype=int)
        m = cascade_echo_metrics(_cascade([0, 1, 2, 3]), net, communities)
        assert m["internal_density"] == 1.0
        assert m["community_entropy"] == 0.0
        assert m["audience_overlap"] > 0.5  # shared audience

    def test_disconnected_cascade_zero_density(self):
        net = InformationNetwork(4, np.array([], dtype=int), np.array([], dtype=int))
        communities = np.array([0, 1, 2, 3])
        m = cascade_echo_metrics(_cascade([0, 1, 2, 3]), net, communities)
        assert m["internal_density"] == 0.0
        assert m["community_entropy"] == pytest.approx(np.log(4))

    def test_single_participant(self):
        net = _clique_network(2)
        m = cascade_echo_metrics(_cascade([0]), net, np.zeros(3, dtype=int))
        assert m["internal_density"] == 0.0


class TestEchoChamberComparison:
    def test_hate_cascades_are_echo_chambers(self, small_world):
        """The paper's core Fig. 1 interpretation, quantified.

        Community entropy and audience overlap are size-robust; internal
        density is not compared across groups because hateful cascades are
        several times larger (the pair denominator grows quadratically).
        """
        world = small_world.world
        result = echo_chamber_comparison(world, min_size=3)
        assert result["hate"] and result["non_hate"]
        assert (
            result["hate"]["community_entropy"]
            < result["non_hate"]["community_entropy"]
        )
        assert (
            result["hate"]["audience_overlap"]
            > result["non_hate"]["audience_overlap"]
        )

    def test_min_size_validation(self, small_world):
        with pytest.raises(ValueError):
            echo_chamber_comparison(small_world.world, min_size=1)
