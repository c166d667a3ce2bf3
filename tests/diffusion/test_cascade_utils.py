"""Tests for candidate-set construction and next-user samples."""

import numpy as np
import pytest

from repro.data.schema import Cascade, Retweet, Tweet
from repro.diffusion import build_candidate_set, next_user_samples
from repro.graph import InformationNetwork


def _network():
    # 0's followers: 1..5; 1's followers: 6, 7; users 8, 9 isolated.
    return InformationNetwork(
        10, np.array([0, 0, 0, 0, 0, 1, 1]), np.array([1, 2, 3, 4, 5, 6, 7])
    )


def _cascade(retweeters=(1, 2), root_user=0):
    root = Tweet(0, root_user, "tag", "text", 10.0, False)
    rts = [Retweet(u, 10.0 + i) for i, u in enumerate(retweeters, 1)]
    return Cascade(root=root, retweets=rts)


class TestBuildCandidateSet:
    def test_positives_first_and_labelled(self):
        cs = build_candidate_set(_cascade(), _network(), n_negatives=3, random_state=0)
        assert cs.positives == [1, 2]
        assert cs.labels[: 2].tolist() == [1, 1]
        assert set(cs.labels[2:]) == {0}

    def test_negatives_from_susceptible(self):
        cs = build_candidate_set(_cascade(), _network(), n_negatives=3, random_state=0)
        susceptible = {3, 4, 5, 6, 7}
        negs = [u for u, l in zip(cs.users, cs.labels) if l == 0]
        assert set(negs) <= susceptible | {8, 9}

    def test_root_never_candidate(self):
        cs = build_candidate_set(_cascade(), _network(), n_negatives=8, random_state=0)
        assert 0 not in cs.users

    def test_tops_up_with_random_users(self):
        # Only 7 non-participants exist (users 3..9); all must be used.
        cs = build_candidate_set(_cascade(), _network(), n_negatives=8, random_state=0)
        assert (cs.labels == 0).sum() == 7
        assert {8, 9} <= set(cs.users)  # random top-up beyond susceptible

    def test_nonorganic_exclusion(self):
        # Retweeter 9 is not reachable through the follow graph.
        cascade = _cascade(retweeters=(1, 9))
        with_all = build_candidate_set(
            cascade, _network(), n_negatives=2, include_nonorganic=True, random_state=0
        )
        organic = build_candidate_set(
            cascade, _network(), n_negatives=2, include_nonorganic=False, random_state=0
        )
        assert 9 in with_all.positives
        assert 9 not in organic.positives
        assert 1 in organic.positives

    def test_invalid_negatives(self):
        with pytest.raises(ValueError):
            build_candidate_set(_cascade(), _network(), n_negatives=0)


class TestNextUserSamples:
    def test_one_sample_per_retweet(self):
        samples = next_user_samples([_cascade(retweeters=(1, 2, 3))])
        assert len(samples) == 3

    def test_prefix_grows(self):
        samples = next_user_samples([_cascade(retweeters=(1, 2, 3))])
        assert samples[0] == ([0], 1)
        assert samples[1] == ([0, 1], 2)
        assert samples[2] == ([0, 1, 2], 3)

    def test_prefix_truncated(self):
        samples = next_user_samples([_cascade(retweeters=(1, 2, 3, 4, 5))], max_prefix=2)
        assert all(len(p) <= 2 for p, _ in samples)

    def test_invalid_max_prefix(self):
        with pytest.raises(ValueError):
            next_user_samples([], max_prefix=0)
