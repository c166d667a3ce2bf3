"""Simulated manual annotation (paper Sec. VI-B).

The paper employs three professional annotators and reports Krippendorff's
alpha = 0.58 with majority-vote gold labels.  We simulate that labelling
channel: each annotator observes the true generative label through a noisy
threshold with a personal bias, so the resulting agreement is imperfect
and tunable to the paper's alpha.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import Tweet
from repro.utils.rng import ensure_rng

__all__ = ["AnnotatorPool"]


class AnnotatorPool:
    """A pool of simulated annotators with per-annotator noise and bias.

    Parameters
    ----------
    n_annotators:
        Number of annotators (paper: 3).
    noise:
        Probability an annotator misreads a clear-cut tweet.  The default
        is calibrated so that, at the corpus' ~5% hate rate, three
        annotators agree at Krippendorff alpha ~ 0.55 (paper: 0.58).
    bias_spread:
        Std-dev of per-annotator bias toward labelling hate; models the
        definitional ambiguity of hate speech [Ross et al.].
    """

    def __init__(
        self,
        n_annotators: int = 3,
        noise: float = 0.03,
        bias_spread: float = 0.03,
        random_state=None,
    ):
        if n_annotators < 1:
            raise ValueError(f"n_annotators must be >= 1, got {n_annotators}")
        if not 0.0 <= noise < 0.5:
            raise ValueError(f"noise must be in [0, 0.5), got {noise}")
        self.n_annotators = n_annotators
        self.noise = noise
        self._rng = ensure_rng(random_state)
        self.biases = self._rng.normal(0.0, bias_spread, size=n_annotators)

    def annotate(self, tweets: list[Tweet]) -> np.ndarray:
        """Return ``(n_annotators, n_tweets)`` 0/1 ratings."""
        n = len(tweets)
        ratings = np.zeros((self.n_annotators, n), dtype=np.int64)
        for j, tweet in enumerate(tweets):
            truth = 1 if tweet.is_hate else 0
            for a in range(self.n_annotators):
                flip_p = min(0.49, max(0.0, self.noise + self.biases[a] * (1 - truth)))
                flip = self._rng.random() < flip_p
                ratings[a, j] = 1 - truth if flip else truth
        return ratings

    @staticmethod
    def majority_vote(ratings: np.ndarray) -> np.ndarray:
        """Per-item majority label (ties resolve to 1, the cautious choice)."""
        ratings = np.asarray(ratings)
        votes = ratings.mean(axis=0)
        return (votes >= 0.5).astype(np.int64)

    @staticmethod
    def agreement(ratings: np.ndarray) -> float:
        """Krippendorff's alpha of the rating matrix."""
        from repro.ml.metrics import krippendorff_alpha  # keeps repro.data light

        return krippendorff_alpha(ratings)
