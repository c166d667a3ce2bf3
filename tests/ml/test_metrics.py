"""Tests for repro.ml.metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import (
    _average_ranks,
    accuracy_score,
    average_precision_at_k,
    confusion_matrix,
    f1_score,
    hits_at_k,
    krippendorff_alpha,
    macro_f1,
    mean_average_precision_at_k,
    mean_hits_at_k,
    precision_recall_f1,
    roc_auc_score,
    roc_curve,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score([0, 1, 1], [0, 1, 1]) == 1.0

    def test_half(self):
        assert accuracy_score([0, 1, 0, 1], [0, 1, 1, 0]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([0, 1], [0])


class TestPrecisionRecallF1:
    def test_known_values(self):
        y_true = [1, 1, 1, 0, 0, 0]
        y_pred = [1, 1, 0, 1, 0, 0]
        p, r, f = precision_recall_f1(y_true, y_pred)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f == pytest.approx(2 / 3)

    def test_no_predicted_positives(self):
        p, r, f = precision_recall_f1([1, 0], [0, 0])
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_f1_alias(self):
        assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_macro_f1_symmetric_classes(self):
        # Macro-F1 averages per-class F1 regardless of support.
        y_true = [0] * 90 + [1] * 10
        y_pred = [0] * 100
        # class 0: P=0.9, R=1 -> F1 ~ 0.947; class 1: F1 = 0
        expected = (2 * 0.9 / 1.9) / 2
        assert macro_f1(y_true, y_pred) == pytest.approx(expected)

    def test_macro_f1_perfect(self):
        assert macro_f1([0, 1, 0], [0, 1, 0]) == 1.0


class TestConfusion:
    def test_binary(self):
        C = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert C.tolist() == [[1, 1], [0, 2]]

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 3, 50)
        y_pred = rng.integers(0, 3, 50)
        assert confusion_matrix(y_true, y_pred).sum() == 50


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_ties_give_half(self):
        assert roc_auc_score([0, 1], [0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score([1, 1], [0.3, 0.4])

    def test_curve_endpoints(self):
        fpr, tpr, thr = roc_curve([0, 1, 0, 1], [0.1, 0.9, 0.4, 0.7])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1)), min_size=4, max_size=60)
    )
    @settings(max_examples=50, deadline=None)
    def test_auc_in_unit_interval(self, pairs):
        y = np.array([p[0] for p in pairs])
        s = np.array([p[1] for p in pairs])
        if y.min() == y.max():
            return
        auc = roc_auc_score(y, s)
        assert 0.0 <= auc <= 1.0

    def test_auc_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 80)
        y[0], y[1] = 0, 1
        s = rng.normal(size=80)
        a1 = roc_auc_score(y, s)
        a2 = roc_auc_score(y, np.exp(s))  # strictly monotone
        assert a1 == pytest.approx(a2)


# Scores drawn mostly from a small pool so ties are common, including the
# signed zeros (equal under comparison) and both infinities.
_TIED_SCORES = st.one_of(
    st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf]),
    st.floats(allow_nan=False),
)


def _with_nan(scores, nan_at):
    """Scores as float64, with a NaN inserted at ``nan_at`` unless it is None."""
    if nan_at is not None:
        scores = scores[:nan_at] + [np.nan] + scores[nan_at:]
    return np.array(scores, dtype=np.float64)


class TestAverageRanks:
    """``_average_ranks`` is bit-identical to ``scipy.stats.rankdata``."""

    @given(st.lists(_TIED_SCORES, max_size=40), st.none() | st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_rankdata(self, scores, nan_at):
        from scipy.stats import rankdata

        a = _with_nan(scores, nan_at)
        got, want = _average_ranks(a), rankdata(a)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(
        st.lists(st.tuples(st.booleans(), _TIED_SCORES), min_size=2, max_size=40),
        st.none() | st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_auc_is_mann_whitney_on_scipy_ranks(self, pairs, nan_at):
        from scipy.stats import rankdata

        y = np.array([p[0] for p in pairs])
        if nan_at is not None:
            y = np.insert(y, min(nan_at, len(y)), nan_at % 2 == 0)
        s = _with_nan([p[1] for p in pairs], nan_at)
        n_pos = int(y.sum())
        n_neg = len(y) - n_pos
        if n_pos == 0 or n_neg == 0:
            return
        u = float(rankdata(s)[y].sum()) - n_pos * (n_pos + 1) / 2.0
        want = u / (n_pos * n_neg)
        got = roc_auc_score(y, s)
        assert got == want or (np.isnan(got) and np.isnan(want))


class TestRanking:
    def test_ap_at_k_all_relevant_on_top(self):
        y = [1, 1, 0, 0]
        s = [0.9, 0.8, 0.2, 0.1]
        assert average_precision_at_k(y, s, 2) == 1.0

    def test_ap_at_k_relevant_at_bottom(self):
        y = [1, 0, 0, 0]
        s = [0.0, 0.9, 0.8, 0.7]
        assert average_precision_at_k(y, s, 2) == 0.0

    def test_ap_no_relevant(self):
        assert average_precision_at_k([0, 0], [0.5, 0.4], 2) == 0.0

    def test_ap_known_value(self):
        # relevant at ranks 1 and 3 of top-3, 2 relevant total
        y = [1, 0, 1]
        s = [0.9, 0.8, 0.7]
        expected = (1.0 + 2.0 / 3.0) / 2.0
        assert average_precision_at_k(y, s, 3) == pytest.approx(expected)

    def test_hits_at_k(self):
        y = [0, 0, 1]
        s = [0.9, 0.8, 0.7]
        assert hits_at_k(y, s, 2) == 0.0
        assert hits_at_k(y, s, 3) == 1.0

    def test_mean_wrappers(self):
        queries = [([1, 0], [0.9, 0.1]), ([0, 1], [0.9, 0.1])]
        assert mean_hits_at_k(queries, 1) == 0.5
        assert 0.0 < mean_average_precision_at_k(queries, 1) <= 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            hits_at_k([1], [0.5], 0)


class TestKrippendorff:
    def test_perfect_agreement(self):
        r = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]])
        assert krippendorff_alpha(r) == pytest.approx(1.0)

    def test_known_moderate_agreement(self):
        # 2 annotators disagreeing on 1 of 4 items -> alpha < 1
        r = np.array([[0, 1, 1, 0], [0, 1, 0, 0]])
        alpha = krippendorff_alpha(r)
        assert 0.0 < alpha < 1.0

    def test_missing_values_ignored(self):
        r = np.array([[0, 1, -1], [0, 1, 1], [0, -1, 1]])
        assert krippendorff_alpha(r) == pytest.approx(1.0)

    def test_systematic_disagreement_negative(self):
        r = np.array([[0, 1, 0, 1], [1, 0, 1, 0]])
        assert krippendorff_alpha(r) < 0.0

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            krippendorff_alpha(np.array([0, 1, 0]))
