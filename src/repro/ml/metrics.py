"""Evaluation metrics used throughout the paper's experiments.

Covers the classification metrics of Tables IV-VI (macro-F1, binary accuracy,
ROC-AUC), the ranking metrics of Figures 5-6 (MAP@k, HITS@k), and
Krippendorff's alpha used to report inter-annotator agreement (Sec. VI-B).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_consistent_length

__all__ = [
    "accuracy_score",
    "precision_recall_f1",
    "f1_score",
    "macro_f1",
    "confusion_matrix",
    "roc_auc_score",
    "roc_curve",
    "average_precision_at_k",
    "hits_at_k",
    "mean_average_precision_at_k",
    "mean_hits_at_k",
    "krippendorff_alpha",
]


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of exact label matches."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    check_consistent_length(y_true, y_pred)
    if len(y_true) == 0:
        raise ValueError("accuracy_score requires at least one sample")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, labels=None) -> np.ndarray:
    """Confusion matrix ``C[i, j]`` = count of true label i predicted as j."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    check_consistent_length(y_true, y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    labels = np.asarray(labels)
    index = {label: i for i, label in enumerate(labels.tolist())}
    C = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        C[index[t], index[p]] += 1
    return C


def precision_recall_f1(y_true, y_pred, positive=1) -> tuple[float, float, float]:
    """Precision, recall, and F1 for one class treated as positive.

    Empty denominators yield 0.0 (the usual zero-division convention).
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    check_consistent_length(y_true, y_pred)
    tp = float(np.sum((y_pred == positive) & (y_true == positive)))
    fp = float(np.sum((y_pred == positive) & (y_true != positive)))
    fn = float(np.sum((y_pred != positive) & (y_true == positive)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def f1_score(y_true, y_pred, positive=1) -> float:
    """F1 of the positive class."""
    return precision_recall_f1(y_true, y_pred, positive)[2]


def macro_f1(y_true, y_pred, labels=None) -> float:
    """Unweighted mean of per-class F1 scores (the paper's headline metric)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    scores = [precision_recall_f1(y_true, y_pred, positive=c)[2] for c in labels]
    return float(np.mean(scores))


def roc_curve(y_true, y_score) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """False-positive rate, true-positive rate, and thresholds.

    Thresholds are the distinct scores in decreasing order; the curve starts
    at (0, 0) with an implicit +inf threshold.
    """
    y_true = np.asarray(y_true).astype(bool)
    y_score = np.asarray(y_score, dtype=np.float64)
    check_consistent_length(y_true, y_score)
    order = np.argsort(-y_score, kind="stable")
    y_true = y_true[order]
    y_score = y_score[order]
    # Indices where the score value changes mark usable thresholds.
    distinct = np.where(np.diff(y_score))[0]
    idx = np.concatenate([distinct, [len(y_true) - 1]])
    tps = np.cumsum(y_true)[idx].astype(np.float64)
    fps = (idx + 1) - tps
    n_pos = float(y_true.sum())
    n_neg = float(len(y_true) - n_pos)
    tpr = np.concatenate([[0.0], tps / n_pos]) if n_pos else np.zeros(len(idx) + 1)
    fpr = np.concatenate([[0.0], fps / n_neg]) if n_neg else np.zeros(len(idx) + 1)
    thresholds = np.concatenate([[np.inf], y_score[idx]])
    return fpr, tpr, thresholds


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a`` with ties given their mean rank, as float64.

    Bit-identical to ``scipy.stats.rankdata(a)`` (method ``'average'``),
    including its NaN policy: any NaN makes every rank NaN.
    """
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    starts_group = np.ones(a.size, dtype=bool)
    starts_group[1:] = sorted_a[1:] != sorted_a[:-1]
    first = np.flatnonzero(starts_group)  # 0-based first position of each tie
    last = np.append(first[1:], a.size)  # 1-based last position of each tie
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = (0.5 * (first + 1 + last))[np.cumsum(starts_group) - 1]
    return ranks


def roc_auc_score(y_true, y_score) -> float:
    """Area under the ROC curve (probability a positive outranks a negative).

    Computed with the Mann-Whitney U statistic, which handles ties exactly.
    """
    y_true = np.asarray(y_true).astype(bool)
    y_score = np.asarray(y_score, dtype=np.float64)
    check_consistent_length(y_true, y_score)
    n_pos = int(y_true.sum())
    n_neg = int(len(y_true) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc_score requires both classes present")
    ranks = _average_ranks(y_score)
    rank_sum = float(ranks[y_true].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def average_precision_at_k(y_true, y_score, k: int) -> float:
    """Average precision over the top-``k`` ranked items for one query.

    ``AP@k = (1/min(k, P)) * sum_{i<=k, rel_i} precision@i`` where ``P`` is
    the number of relevant items; returns 0 when there are none.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    y_true = np.asarray(y_true).astype(bool)
    y_score = np.asarray(y_score, dtype=np.float64)
    check_consistent_length(y_true, y_score)
    order = np.argsort(-y_score, kind="stable")[:k]
    rel = y_true[order]
    n_rel_total = int(y_true.sum())
    if n_rel_total == 0:
        return 0.0
    hits = np.cumsum(rel)
    positions = np.arange(1, len(rel) + 1)
    precisions = hits / positions
    ap = float((precisions * rel).sum()) / min(k, n_rel_total)
    return ap


def hits_at_k(y_true, y_score, k: int) -> float:
    """1.0 if any relevant item appears in the top ``k``, else 0.0."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    y_true = np.asarray(y_true).astype(bool)
    y_score = np.asarray(y_score, dtype=np.float64)
    check_consistent_length(y_true, y_score)
    order = np.argsort(-y_score, kind="stable")[:k]
    return float(y_true[order].any())


def mean_average_precision_at_k(queries, k: int) -> float:
    """MAP@k over an iterable of ``(y_true, y_score)`` queries."""
    scores = [average_precision_at_k(t, s, k) for t, s in queries]
    if not scores:
        raise ValueError("MAP@k requires at least one query")
    return float(np.mean(scores))


def mean_hits_at_k(queries, k: int) -> float:
    """Mean HITS@k over an iterable of ``(y_true, y_score)`` queries."""
    scores = [hits_at_k(t, s, k) for t, s in queries]
    if not scores:
        raise ValueError("HITS@k requires at least one query")
    return float(np.mean(scores))


def krippendorff_alpha(ratings: np.ndarray) -> float:
    """Krippendorff's alpha for nominal data.

    Parameters
    ----------
    ratings:
        ``(n_annotators, n_items)`` array; ``-1`` marks a missing rating.

    Notes
    -----
    Uses the coincidence-matrix formulation for nominal-level data.  The
    paper reports alpha = 0.58 over three annotators (Sec. VI-B).
    """
    ratings = np.asarray(ratings)
    if ratings.ndim != 2:
        raise ValueError(f"ratings must be 2-d (annotators x items), got {ratings.shape}")
    values = np.unique(ratings[ratings >= 0])
    if len(values) < 2:
        return 1.0
    vindex = {v: i for i, v in enumerate(values.tolist())}
    V = len(values)
    coincidence = np.zeros((V, V), dtype=np.float64)
    for item in ratings.T:
        present = item[item >= 0]
        m = len(present)
        if m < 2:
            continue
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                coincidence[vindex[present[i]], vindex[present[j]]] += 1.0 / (m - 1)
    n_total = coincidence.sum()
    if n_total <= 1:
        return 1.0
    n_c = coincidence.sum(axis=1)
    # D_o/D_e for nominal data reduces to this closed form.
    numerator = (n_total - 1.0) * (n_total - np.trace(coincidence))
    denominator = n_total * n_total - np.sum(n_c * n_c)
    if denominator == 0:
        return 1.0
    return float(1.0 - numerator / denominator)
