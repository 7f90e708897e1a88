"""Discrimination metrics: AUC, sensitivity, specificity, and fold summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class MetricSet:
    auc: float
    sensitivity: float
    specificity: float
    n_pos: int
    n_neg: int
    threshold: float


def _check_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.size != labels.size:
        raise MetricError("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != labels.size:
        raise MetricError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise MetricError("need at least one positive and one negative")
    return scores, labels, n_pos, n_neg


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with midranks, so ties contribute 1/2.

    Equivalent to the pairwise statistic P(s_pos > s_neg) + 0.5 * P(equal).
    """
    return _auc(*_check_labels(scores, labels))


def _auc(scores, labels, n_pos, n_neg) -> float:
    n = scores.size
    order = np.argsort(scores)
    sorted_scores = scores[order]
    # The default sort is not stable.  Ties do not see that, as they share
    # one midrank, but a NaN equals nothing and is a run of its own, so the
    # NaNs, sorted last, are put back in index order, as a stable sort
    # leaves them.
    first_nan = int(np.searchsorted(sorted_scores, np.nan))
    if first_nan < n - 1:
        order[first_nan:] = np.flatnonzero(np.isnan(scores))
    # runs of equal sorted scores span [start, end]; each gets the 1-based midrank
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = n - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum_pos = float(ranks[labels == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate_scores(scores, labels, threshold: float = 0.5) -> MetricSet:
    """AUC, sensitivity and specificity, with the inputs checked once.

    Sensitivity and specificity are the TPR and TNR with "predicted
    positive" meaning score >= threshold.
    """
    scores, labels, n_pos, n_neg = _check_labels(scores, labels)
    predicted = scores >= threshold
    tp = int(np.sum(predicted & (labels == 1)))
    tn = int(np.sum(~predicted & (labels == 0)))
    auc_value = _auc(scores, labels, n_pos, n_neg)
    return MetricSet(auc_value, tp / n_pos, tn / n_neg, n_pos, n_neg, threshold)


def summarize(values) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0.0 for a single value)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise MetricError("nothing to summarize")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def summarize_metric_sets(sets) -> dict:
    """``{auc,sensitivity,specificity}_{mean,std}`` over metric sets."""
    sets = list(sets)
    out = {}
    for field in ("auc", "sensitivity", "specificity"):
        mean, std = summarize(getattr(m, field) for m in sets)
        out[f"{field}_mean"] = mean
        out[f"{field}_std"] = std
    return out
