"""Binary classification metrics from (positive probability, label) pairs.

AUC is the rank statistic (Mann-Whitney) with ties sharing mid-ranks.
Thresholded metrics use p >= 0.5 as the positive decision. Metrics with
a zero denominator are reported as 0.0 with their `*_defined` flag
cleared rather than raising.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    auc: float
    f1: float
    precision: float
    recall: float
    n_eval: int
    positive_class: int
    auc_defined: bool = True
    precision_defined: bool = True
    recall_defined: bool = True
    f1_defined: bool = True

    def __post_init__(self):
        for field in ("accuracy", "auc", "f1", "precision", "recall"):
            v = getattr(self, field)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field}={v} outside [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    def value(self, metric: str) -> float:
        return float(getattr(self, metric))


METRIC_NAMES = ("accuracy", "auc", "f1", "precision", "recall")


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def compute_metrics(scores, positive_class: int = 1) -> MetricSet:
    """Metrics over (positive-class probability, true label) pairs."""
    if not scores:
        raise ValueError("compute_metrics: empty score list")
    probs = np.array([float(p) for p, _ in scores])
    labels = np.array([int(y) for _, y in scores])
    if len(set(labels.tolist())) > 2:
        raise ValueError(f"labels must be binary, got classes {sorted(set(labels.tolist()))}")
    pos = labels == positive_class
    pred_pos = probs >= 0.5
    tp = int(np.sum(pred_pos & pos))
    fp = int(np.sum(pred_pos & ~pos))
    fn = int(np.sum(~pred_pos & pos))
    tn = int(np.sum(~pred_pos & ~pos))
    n = len(scores)

    accuracy = (tp + tn) / n
    precision_defined = tp + fp > 0
    recall_defined = tp + fn > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if recall_defined else 0.0
    f1_defined = precision_defined and recall_defined and (precision + recall) > 0
    f1 = 2 * precision * recall / (precision + recall) if f1_defined else 0.0

    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    auc_defined = n_pos > 0 and n_neg > 0
    if auc_defined:
        ranks = _midranks(probs)
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2
        auc = u / (n_pos * n_neg)
    else:
        auc = 0.0

    return MetricSet(
        accuracy=accuracy, auc=auc, f1=f1, precision=precision, recall=recall,
        n_eval=n, positive_class=positive_class,
        auc_defined=auc_defined, precision_defined=precision_defined,
        recall_defined=recall_defined, f1_defined=f1_defined,
    )


def accuracy_only(correct: int, total: int, positive_class: int = 1) -> MetricSet:
    """Degenerate MetricSet for multi-class runs: only accuracy is defined."""
    return MetricSet(
        accuracy=correct / total, auc=0.0, f1=0.0, precision=0.0, recall=0.0,
        n_eval=total, positive_class=positive_class,
        auc_defined=False, precision_defined=False, recall_defined=False, f1_defined=False,
    )
