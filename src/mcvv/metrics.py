"""Subject aggregation and the evaluation metric suite.

Subject score is the mean of the subject's clip probabilities, called class 1
at >= 0.5. Metrics that need both classes (AUC, sensitivity, specificity) or a
nonzero denominator (F1) report None when undefined rather than a fake number.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from decimal import Decimal, ROUND_HALF_UP

import numpy as np


@dataclass
class MetricsReport:
    n_subjects: int
    accuracy: float
    f1: float | None
    auc: float | None
    sensitivity: float | None
    specificity: float | None
    clip_accuracy: float | None = None
    fold: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_subject(clip_probs) -> float:
    """The subject's score: its mean clip probability."""
    probs = np.asarray(clip_probs, dtype=np.float64)
    if probs.size == 0:
        raise ValueError("subject has no clips")
    return float(probs.mean())


def confusion_counts(scores, labels) -> tuple[int, int, int, int]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    preds = scores >= 0.5
    pos = labels == 1
    tp = int(np.sum(preds & pos))
    fp = int(np.sum(preds & ~pos))
    fn = int(np.sum(~preds & pos))
    tn = int(np.sum(~preds & ~pos))
    return tp, fp, tn, fn


def roc_auc(scores, labels) -> float | None:
    """Trapezoidal area under the ROC curve over score thresholds; ties are
    grouped so the result equals the rank statistic. None with one class."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tps = np.cumsum(sorted_labels == 1)
    fps = np.cumsum(sorted_labels == 0)
    last_of_group = np.r_[np.where(np.diff(sorted_scores) != 0)[0], len(sorted_scores) - 1]
    tpr = np.r_[0.0, tps[last_of_group] / n_pos]
    fpr = np.r_[0.0, fps[last_of_group] / n_neg]
    return float(np.trapezoid(tpr, fpr))


def compute_metrics(scores, labels, clip_accuracy: float | None = None,
                    fold: int | None = None) -> MetricsReport:
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n == 0:
        raise ValueError("no subjects to score")
    tp, fp, tn, fn = confusion_counts(scores, labels)

    accuracy = (tp + tn) / n
    sensitivity = tp / (tp + fn) if (tp + fn) > 0 else None
    specificity = tn / (tn + fp) if (tn + fp) > 0 else None
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    if precision is not None and sensitivity is not None and (precision + sensitivity) > 0:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    else:
        f1 = None

    return MetricsReport(
        n_subjects=n,
        accuracy=accuracy,
        f1=f1,
        auc=roc_auc(scores, labels),
        sensitivity=sensitivity,
        specificity=specificity,
        clip_accuracy=clip_accuracy,
        fold=fold,
    )


def format_percent(value: float) -> str:
    """Two-decimal percentage with halves rounded up (90.625 -> '90.63')."""
    return str(Decimal(value * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
