"""Metric suite vs naive recount oracle, AUC behavior, aggregation rules."""

import numpy as np
import pytest

from mcvv import metrics as M


def naive_recount(scores, labels):
    """Independent loop-based oracle with the same undefined-value rules."""
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        pred = 1 if s >= 0.5 else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    n = len(labels)
    acc = (tp + tn) / n
    sens = tp / (tp + fn) if (tp + fn) > 0 else None
    spec = tn / (tn + fp) if (tn + fp) > 0 else None
    prec = tp / (tp + fp) if (tp + fp) > 0 else None
    if prec is not None and sens is not None and (prec + sens) > 0:
        f1 = 2 * prec * sens / (prec + sens)
    else:
        f1 = None
    return acc, f1, sens, spec


def test_aggregate_subject_rules():
    assert M.aggregate_subject([0.9, 0.9, 0.9]) == pytest.approx(0.9)
    assert M.aggregate_subject([0.4, 0.6]) == 0.5
    assert M.aggregate_subject([0.3] * 10 + [0.9] * 2) == pytest.approx(0.4)
    # the boundary is inclusive: a subject scored exactly 0.5 is called MCI
    r = M.compute_metrics([0.5, M.aggregate_subject([0.3] * 10 + [0.9] * 2)], [1, 0])
    assert (r.accuracy, r.sensitivity, r.specificity) == (1.0, 1.0, 1.0)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        M.aggregate_subject([])


def test_perfect_separation():
    scores = [0.9, 0.8, 0.1, 0.2]
    labels = [1, 1, 0, 0]
    r = M.compute_metrics(scores, labels)
    assert r.accuracy == 1.0 and r.f1 == 1.0 and r.auc == 1.0
    assert r.sensitivity == 1.0 and r.specificity == 1.0


def test_29_of_32_accuracy():
    labels = [1] * 20 + [0] * 12
    scores = [0.9] * 17 + [0.1] * 3 + [0.1] * 12   # 3 MCI misses
    r = M.compute_metrics(scores, labels)
    assert r.accuracy == 29 / 32
    assert M.format_percent(r.accuracy) == "90.63"


def test_matches_recount_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        r = M.compute_metrics(scores, labels)
        acc, f1, sens, spec = naive_recount(scores, labels)
        assert r.accuracy == acc
        assert r.f1 == f1
        assert r.sensitivity == sens
        assert r.specificity == spec


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(1)
    n = 10000
    labels = np.r_[np.ones(n // 2, dtype=int), np.zeros(n // 2, dtype=int)]
    auc = M.roc_auc(rng.random(n), labels)
    assert abs(auc - 0.5) < 0.02


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    scores = rng.random(200)
    labels = rng.integers(0, 2, 200)
    base = M.roc_auc(scores, labels)
    for transform in (lambda s: 2 * s + 3, np.exp, lambda s: s ** 3 + s):
        assert M.roc_auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


def test_auc_equals_rank_statistic_with_ties():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 5, 100) / 4.0          # heavy ties
    labels = rng.integers(0, 2, 100)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    expected = wins / (len(pos) * len(neg))
    assert M.roc_auc(scores, labels) == pytest.approx(expected, abs=1e-12)


def test_single_class_marks_undefined():
    r = M.compute_metrics([0.9, 0.8], [1, 1])
    assert r.auc is None and r.specificity is None
    assert r.sensitivity == 1.0
    r = M.compute_metrics([0.1, 0.2], [0, 0])
    assert r.auc is None and r.sensitivity is None and r.f1 is None


def test_report_dict_keys():
    r = M.compute_metrics([0.9, 0.1], [1, 0], clip_accuracy=0.75, fold=2)
    d = r.to_dict()
    assert set(d) == {"fold", "accuracy", "f1", "auc", "sensitivity",
                      "specificity", "clip_accuracy", "n_subjects"}
    assert d["fold"] == 2 and d["clip_accuracy"] == 0.75


def test_report_json_roundtrip():
    import json

    rng = np.random.default_rng(5)
    r = M.compute_metrics(rng.random(20), rng.integers(0, 2, 20),
                          clip_accuracy=0.8, fold=1)
    back = M.MetricsReport(**json.loads(json.dumps(r.to_dict())))
    assert back == r
