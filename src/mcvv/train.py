"""Training loop, cyclic schedule, fold orchestration, and evaluation.

A fold trains on every other fold's subjects and evaluates on its own;
subject disjointness is asserted on every run. The confusion state behind
the discriminator attention resets at each epoch boundary. Seeds fix fold
assignment, weight init, batch shuffling, and augmentation draws, so a rerun
reproduces its reports byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from mcvv import loss as L
from mcvv import metrics as M
from mcvv import tensor as T
from mcvv.data import Cohort, FoldPlan, augment_clip, plan_folds
from mcvv.model import Model, ModelConfig

LOSS_MODES = ("hp", "focal", "fd")
HEAD_MODES = ("mc", "nomc")


@dataclass
class TrainConfig:
    batch_size: int = 16
    epochs: int = 30
    max_steps: int | None = None       # optional cap across epochs
    base_lr: float = 1e-6
    max_lr: float = 1e-4
    cycle_steps: int | None = None     # default: two epochs of batches
    seed: int = 0
    loss: str = "hp"
    head: str = "mc"
    augment: bool = True
    l_fold: int = 3
    alpha: float = 0.25
    gamma: float = 2.0
    fd_weight: float = 0.5
    epsilon: float = 1e-3

    def validate(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (the discriminator needs pairs)")
        if self.loss not in LOSS_MODES:
            raise ValueError(f"loss must be one of {LOSS_MODES}, got {self.loss!r}")
        if self.head not in HEAD_MODES:
            raise ValueError(f"head must be one of {HEAD_MODES}, got {self.head!r}")


# -- optimizer --------------------------------------------------------------------


@dataclass
class AdamMoments:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def init_moments(params: Sequence) -> AdamMoments:
    return AdamMoments(m=[np.zeros_like(p.data) for p in params],
                       v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence, grads: Sequence[np.ndarray], moments: AdamMoments,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Bias-corrected Adam update, in place on each parameter's array."""
    moments.t += 1
    t = moments.t
    for p, g, m, v in zip(params, grads, moments.m, moments.v):
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise T.NonFiniteError("non-finite gradient in adam_step")
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)


def cyclic_lr(step: int, base_lr: float, max_lr: float, cycle_len: int) -> float:
    """Triangular wave base->max->base over cycle_len steps, peak halving
    each full cycle."""
    if cycle_len < 2:
        raise ValueError(f"cycle_len must be >= 2, got {cycle_len}")
    cycle = step // cycle_len
    pos = (step % cycle_len) / (cycle_len / 2.0)
    tri = 1.0 - abs(pos - 1.0)
    return base_lr + (max_lr - base_lr) * tri * (0.5 ** cycle)


# -- per-batch loss ------------------------------------------------------------------


def batch_loss(model: Model, clips: list[np.ndarray], labels: np.ndarray,
               state: L.AdCorreState, cfg: TrainConfig):
    """Forward the batch and build the configured loss as one scalar graph."""
    logits_b, emb_b = model.forward(clips)
    focal = None if cfg.loss == "fd" else L.FocalParams(alpha=cfg.alpha, gamma=cfg.gamma)
    fd_weight = {"hp": cfg.fd_weight, "focal": 0.0, "fd": 1.0}[cfg.loss]
    return L.hp_loss(logits_b, labels, emb_b, state,
                     L.HPLossParams(fd_weight=fd_weight, focal=focal))


# -- fold training and evaluation --------------------------------------------------------


@dataclass
class FoldResult:
    fold_id: int
    report: M.MetricsReport
    model: Model
    history: list[float]
    subject_scores: dict[str, float]
    subject_labels: dict[str, int]
    clip_correct: int = 0
    clip_total: int = 0


@dataclass
class KFoldResult:
    plan: FoldPlan
    folds: list[FoldResult]
    pooled: M.MetricsReport


def evaluate_subjects(model: Model, cohort: Cohort,
                      subjects: Sequence[str]) -> tuple[dict, dict, int, int]:
    """Un-augmented clip probabilities aggregated per subject; also counts
    argmax-correct clips."""
    scores: dict[str, float] = {}
    labels: dict[str, int] = {}
    correct = total = 0
    for subject in subjects:
        idxs = cohort.clips_of(subject)
        probs = model.clip_probability([cohort.frames(i) for i in idxs])
        true = np.array([cohort.records[i].label for i in idxs])
        correct += int(np.sum((probs >= 0.5) == true))
        total += len(idxs)
        scores[subject], _ = M.aggregate_subject(probs)
        labels[subject] = cohort.subject_label(subject)
    return scores, labels, correct, total


def subject_report(scores: dict, labels: dict, correct: int, total: int,
                   fold: int | None = None) -> M.MetricsReport:
    """Metrics over per-subject scores and labels, in the order of ``scores``,
    with the clip accuracy ``correct / total``."""
    ordered = list(scores)
    return M.compute_metrics([scores[s] for s in ordered], [labels[s] for s in ordered],
                             clip_accuracy=correct / total if total else None, fold=fold)


def train_fold(cohort: Cohort, plan: FoldPlan, fold_id: int,
               model_cfg: ModelConfig, cfg: TrainConfig) -> FoldResult:
    cfg.validate()
    eval_subjects = list(plan.folds[fold_id])
    train_subjects = [s for f, fold in enumerate(plan.folds) if f != fold_id
                      for s in fold]
    overlap = set(eval_subjects) & set(train_subjects)
    if overlap:
        raise RuntimeError(f"subjects straddle folds: {sorted(overlap)}")
    train_idx = [i for s in train_subjects for i in cohort.clips_of(s)]
    if not train_idx:
        raise ValueError(f"fold {fold_id}: empty training split")

    model_cfg = replace(model_cfg, multi_branch=cfg.head == "mc")
    model = Model(model_cfg, seed=_substream(cfg.seed, fold_id, 0))
    shuffle_rng = np.random.default_rng(_substream(cfg.seed, fold_id, 1))
    augment_rng = np.random.default_rng(_substream(cfg.seed, fold_id, 2))

    params = model.parameters()
    moments = init_moments(params)
    state = L.AdCorreState(num_class=model_cfg.num_class, epsilon=cfg.epsilon)
    batches_per_epoch = max(1, len(train_idx) // cfg.batch_size)
    cycle = cfg.cycle_steps or max(2, 2 * batches_per_epoch)

    history: list[float] = []
    step = 0
    done = False
    for _ in range(cfg.epochs):
        if done:
            break
        state.reset()
        order = shuffle_rng.permutation(len(train_idx))
        for lo in range(0, len(order), cfg.batch_size):
            chunk = [train_idx[i] for i in order[lo:lo + cfg.batch_size]]
            if len(chunk) < 2:
                continue  # the discriminator needs at least one pair
            clips = [cohort.frames(i) for i in chunk]
            if cfg.augment:
                clips = [augment_clip(c, augment_rng) for c in clips]
            labels = np.array([cohort.records[i].label for i in chunk])

            T.zero_grads(params)
            loss = batch_loss(model, clips, labels, state, cfg)
            T.backward(loss)
            lr = cyclic_lr(step, cfg.base_lr, cfg.max_lr, cycle)
            adam_step(params, [p.grad for p in params], moments, lr)
            history.append(loss.item())
            step += 1
            if cfg.max_steps is not None and step >= cfg.max_steps:
                done = True
                break

    scores, labels_by_subject, correct, total = evaluate_subjects(model, cohort, eval_subjects)
    report = subject_report(scores, labels_by_subject, correct, total, fold=fold_id)
    return FoldResult(fold_id=fold_id, report=report, model=model, history=history,
                      subject_scores=scores, subject_labels=labels_by_subject,
                      clip_correct=correct, clip_total=total)


def run_kfold(cohort: Cohort, model_cfg: ModelConfig, cfg: TrainConfig) -> KFoldResult:
    """Train every fold; pool each fold's held-out subject predictions."""
    plan = plan_folds(cohort.subject_ids(), cfg.l_fold, seed=cfg.seed)
    folds = [train_fold(cohort, plan, fold_id, model_cfg, cfg)
             for fold_id in range(plan.k)]

    # folds partition the subjects, so merging their dicts loses no subject
    pooled = subject_report({s: v for fr in folds for s, v in fr.subject_scores.items()},
                            {s: v for fr in folds for s, v in fr.subject_labels.items()},
                            sum(fr.clip_correct for fr in folds),
                            sum(fr.clip_total for fr in folds))
    return KFoldResult(plan=plan, folds=folds, pooled=pooled)


def _substream(seed: int, fold_id: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, fold_id, purpose])
