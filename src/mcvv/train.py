"""Training loop, cyclic schedule, fold orchestration, and evaluation.

Training reads the run's one config, `config.RunConfig`, and builds its
loss from the `loss_params` view. A fold trains on every other fold's
subjects and evaluates on its own; subject disjointness is asserted on every
run. The confusion state behind the discriminator attention resets at each
epoch boundary. Seeds fix fold assignment, weight init, batch shuffling, and
augmentation draws, so a rerun reproduces its reports byte for byte.

Training and evaluation both read ahead: one loader thread reads the next
batch's clips, augmenting them when training, while the current batch runs.
For training it cuts them into the cube matrix, which the step embeds inside
its graph. For evaluation it embeds a subject clip by clip with
`Model.embed`, with no graph, so no subject-wide cube matrix is built and
the forward gets only the projected cubes.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from mcvv import loss as L
from mcvv import metrics as M
from mcvv import tensor as T
from mcvv.config import RunConfig
from mcvv.data import Cohort, FoldPlan, augment_clip, plan_folds
from mcvv.model import Model, ModelConfig


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
              eps: float = 1e-8, names: Sequence[str] = ()) -> None:
    """Bias-corrected Adam update, in place on each parameter's array. A
    non-finite gradient raises NonFiniteError naming its parameter, by
    ``names`` when given, else by position, before any array changes."""
    for i, g in enumerate(grads):
        if g is not None and not np.isfinite(g).all():
            name = f"'{names[i]}'" if names else f"#{i}"
            raise T.NonFiniteError(f"non-finite gradient of parameter {name} in adam_step")
    moments.t += 1
    t = moments.t
    for p, g, m, v in zip(params, grads, moments.m, moments.v):
        if g is None:
            continue
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


def batch_loss(model: Model, cubes: T.Tensor, labels: np.ndarray,
               state: L.AdCorreState, params: L.HPLossParams):
    """Embed and forward the batch's cubes, build the run's loss
    (``RunConfig.loss_params``) as one scalar graph, then count the batch's
    argmax predictions in ``state``."""
    logits_b, emb_b = model.forward(model.embed(cubes))
    loss = L.hp_loss(logits_b, labels, emb_b, state, params)
    L.update_confusion(state, np.argmax(logits_b.data, axis=-1), labels)
    return loss


def train_step(model: Model, moments: AdamMoments, cubes: T.Tensor,
               labels: np.ndarray, state: L.AdCorreState, params: L.HPLossParams,
               lr: float) -> float:
    """One Adam step on the batch's loss; returns the loss. ``backward``
    consumes the step's graph as it walks, freeing each layer's activations
    and gradients once it has passed them; the cube matrix dies on return,
    before the next batch's forward."""
    names, weights = zip(*model.named_parameters())
    T.zero_grads(weights)
    loss = batch_loss(model, cubes, labels, state, params)
    T.backward(loss)
    adam_step(weights, [p.grad for p in weights], moments, lr, names=names)
    return loss.item()


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
    argmax-correct clips. The loader thread embeds subject k+1 while subject
    k runs forward: it reads one clip at a time, cuts it into its [1, N,
    cube] cubes and projects them to the clip's [1, N, d] rows, then stacks
    the subject's rows. So no subject-wide cube matrix is built, and the
    forward, which adds the class token and positions, gets only the
    projected cubes."""

    def load(subject):
        idxs = cohort.clips_of(subject)
        # no_grad holds per thread, so the loader enters it itself
        with T.no_grad():
            rows = [model.embed(model.cubes([cohort.frames(i)])) for i in idxs]
            return subject, idxs, T.concat(rows, axis=0)

    scores: dict[str, float] = {}
    labels: dict[str, int] = {}
    correct = total = 0
    with _loader() as loader:
        for subject, idxs, projected in _read_ahead(loader, load, subjects):
            probs = model.clip_probability(projected)
            del projected   # freed before the loader starts the subject after next
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
               model_cfg: ModelConfig, cfg: RunConfig) -> FoldResult:
    cfg.validate()
    if model_cfg.multi_branch != (cfg.head == "mc"):
        raise ValueError(f"multi_branch={model_cfg.multi_branch} contradicts head={cfg.head!r}")
    eval_subjects = list(plan.folds[fold_id])
    train_subjects = [s for f, fold in enumerate(plan.folds) if f != fold_id
                      for s in fold]
    overlap = set(eval_subjects) & set(train_subjects)
    if overlap:
        raise RuntimeError(f"subjects straddle folds: {sorted(overlap)}")
    train_idx = [i for s in train_subjects for i in cohort.clips_of(s)]
    if not train_idx:
        raise ValueError(f"fold {fold_id}: empty training split")

    model = Model(model_cfg, seed=_substream(cfg.seed, fold_id, 0))
    shuffle_rng = np.random.default_rng(_substream(cfg.seed, fold_id, 1))
    augment_rng = np.random.default_rng(_substream(cfg.seed, fold_id, 2))

    moments = init_moments(model.parameters())
    state = L.AdCorreState(epsilon=cfg.epsilon)
    loss_params = cfg.loss_params()
    cycle = cfg.cycle_steps or max(2, 2 * batches_per_epoch(len(train_idx), cfg.batch_size))

    history: list[float] = []
    with _loader() as loader:
        batches = _batches(model, cohort, train_idx, cfg, shuffle_rng, augment_rng, loader)
        for step, (new_epoch, labels, cubes) in enumerate(batches):
            if new_epoch:
                state.reset()
            lr = cyclic_lr(step, cfg.base_lr, cfg.max_lr, cycle)
            history.append(train_step(model, moments, cubes, labels, state, loss_params, lr))
            del cubes   # freed before the loader starts the batch after next

    scores, labels_by_subject, correct, total = evaluate_subjects(model, cohort, eval_subjects)
    report = subject_report(scores, labels_by_subject, correct, total, fold=fold_id)
    return FoldResult(fold_id=fold_id, report=report, model=model, history=history,
                      subject_scores=scores, subject_labels=labels_by_subject,
                      clip_correct=correct, clip_total=total)


def batches_per_epoch(n_clips: int, batch_size: int) -> int:
    """Training batches in an epoch of ``n_clips``: each full batch, plus the
    trailing one when it holds a pair, which the discriminator needs."""
    return n_clips // batch_size + (n_clips % batch_size >= 2)


def _batches(model: Model, cohort: Cohort, train_idx: list[int], cfg: RunConfig,
             shuffle_rng: np.random.Generator, augment_rng: np.random.Generator,
             loader) -> Iterator[tuple[bool, np.ndarray, T.Tensor]]:
    """A fold's training batches as ``(new_epoch, labels, cubes)``, one per
    step, across epoch boundaries, ending after ``cfg.max_steps`` of them
    (every epoch's when 0), so no batch is loaded past the last step.

    ``loader`` reads, augments and partitions batch i+1 while the caller
    trains on batch i (see `_read_ahead`). Clips are augmented in the order
    of a serial loop, so ``augment_rng`` is drawn as it would be there.
    """
    def load(job):
        new_epoch, chunk = job
        clips = (augment_clip(cohort.frames(i), augment_rng) if cfg.augment
                 else cohort.frames(i) for i in chunk)
        # clip by clip, so each raw clip dies once partitioned
        cubes = model.cubes(clips, len(chunk))
        return new_epoch, np.array([cohort.records[i].label for i in chunk]), cubes

    def chunks():
        size = cfg.batch_size
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(train_idx))
            for b in range(batches_per_epoch(len(order), size)):
                yield b == 0, [train_idx[i] for i in order[b * size:(b + 1) * size]]

    return _read_ahead(loader, load, islice(chunks(), cfg.max_steps or None))


def _read_ahead(loader, load: Callable, jobs: Iterable) -> Iterator:
    """``load(job)`` for each of ``jobs``, in order, with job i+1 submitted to
    ``loader`` before job i's result is yielded. A load runs in the caller's
    context, numpy's error state included. With one worker, loads run one at
    a time in the order of ``jobs``, and a load's error reaches the caller,
    message intact, through ``result()``."""
    in_flight = None
    for job in jobs:
        submitted = loader.submit(contextvars.copy_context().run, load, job)
        if in_flight is not None:
            yield in_flight.result()
        in_flight = submitted
    if in_flight is not None:
        yield in_flight.result()


@contextmanager
def _loader():
    """One loader thread for `_read_ahead`, with BLAS lending it a core; both
    end with the block."""
    # Imported here, so that commands which neither train nor evaluate do not load it.
    from concurrent.futures import ThreadPoolExecutor

    with _blas_thread_lent(), ThreadPoolExecutor(max_workers=1) as loader:
        yield loader


def _openblas():
    """Thread-count getter and setter of the OpenBLAS that numpy bundles, or
    None when numpy links another BLAS."""
    import ctypes   # here, so that commands which neither train nor evaluate do not load it

    # Symbol lookup through a library's handle also searches the libraries
    # it links, and numpy's core extension links the bundled OpenBLAS.
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _blas_thread_lent():
    """BLAS runs one thread fewer (at least 1) inside the block, leaving a
    core to the clip loader; the count it had is restored on exit."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(max(1, before - 1))
    try:
        yield
    finally:
        set_(before)


def run_kfold(cohort: Cohort, model_cfg: ModelConfig, cfg: RunConfig) -> KFoldResult:
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
