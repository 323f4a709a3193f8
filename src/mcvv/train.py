"""Training loop, cyclic schedule, fold orchestration, and evaluation.

Training reads the run's one config, `config.RunConfig`, and builds its
loss from the `loss_params` view. A fold trains on every other fold's
subjects and evaluates on its own; subject disjointness is asserted on every
run. The confusion state behind the discriminator attention resets at each
epoch boundary. Seeds fix fold assignment, weight init, batch shuffling, and
augmentation draws, so a rerun reproduces its reports byte for byte.

Training draws every clip's augmentation parameters in the caller, before
any load (`_batches`). It then loads ahead in one forked loader process,
which reads, augments and partitions each batch into one slot of a two-slot
ring of shared memory while the caller trains on the batch before
(`_load_ahead`). The caller partitions the first half of the first batch
itself, instead of waiting for it. Evaluation has no loader: one forked
process per core scores its share of the subjects (`fork_map`).
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from mcvv import loss as L
from mcvv import metrics as M
from mcvv import tensor as T
from mcvv import tubelet as TB
from mcvv.config import RunConfig
from mcvv.data import (Cohort, DataError, FoldPlan, augment_clip, plan_folds,
                       sample_augment_params)
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
    argmax-correct clips. One process per core (`fork_map`) scores its share
    of the subjects, each embedded one clip at a time with no graph, so no
    subject-wide cube matrix is built."""

    def score(subject):
        idxs = cohort.clips_of(subject)
        with T.no_grad():
            rows = [model.embed(model.cubes([cohort.frames(i)])) for i in idxs]
        probs = model.clip_probability(T.concat(rows, axis=0))
        correct = int(np.sum((probs >= 0.5) == [cohort.records[i].label for i in idxs]))
        return M.aggregate_subject(probs)[0], cohort.subject_label(subject), correct, len(idxs)

    scored = fork_map(score, subjects)
    scores, labels = ({s: r[i] for s, r in zip(subjects, scored)} for i in (0, 1))
    return scores, labels, sum(r[2] for r in scored), sum(r[3] for r in scored)


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
    steps_per_epoch = batches_per_epoch(len(train_idx), cfg.batch_size)
    if not steps_per_epoch:
        raise DataError(f"fold {fold_id} trains on {len(train_idx)} clip(s), "
                        f"fewer than a batch's 2")

    model = Model(model_cfg, seed=_substream(cfg.seed, fold_id, 0))
    shuffle_rng = np.random.default_rng(_substream(cfg.seed, fold_id, 1))
    augment = _substream(cfg.seed, fold_id, 2)

    moments = init_moments(model.parameters())
    state = L.AdCorreState(epsilon=cfg.epsilon)
    loss_params = cfg.loss_params()
    cycle = cfg.cycle_steps or max(2, 2 * steps_per_epoch)

    history: list[float] = []
    with closing(_batches(model, cohort, train_idx, cfg, shuffle_rng, augment)) as batches:
        for step, (new_epoch, labels, cubes) in enumerate(batches):
            if new_epoch:
                state.reset()
            lr = cyclic_lr(step, cfg.base_lr, cfg.max_lr, cycle)
            history.append(train_step(model, moments, cubes, labels, state, loss_params, lr))
            del cubes   # dropped before the loader may write the batch after next over it

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
             shuffle_rng: np.random.Generator,
             augment: np.random.SeedSequence) -> Iterator[tuple[bool, np.ndarray, T.Tensor]]:
    """A fold's training batches as ``(new_epoch, labels, cubes)``, one per
    step, across epoch boundaries, ending after ``cfg.max_steps`` of them
    (every epoch's when 0), so no batch is loaded past the last step.

    The job list is drawn in the caller before any load: each clip with its
    augmentation parameters, drawn in clip order from one generator seeded
    by ``augment`` (None when augmentation is off), so each clip is augmented
    as in a serial loop, whichever process loads it. The cubes come from
    `_load_ahead`'s ring, so they hold until the batch after next is asked
    for.
    """
    def chunks():
        rng, size = np.random.default_rng(augment), cfg.batch_size
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(train_idx))
            for b in range(batches_per_epoch(len(order), size)):
                yield b == 0, [(train_idx[i], sample_augment_params(rng) if cfg.augment else None)
                               for i in order[b * size:(b + 1) * size]]

    jobs = list(islice(chunks(), cfg.max_steps or None))

    def load(k, rows, out):
        # clip by clip, so each raw clip dies once partitioned
        clips = (cohort.frames(i) if params is None else augment_clip(cohort.frames(i), params)
                 for i, params in jobs[k][1][rows])
        model.cubes(clips, out=out[rows])

    cube_shape = (math.prod(model.counts), model.proj.shape[0])
    with closing(_load_ahead(load, [len(chunk) for _, chunk in jobs], cube_shape,
                             model.dtype)) as ring:
        for (new_epoch, chunk), cubes in zip(jobs, ring):
            labels = np.array([cohort.records[i].label for i, _ in chunk])
            yield new_epoch, labels, TB.cube_constant(cubes)


def _load_ahead(load: Callable, sizes: Sequence[int],
                row_shape: tuple[int, ...], dtype) -> Iterator[np.ndarray]:
    """For each job k in turn, a read-only ``[sizes[k], *row_shape]`` array
    of ``dtype`` filled by ``load(k, rows, out)``, which writes job k's
    ``rows`` (a slice) into ``out[rows]`` and keeps no state between calls.

    The arrays are views of a two-slot ring of anonymous shared memory, job k
    in slot k % 2. One forked loader process runs ``load`` on job 0's rows
    from ``sizes[0] // 2`` on, then on each later job whole, sending back
    only whether it loaded or its error. Meanwhile the caller runs it on job
    0's first rows. The loader writes job k + 2 only once job k + 1 has been
    asked for, so an array holds until the one after next is asked for.
    Raises the earliest failing job's error, the caller's rows of job 0
    first, or ChildProcessError for a loader that died; the loader is reaped
    on every path. BLAS runs one thread fewer than it had (at least 1) while
    jobs run, leaving the loader a core. Without os.fork the caller runs
    ``load`` on each job's other rows as the job is asked for.
    """
    if not sizes:
        return
    _keep_freed_heap()
    count = 2 * max(sizes) * math.prod(row_shape)   # Python ints, so it cannot wrap
    ring = np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype, count)
    ring = ring.reshape(2, max(sizes), *row_shape)
    split = sizes[0] // 2   # the caller loads job 0's rows before it, the loader the rest
    jobs = [(k, slice(split if k == 0 else 0, size)) for k, size in enumerate(sizes)]
    freed_r, freed_w = os.pipe()   # a byte for each slot the caller has freed

    def run(pipe):   # in the loader process
        os.close(freed_w)
        for k, rows in jobs:
            if k >= 2 and not os.read(freed_r, 1):
                return   # the caller has gone
            try:
                load(k, rows, ring[k % 2])
            except Exception as exc:
                pickle.dump(exc, pipe)
                return
            pickle.dump(None, pipe)
            pipe.flush()

    child = None
    with _blas_threads(lambda n: max(1, n - 1)):
        try:
            if hasattr(os, "fork"):
                child = _Child("loader", run)
            load(0, slice(0, split), ring[0])
            for k, rows in jobs:
                if child is None:
                    load(k, rows, ring[k % 2])
                elif (error := child.receive()) is not None:
                    raise error
                done = ring[k % 2, :sizes[k]]
                done.flags.writeable = False
                yield done
                if child is not None and k + 2 < len(jobs):
                    os.write(freed_w, b"\0")
        finally:
            if child is not None:
                child.end()
            os.close(freed_r)
            os.close(freed_w)


def _keep_freed_heap():
    """Have glibc's malloc serve blocks up to 32 MB from the heap and keep up
    to 64 MB of freed heap mapped, in this process and the ones it forks. Its
    defaults start at 128 KB and rise only as large blocks are freed, so a
    fresh process that augments clips hands each clip's temporaries (about
    7 MB at 64x64) back to the kernel and faults them in again: 27k minor
    faults per default batch of 16 clips, which doubled its load time. A
    no-op where the C library has no mallopt."""
    import ctypes   # here, as in `_openblas`

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


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
def _blas_threads(count: Callable[[int], int]):
    """BLAS runs ``count(n)`` threads inside the block, n being the count it
    had, which is restored on exit."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(count(before))
    try:
        yield
    finally:
        set_(before)


class _Child:
    """A forked process that runs ``run(pipe)``, ``pipe`` being the write end
    of a pipe whose read end the caller keeps, and leaves by os._exit alone."""

    def __init__(self, name: str, run: Callable):
        self.name, self.status = name, None
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:   # in the child
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    run(pipe)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write)
        self.pipe = open(read, "rb")

    def receive(self):
        """The next object the child pickled; ChildProcessError, once the
        child is reaped, if it ended before sending it whole."""
        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"{self.name} {self.pid} died without a result "
                                    f"(wait status {self.end()})") from None

    def end(self) -> int:
        """Kill the child, which has nothing left to send when the caller ends
        it, reap it and return its wait status; only the first call acts."""
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)   # a no-op once it has exited
            self.pipe.close()
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status


_in_map = False   # True while `fork_map` runs jobs, so that maps nest serially


def fork_map(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]`` over n processes, one per core the
    caller may run on and one per job at most, with BLAS at one thread: the
    caller runs ``jobs[0::n]`` and forks a child per other share
    ``jobs[w::n]``, which pickles its results back through a pipe. Raises
    the lowest-indexed job's error, as a serial loop would, or
    ChildProcessError for a child that died without a result, once every
    child is reaped; on every path, Ctrl-C included, each child is killed
    once its results are in or the map has failed, and reaped. Inside a
    map, or without os.fork, jobs run serially."""
    global _in_map
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = 1 if _in_map or not hasattr(os, "fork") else max(1, min(cores or 1, len(jobs)))
    def share(w):   # fn of each job of share w, up to the first error; and that error
        done = []
        try:
            for job in jobs[w::n]:
                done.append(fn(job))
        except Exception as exc:
            return done, exc
        return done, None

    children = []
    with _blas_threads(lambda _: 1):
        outer, _in_map = _in_map, True   # children inherit it
        try:
            for w in range(1, n):
                children.append(_Child("worker", lambda pipe, w=w: pickle.dump(share(w), pipe)))
            shares = [share(0)] + [child.receive() for child in children]
        finally:
            _in_map = outer
            for child in children:
                child.end()
    failed = [(w + n * len(done), error) for w, (done, error) in enumerate(shares) if error]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [shares[j % n][0][j // n] for j in range(len(jobs))]


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
