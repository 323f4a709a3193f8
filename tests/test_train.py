"""Optimizer, schedule, fold training, and reproducibility."""

import ast
import hashlib
import os
import signal
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcvv import data as D
from mcvv import loss as L
from mcvv import metrics as M
from mcvv import tensor as T
from mcvv import train as TR
from mcvv import tubelet as TB
from mcvv.config import LOSS_MODES, RunConfig
from mcvv.encoder import EncoderConfig
from mcvv.model import Model, ModelConfig
from mcvv.tensor import Tensor
from mcvv.tubelet import TubeletConfig


# -- adam -------------------------------------------------------------------------


def _leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def test_adam_zero_grad_no_move():
    p = _leaf([1.0, -2.0, 3.0])
    moments = TR.init_moments([p])
    before = p.data.copy()
    for _ in range(5):
        TR.adam_step([p], [np.zeros(3)], moments, lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_constant_grad_step_approaches_lr_sign():
    p = _leaf([0.0, 0.0])
    g = np.array([0.37, -42.0])
    moments = TR.init_moments([p])
    lr = 0.01
    for _ in range(500):
        prev = p.data.copy()
        TR.adam_step([p], [g], moments, lr=lr)
    delta = p.data - prev
    np.testing.assert_allclose(delta, -lr * np.sign(g), rtol=1e-6)


def test_adam_quadratic_converges():
    target = np.array([3.0, -1.0, 0.5])
    p = _leaf([0.0, 0.0, 0.0])
    moments = TR.init_moments([p])
    for step in range(500):
        grad = 2.0 * (p.data - target)
        TR.adam_step([p], [grad], moments, lr=0.05)
    assert np.abs(p.data - target).max() < 1e-4


def test_adam_rejects_nonfinite_grad():
    p = _leaf([1.0])
    moments = TR.init_moments([p])
    with pytest.raises(Exception, match="non-finite"):
        TR.adam_step([p], [np.array([np.nan])], moments, lr=0.1)
    # the error names the parameter at fault: by name when given, else by position
    params = [_leaf([1.0]), _leaf([2.0])]
    grads = [np.array([0.5]), np.array([np.inf])]
    with pytest.raises(T.NonFiniteError, match=r"^non-finite gradient of parameter "
                                               r"'head\.out_b' in adam_step$"):
        TR.adam_step(params, grads, TR.init_moments(params), lr=0.1,
                     names=["head.out_w", "head.out_b"])
    moments = TR.init_moments(params)
    with pytest.raises(T.NonFiniteError, match=r"parameter #1 in adam_step$"):
        TR.adam_step(params, grads, moments, lr=0.1)
    # checked before any update, so the finite first gradient moved nothing
    assert params[0].data.tolist() == [1.0] and moments.t == 0
    assert not any(a.any() for a in moments.m + moments.v)


def test_train_step_names_the_parameter_with_a_nonfinite_grad(monkeypatch):
    model = Model(tiny_model_cfg(), seed=0)
    real = T.backward

    def poisoned(loss):
        real(loss)
        model.proj.grad[0, 0] = np.nan

    monkeypatch.setattr(T, "backward", poisoned)
    cubes = model.cubes(np.zeros((2, 8, 16, 16, 3)))
    with pytest.raises(T.NonFiniteError, match=r"parameter 'embed\.proj'"):
        TR.train_step(model, TR.init_moments(model.parameters()), cubes, np.array([0, 1]),
                      L.AdCorreState(), L.HPLossParams(), lr=1e-3)


def _with_nan(g):
    g = np.array(g, copy=True)
    g.flat[0] = np.nan
    return g


def _planting(real, op):
    """``Tensor._from_op`` whose ``op`` nodes plant a NaN in every gradient
    their closure returns."""
    def plant(grad_fn):
        return lambda g: tuple(None if x is None else _with_nan(x) for x in grad_fn(g))

    def from_op(data, parents, grad_fn, name):
        return real(data, parents, plant(grad_fn) if name == op else grad_fn, name)

    return staticmethod(from_op)


def test_a_nan_planted_in_any_backward_op_is_named_by_adam_and_moves_nothing(monkeypatch):
    # backward passes a non-finite gradient on unchecked; adam_step names the
    # first parameter it reached and changes no weight, moment or step count
    model = Model(tiny_model_cfg(), seed=0)
    cubes = model.cubes(np.random.default_rng(0).random((4, 8, 16, 16, 3), dtype=np.float32))
    labels = np.array([0, 1, 1, 0])
    moments = TR.init_moments(model.parameters())
    TR.train_step(model, moments, cubes, labels, L.AdCorreState(), L.HPLossParams(), lr=1e-3)
    graph = TR.batch_loss(model, cubes, labels, L.AdCorreState(), L.HPLossParams())
    seen, stack, ops = set(), [graph], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if node._grad_fn is not None:
                ops.add(node._op)
    assert {"linear", "matmul", "softmax", "layer_norm", "gelu", "repeat", "contiguous"} <= ops
    weights = [p.data.copy() for p in model.parameters()]
    m, v, t = [a.copy() for a in moments.m], [a.copy() for a in moments.v], moments.t
    real = T.Tensor._from_op
    for op in sorted(ops):
        monkeypatch.setattr(T.Tensor, "_from_op", _planting(real, op))
        with pytest.raises(T.NonFiniteError,
                           match=r"^non-finite gradient of parameter '[\w.]+' in adam_step$"):
            TR.train_step(model, moments, cubes, labels, L.AdCorreState(), L.HPLossParams(),
                          lr=1e-3)
        for before, p in zip(weights, model.parameters()):
            np.testing.assert_array_equal(p.data, before, err_msg=op)
        for before, after in zip(m + v, moments.m + moments.v):
            np.testing.assert_array_equal(after, before, err_msg=op)
        assert moments.t == t, op


def test_batch_loss_counts_the_batch_after_building_the_loss():
    model = Model(tiny_model_cfg(), seed=0)
    cubes = model.cubes(np.random.default_rng(1).random((4, 8, 16, 16, 3), dtype=np.float32))
    labels = np.array([0, 1, 1, 0])
    state, params = L.AdCorreState(), L.HPLossParams()
    loss = TR.batch_loss(model, cubes, labels, state, params).item()
    logits, emb = model.forward(model.embed(cubes))
    # the loss saw the fresh state; the state then counted the batch
    assert loss == L.hp_loss(logits, labels, emb, L.AdCorreState(), params).item()
    expected = L.update_confusion(L.AdCorreState(), np.argmax(logits.data, axis=-1), labels)
    np.testing.assert_array_equal(state.confusion, expected.confusion)
    assert state.confusion.sum() == len(labels)
    assert L.hp_loss(logits, labels, emb, state, params).item() != loss


_ERROR_MODES = ["ignore", "warn", "raise", "call", "print", "log"]


def _stamping_load(k, rows, out):
    """A `_load_ahead` load function that writes, in each row it fills, the
    job, the loading process and its numpy overflow mode."""
    out[rows] = k, os.getpid(), _ERROR_MODES.index(np.geterr()["over"])


def _stamps(sizes):
    """Each job's rows as `_stamping_load` filled them, read before the
    next job is asked for, and whether the arrays handed over were writeable.
    Each is read after a pause, long enough for a loader that wrote a slot
    too early to write over it."""
    stamps, writeable = [], set()
    for done in TR._load_ahead(_stamping_load, sizes, (3,), np.float64):
        time.sleep(0.02)
        stamps.append([(int(k), int(pid), _ERROR_MODES[int(mode)]) for k, pid, mode in done])
        writeable.add(done.flags.writeable)
    return stamps, writeable


def test_loader_process_loads_in_the_callers_numpy_error_state():
    with np.errstate(over="raise"):
        stamps, _ = _stamps([2, 2, 2])
    assert [mode for job in stamps for _, _, mode in job] == ["raise"] * 6
    _no_child_left()


@pytest.mark.parametrize("fork", [True, False])
def test_load_ahead_splits_job_0_with_the_caller_and_loads_the_rest_in_one_child(fork,
                                                                                monkeypatch):
    if not fork:
        monkeypatch.delattr(TR.os, "fork")
    sizes = [5, 4, 5, 2, 5]
    stamps, writeable = _stamps(sizes)
    assert [[k for k, _, _ in job] for job in stamps] == [[k] * n for k, n in enumerate(sizes)]
    pids = [[pid for _, pid, _ in job] for job in stamps]
    assert pids[0][:2] == [os.getpid()] * 2   # the first half, rounded down
    loader_pid = pids[0][2]
    assert (loader_pid != os.getpid()) == fork
    assert pids[0][2:] == [loader_pid] * 3
    assert all(job == [loader_pid] * len(job) for job in pids[1:])
    assert writeable == {False}
    _no_child_left()


def test_load_ahead_reaps_its_loader_when_closed_early():
    blas = _blas_threads()
    ring = TR._load_ahead(_stamping_load, [2] * 6, (3,), np.float64)
    next(ring)
    ring.close()
    _no_child_left()
    assert _blas_threads() == blas


# -- cyclic schedule ----------------------------------------------------------------


def test_cyclic_lr_anchors():
    base, peak, cycle = 1e-6, 1e-4, 100
    assert TR.cyclic_lr(0, base, peak, cycle) == base
    assert TR.cyclic_lr(50, base, peak, cycle) == peak
    assert TR.cyclic_lr(100, base, peak, cycle) == base
    # apex of the second cycle: amplitude halved
    assert TR.cyclic_lr(150, base, peak, cycle) == pytest.approx(base + (peak - base) / 2)
    assert TR.cyclic_lr(250, base, peak, cycle) == pytest.approx(base + (peak - base) / 4)


def test_cyclic_lr_rejects_short_cycle():
    with pytest.raises(ValueError):
        TR.cyclic_lr(0, 1e-6, 1e-4, 1)


# -- fold training ---------------------------------------------------------------------


def tiny_model_cfg():
    return ModelConfig(clip_len=8, height=16, width=16, channels=3,
                       tubelet=TubeletConfig(t=4, h=8, w=8),
                       encoder=EncoderConfig(d=16, heads=2, n_sp=1, n_tp=1, mlp_hidden=16))


def tiny_cohort(tmp_path, **kw):
    spec_kw = dict(mci=4, nc=3, frames_min=32, frames_max=56,
                   clip_len=8, hw=16, strength=0.45, rho=0.0,
                   noise=0.02, seed=11)
    spec_kw.update(kw)
    manifest = D.generate_synthetic_cohort(D.CohortSpec(**spec_kw), tmp_path)
    return D.Cohort(manifest)


def quick_train_cfg(**kw):
    defaults = dict(batch_size=4, epochs=50, max_steps=12, base_lr=1e-6,
                    max_lr=2e-3, cycle_steps=24, seed=3, loss="hp", head="mc",
                    augment=True, l_fold=2)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_train_fold_runs_and_reports(tmp_path):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg())
    assert result.report.fold == 0
    assert result.report.n_subjects == len(plan.folds[0])
    assert len(result.history) == 12
    assert result.clip_total > 0


def test_loss_decreases_on_separable_data(tmp_path):
    cohort = tiny_cohort(tmp_path, noise=0.01, strength=0.5)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=0)
    cfg = quick_train_cfg(max_steps=50, max_lr=3e-3, cycle_steps=100, seed=1)
    result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
    first = np.mean(result.history[:8])
    last = np.mean(result.history[-8:])
    assert last < first


def test_train_fold_pinned_across_epoch_boundaries(tmp_path):
    # 24 training clips in batches of 8: 7 steps cross two epoch boundaries
    # and stop one step into the third epoch. Pinned with tensor.erf's
    # float32 rational, class-row last layers, the stacked branch weight and
    # one-GEMM linears (x86-64, OpenBLAS 0.3.31); the prefetching loop must
    # match it bit for bit.
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(),
                           quick_train_cfg(batch_size=8, max_steps=7))
    assert result.history == [0.9266001582145691, 0.23625367879867554, 0.4301406145095825,
                              0.4841199517250061, 0.31956571340560913, 0.5251544117927551,
                              0.8020926713943481]
    sha = hashlib.sha256()
    for name, p in result.model.named_parameters():
        sha.update(name.encode() + b"\0" + p.data.tobytes())
    assert sha.hexdigest() == "05a1f410a7943cd2eb40f7908e3ff2f25ded6eedd8f54a164d5b1efa993f97cb"


def _recorded_nodes(root):
    """Graph nodes reachable from ``root`` that record a gradient closure."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return sum(node._grad_fn is not None for node in seen.values())


def test_default_step_graph_size_is_pinned():
    # one node per linear; with a matmul and an add per linear it was 193
    cfg = RunConfig()
    mc = cfg.model_config()
    model = Model(mc, seed=0)
    clips = np.random.default_rng(0).random(
        (cfg.batch_size, mc.clip_len, mc.height, mc.width, mc.channels), dtype=np.float32)
    labels = np.arange(cfg.batch_size) % 2
    loss = TR.batch_loss(model, model.cubes(clips), labels, L.AdCorreState(epsilon=cfg.epsilon),
                         cfg.loss_params())
    assert _recorded_nodes(loss) == 163


def _blas_threads():
    blas = TR._openblas()
    return None if blas is None else blas[0]()


def _watch_steps(monkeypatch):
    """Patch ``batch_loss`` to record, at each call, how many earlier steps'
    loss tensors are still alive and the BLAS thread count."""
    real, refs, seen = TR.batch_loss, [], []

    def watched(*args):
        seen.append((sum(ref() is not None for ref in refs), _blas_threads()))
        loss = real(*args)
        refs.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(TR, "batch_loss", watched)
    return seen


def test_step_graph_is_freed_before_the_next_forward(tmp_path, monkeypatch):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    seen = _watch_steps(monkeypatch)
    TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg(max_steps=4))
    assert [alive for alive, _ in seen] == [0, 0, 0, 0]


@pytest.mark.parametrize("truncate", [False, True])
def test_loader_process_and_blas_threads_end_with_the_fold(truncate, tmp_path, monkeypatch):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    cfg = quick_train_cfg(max_steps=0, epochs=1)
    if truncate:   # after the cohort has loaded; every training clip is read once
        clip = cohort.root / cohort.records[cohort.clips_of(plan.folds[1][0])[0]].clip_path
        clip.write_bytes(clip.read_bytes()[:-10])
    seen = _watch_steps(monkeypatch)
    blas = _blas_threads()
    if truncate:
        with pytest.raises(ValueError, match=rf"{clip.name}: truncated payload"):
            TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
    else:
        TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
        assert len(seen) == 6
    _no_child_left()
    assert _blas_threads() == blas
    if blas is not None:   # the loader has a core to itself while the fold trains
        assert {during for _, during in seen} <= {max(1, blas - 1)}


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("batch_size, augment", [(8, True), (5, True), (5, False)])
def test_batches_match_a_serial_loop(batch_size, augment, fork, tmp_path, monkeypatch):
    # the caller's half of batch 0 and the loader's other half augment each
    # clip as one serial loop does, at even and odd batch sizes
    if not fork:
        monkeypatch.delattr(TR.os, "fork")
    cohort = tiny_cohort(tmp_path)
    model = Model(tiny_model_cfg(), seed=0)
    train_idx = list(range(len(cohort)))
    cfg = quick_train_cfg(batch_size=batch_size, augment=augment, max_steps=5)
    augment_seed = np.random.SeedSequence(7)
    got = [(new_epoch, labels.tolist(), cubes.data.copy()) for new_epoch, labels, cubes
           in TR._batches(model, cohort, train_idx, cfg, np.random.default_rng(1),
                          augment_seed)]
    shuffle_rng, augment_rng = np.random.default_rng(1), np.random.default_rng(augment_seed)
    expected = []
    while len(expected) < cfg.max_steps:
        order = shuffle_rng.permutation(len(train_idx))
        for b in range(TR.batches_per_epoch(len(order), batch_size)):
            chunk = [train_idx[i] for i in order[b * batch_size:(b + 1) * batch_size]]
            clips = [D.augment_clip(cohort.frames(i), D.sample_augment_params(augment_rng))
                     if augment else cohort.frames(i) for i in chunk]
            expected.append((b == 0, [cohort.records[i].label for i in chunk],
                             model.cubes(clips).data))
    assert len(got) == cfg.max_steps
    for (new_epoch, labels, cubes), (e_new_epoch, e_labels, e_cubes) in zip(got, expected):
        assert (new_epoch, labels) == (e_new_epoch, e_labels)
        np.testing.assert_array_equal(cubes, e_cubes)
    _no_child_left()


def test_training_is_bit_identical_with_and_without_fork(tmp_path, monkeypatch):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    runs = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(TR.os, "fork")
        result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(),
                               quick_train_cfg(batch_size=5, max_steps=7))
        runs.append((result.history,
                     [p.data.tobytes() for _, p in result.model.named_parameters()]))
    assert runs[0] == runs[1]


def _serial_reads(cohort, plan, cfg, monkeypatch):
    """The clip files a fold's training loop reads, in the order of a serial
    loop: the loader runs in the caller when there is no os.fork."""
    reads, real = [], D.Cohort.frames

    def frames(self, index):
        reads.append(self.root / self.records[index].clip_path)
        return real(self, index)

    def evaluate_subjects(*args):   # reads clips too, but not the loop's
        raise StopIteration

    with monkeypatch.context() as patch:
        patch.delattr(TR.os, "fork")
        patch.setattr(D.Cohort, "frames", frames)
        patch.setattr(TR, "evaluate_subjects", evaluate_subjects)
        with pytest.raises(StopIteration):
            TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
    return reads


@pytest.mark.parametrize("truncated, failing", [([0], 0), ([7], 7), ([16], 16), ([7, 0], 0),
                                                ([16, 9], 9)],
                         ids=["caller", "loader-batch-0", "loader-batch-2", "caller-first",
                              "loader-batch-1-first"])
def test_truncated_training_clip_gives_the_serial_loops_error(truncated, failing, tmp_path,
                                                              monkeypatch):
    # batches of 8: the caller loads reads 0-3 and the loader reads 4-7 of
    # batch 0, then every later batch; the earliest read's error is raised
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    cfg = quick_train_cfg(batch_size=8, max_steps=3)
    reads = _serial_reads(cohort, plan, cfg, monkeypatch)
    assert len(reads) == 24 and len(set(reads[:8])) == 8
    for k in truncated:
        reads[k].write_bytes(reads[k].read_bytes()[:-10])
    messages = []
    for fork in (True, False):
        with monkeypatch.context() as patch:
            if not fork:
                patch.delattr(TR.os, "fork")
            with pytest.raises(D.TensorFileError) as caught:
                TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
        messages.append(str(caught.value))
    assert messages == [f"{reads[failing]}: truncated payload"] * 2
    _no_child_left()


def test_a_killed_loader_raises_child_process_error(tmp_path, monkeypatch):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    caller, real = os.getpid(), TR.augment_clip

    def augment_clip(frames, params):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(frames, params)

    monkeypatch.setattr(TR, "augment_clip", augment_clip)
    # an OSError, so the CLI prints it as one line and exits 3
    with pytest.raises(ChildProcessError, match=r"^loader \d+ died without a result"):
        TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg(max_steps=4))
    _no_child_left()


def test_every_augmentation_is_drawn_in_the_caller(tmp_path, monkeypatch):
    # the loader augments with parameters the caller drew for its clips, and
    # nothing is drawn past the last step: 3 steps of 4 clips, 12 draws
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    caller, real, draws = os.getpid(), TR.sample_augment_params, []

    def sample_augment_params(rng):
        if os.getpid() != caller:
            raise AssertionError(f"augmentation drawn in process {os.getpid()}")
        draws.append(1)
        return real(rng)

    monkeypatch.setattr(TR, "sample_augment_params", sample_augment_params)
    result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(),
                           quick_train_cfg(batch_size=4, max_steps=3))
    assert len(result.history) == 3 and len(draws) == 12
    _no_child_left()


def test_training_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the loop lends BLAS threads to the loader: started at 2 and 3, the
    # products run on 1 and 2 threads
    blas = TR._openblas()
    if blas is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    get, set_ = blas
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    before, digests = get(), []
    try:
        for threads in (2, 3):
            set_(threads)
            result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(),
                                   quick_train_cfg(max_steps=3))
            digests.append([p.data.tobytes() for _, p in result.model.named_parameters()])
    finally:
        set_(before)
    assert get() == before
    assert digests[0] == digests[1]


def test_train_fold_deterministic(tmp_path):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    a = TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg())
    b = TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg())
    assert a.history == b.history
    assert a.report == b.report
    assert a.subject_scores == b.subject_scores


def test_all_loss_and_head_modes_run(tmp_path):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    for loss in LOSS_MODES:
        cfg = quick_train_cfg(loss=loss, max_steps=3)
        result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
        assert len(result.history) == 3
    result = TR.train_fold(cohort, plan, 0, replace(tiny_model_cfg(), multi_branch=False),
                           quick_train_cfg(head="nomc", max_steps=3))
    assert not result.model.cfg.multi_branch


def test_max_steps_zero_trains_every_epoch(tmp_path):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    n_train = len(cohort) - sum(len(cohort.clips_of(s)) for s in plan.folds[0])
    batch = 4
    per_epoch = n_train // batch + (n_train % batch >= 2)   # a lone last clip is skipped
    cfg = quick_train_cfg(max_steps=0, epochs=2, batch_size=batch)
    result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
    assert len(result.history) == 2 * per_epoch


def test_default_cycle_is_two_epochs_of_batches(tmp_path, monkeypatch):
    # the trailing part-batch of each epoch trains, so it counts toward the cycle
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    n_train = len(cohort) - sum(len(cohort.clips_of(s)) for s in plan.folds[0])
    batch = next(b for b in range(3, n_train) if n_train % b >= 2)
    real, cycles = TR.cyclic_lr, set()

    def watched(step, base_lr, max_lr, cycle_len):
        cycles.add(cycle_len)
        return real(step, base_lr, max_lr, cycle_len)

    monkeypatch.setattr(TR, "cyclic_lr", watched)
    cfg = quick_train_cfg(max_steps=0, epochs=1, batch_size=batch, cycle_steps=0)
    result = TR.train_fold(cohort, plan, 0, tiny_model_cfg(), cfg)
    assert len(result.history) == n_train // batch + 1
    assert cycles == {2 * len(result.history)}


def test_train_fold_rejects_model_cfg_head_mismatch(tmp_path):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    with pytest.raises(ValueError, match="head"):
        TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg(head="nomc"))


def test_train_rejects_batch_of_one():
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig(batch_size=1).validate()


def test_subject_disjointness_checked(tmp_path):
    cohort = tiny_cohort(tmp_path)
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    plan.folds[1][0] = plan.folds[0][0]   # corrupt: subject in two folds
    with pytest.raises(RuntimeError, match="straddle"):
        TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg())


def test_run_kfold_pools_all_subjects(tmp_path):
    cohort = tiny_cohort(tmp_path)
    cfg = quick_train_cfg(max_steps=2, l_fold=2)
    result = TR.run_kfold(cohort, tiny_model_cfg(), cfg)
    assert len(result.folds) == 3
    assert result.pooled.n_subjects == len(cohort.subject_ids())
    assert result.pooled.clip_accuracy is not None


def test_evaluation_ignores_augmentation(tmp_path):
    # evaluating twice must give identical scores (no augmentation randomness)
    cohort = tiny_cohort(tmp_path)
    model = Model(tiny_model_cfg(), seed=0)
    subjects = cohort.subject_ids()[:2]
    a = TR.evaluate_subjects(model, cohort, subjects)
    b = TR.evaluate_subjects(model, cohort, subjects)
    assert a[0] == b[0]


def default_geometry_cohort(tmp_path, subjects_per_class=1):
    """Subjects of 12 clips at the default model's 16x64x64 geometry."""
    return tiny_cohort(tmp_path, mci=subjects_per_class, nc=subjects_per_class,
                       frames_min=192, frames_max=192, clip_len=16, hw=64)


def test_evaluation_matches_a_serial_loop(tmp_path):
    # the loader projects clip by clip; the reference projects each subject's
    # cubes as one matrix, which rounds alike at the tiny and the default
    # geometry (the tiny cohort's subjects have at most 7 clips; see the
    # pinned test below)
    for cohort, model in [(tiny_cohort(tmp_path / "tiny"), Model(tiny_model_cfg(), seed=0)),
                          (default_geometry_cohort(tmp_path / "default"),
                           Model(ModelConfig(), seed=0))]:
        subjects = cohort.subject_ids()
        scores, labels, correct, total = TR.evaluate_subjects(model, cohort, subjects)
        expected, expected_correct = {}, 0
        for subject in subjects:
            idxs = cohort.clips_of(subject)
            probs = model.clip_probability(
                model.embed(model.cubes([cohort.frames(i) for i in idxs])))
            expected_correct += int(np.sum((probs >= 0.5)
                                           == [cohort.records[i].label for i in idxs]))
            expected[subject] = M.aggregate_subject(probs)
        assert list(scores) == subjects
        assert scores == expected   # bit for bit
        assert labels == {s: cohort.subject_label(s) for s in subjects}
        assert (correct, total) == (expected_correct, len(cohort))


def _cores(monkeypatch, n):
    """`fork_map` sees ``n`` cores, so it maps over up to ``n`` processes."""
    monkeypatch.setattr(TR.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evaluation_projects_each_clip_alone_and_scores_graphless_tokens(tmp_path, monkeypatch):
    cohort = tiny_cohort(tmp_path)
    model = Model(tiny_model_cfg(), seed=0)
    subjects = cohort.subject_ids()
    embed_threads, embedded, handed = set(), [], []
    real_embed, real_probability = TB.embed, Model.clip_probability

    def embed(cubes, proj):
        embed_threads.add(threading.get_ident())
        embedded.append(cubes.shape)
        return real_embed(cubes, proj)

    def watched(self, tokens):
        handed.append(tokens)
        return real_probability(self, tokens)

    monkeypatch.setattr(TB, "embed", embed)
    monkeypatch.setattr(Model, "clip_probability", watched)
    _cores(monkeypatch, 1)   # one process, so every call is seen here
    TR.evaluate_subjects(model, cohort, subjects)
    # one projection per clip, each of one clip's cubes, on the calling thread
    assert embedded == [(1, int(np.prod(model.counts)), model.proj.shape[0])] * len(cohort)
    assert embed_threads == {threading.get_ident()}
    n_tokens = int(np.prod(model.counts))
    assert [t.shape for t in handed] == [(len(cohort.clips_of(s)), n_tokens, model.cfg.encoder.d)
                                         for s in subjects]
    assert all(not t.requires_grad and t._parents == () for t in handed)


def test_evaluation_pinned_where_per_clip_products_round_differently(tmp_path):
    # At the tiny config one clip's projection, [8, 768] @ [768, 16], is small
    # enough for OpenBLAS's small-matrix kernel, and a 12-clip subject's is
    # not, so these scores differ in low bits from projecting each subject as
    # one matrix. They equal a serial loop that projects clip by clip, and are
    # pinned (x86-64 SkylakeX, OpenBLAS 0.3.31).
    cohort = tiny_cohort(tmp_path, frames_min=96, frames_max=96)
    model = Model(tiny_model_cfg(), seed=3)
    subjects = cohort.subject_ids()[:3]
    scores = TR.evaluate_subjects(model, cohort, subjects)[0]
    for subject in subjects:
        rows = [model.embed(model.cubes([cohort.frames(i)])) for i in cohort.clips_of(subject)]
        projected = T.concat(rows, axis=0)
        assert scores[subject] == M.aggregate_subject(model.clip_probability(projected))
    assert [scores[s] for s in subjects] == [0.20515852297345796, 0.2034947524468104,
                                             0.20709340646862984]


def test_evaluation_never_holds_a_subject_cube_matrix(tmp_path, monkeypatch):
    cohort = default_geometry_cohort(tmp_path, subjects_per_class=2)
    model = Model(ModelConfig(), seed=0)
    subjects = cohort.subject_ids()
    n_clips = len(cohort.clips_of(subjects[0]))
    cube_matrix = model.cubes(np.zeros((n_clips, 16, 64, 64, 3), np.float32)).data.nbytes
    _cores(monkeypatch, 1)   # tracemalloc sees one process; the bound holds in each
    tracemalloc.start()
    try:
        TR.evaluate_subjects(model, cohort, subjects)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cube_matrix, (peak, cube_matrix)


@pytest.mark.parametrize("truncate", [False, True])
def test_evaluation_leaves_no_thread_or_child_and_restores_blas(truncate, tmp_path, monkeypatch):
    cohort = tiny_cohort(tmp_path)
    model = Model(tiny_model_cfg(), seed=0)
    subjects = cohort.subject_ids()
    if truncate:   # a clip of the third subject, which this process scores
        clip = cohort.root / cohort.records[cohort.clips_of(subjects[2])[-1]].clip_path
        clip.write_bytes(clip.read_bytes()[:-10])
    seen = []
    real = Model.clip_probability

    def watched(self, tokens):
        seen.append(_blas_threads())
        return real(self, tokens)

    monkeypatch.setattr(Model, "clip_probability", watched)
    _cores(monkeypatch, 2)
    threads, blas = threading.active_count(), _blas_threads()
    if truncate:
        with pytest.raises(D.TensorFileError, match=rf"{clip.name}: truncated payload"):
            TR.evaluate_subjects(model, cohort, subjects)
        assert len(seen) == 1   # the first subject of this process's share
    else:
        TR.evaluate_subjects(model, cohort, subjects)
        assert len(seen) == len(subjects[0::2])
    _no_child_left()
    assert threading.active_count() == threads
    assert _blas_threads() == blas
    if blas is not None:   # each process runs BLAS at one thread while subjects are scored
        assert set(seen) == {1}


def test_evaluation_is_bit_identical_in_subject_order_at_any_worker_count(tmp_path,
                                                                         monkeypatch):
    cohort = tiny_cohort(tmp_path)
    model = Model(tiny_model_cfg(), seed=0)
    subjects = cohort.subject_ids()[::-1]   # not the cohort's order
    results = []
    for cores in (1, 2, 3):
        _cores(monkeypatch, cores)
        results.append(TR.evaluate_subjects(model, cohort, subjects))
    assert results[0] == results[1] == results[2]
    scores, labels, correct, total = results[0]
    assert list(scores) == list(labels) == subjects
    assert total == len(cohort)
    _no_child_left()


@pytest.mark.parametrize("truncated, failing", [([2], 2), ([1], 1), ([2, 1], 1), ([3, 2], 2)],
                         ids=["caller", "child", "child-first", "caller-first"])
def test_truncated_clip_in_any_share_gives_the_serial_loops_error(truncated, failing, tmp_path,
                                                                  monkeypatch):
    # at two processes the caller scores subjects 0, 2, 4, ... and its child
    # 1, 3, 5, ...; the first failing subject's error is raised, as from one
    cohort = tiny_cohort(tmp_path)
    model = Model(tiny_model_cfg(), seed=0)
    subjects = cohort.subject_ids()
    clips = [cohort.root / cohort.records[cohort.clips_of(s)[0]].clip_path for s in subjects]
    for k in truncated:
        clips[k].write_bytes(clips[k].read_bytes()[:-10])
    messages = []
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        with pytest.raises(D.TensorFileError) as caught:
            TR.evaluate_subjects(model, cohort, subjects)
        messages.append(str(caught.value))
    assert messages == [f"{clips[failing]}: truncated payload"] * 2
    _no_child_left()


# -- worker processes ----------------------------------------------------------------


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_fork_map_returns_results_in_job_order(cores, monkeypatch):
    _cores(monkeypatch, cores)
    results = TR.fork_map(lambda job: (job * job, os.getpid()), range(7))
    assert [r for r, _ in results] == [j * j for j in range(7)]
    n = min(cores, 7)
    pids = [pid for _, pid in results]
    assert len(set(pids)) == n
    # shared by stride, the caller running share 0
    assert [pid == os.getpid() for pid in pids] == [j % n == 0 for j in range(7)]
    assert all(pids[j] == pids[j % n] for j in range(7))
    _no_child_left()


@pytest.mark.parametrize("failing", [[0], [1], [6], [3, 6], [4, 1], [3, 2], [4, 2]])
def test_fork_map_raises_the_lowest_indexed_jobs_error(failing, monkeypatch):
    def fn(job):
        if job in failing:
            raise ValueError(f"job {job}")
        return job

    for cores in (1, 3):   # shares [0, 3, 6], [1, 4] and [2, 5] at 3
        _cores(monkeypatch, cores)
        with pytest.raises(ValueError, match=rf"^job {min(failing)}$"):
            TR.fork_map(fn, range(7))
    _no_child_left()


def test_fork_map_child_killed_without_a_result_raises_child_process_error(monkeypatch):
    _cores(monkeypatch, 2)

    def fn(job):
        if job == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return job

    # an OSError, so the CLI prints it as one line and exits 3
    with pytest.raises(ChildProcessError, match="died without a result"):
        TR.fork_map(fn, range(4))
    _no_child_left()


def test_fork_map_reaps_its_children_when_interrupted(monkeypatch):
    _cores(monkeypatch, 2)

    def fn(job):
        if job == 0:
            raise KeyboardInterrupt
        time.sleep(0.2)   # the child still runs when the caller is interrupted
        return job

    with pytest.raises(KeyboardInterrupt):
        TR.fork_map(fn, range(2))
    _no_child_left()


def test_fork_map_forks_one_child_per_job_at_most(monkeypatch):
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        if len(forks) > 2:   # refuse, rather than start, a worker past the cap
            raise OSError("fork past the cap")
        return real_fork()

    monkeypatch.setattr(TR.os, "fork", counting_fork)
    _cores(monkeypatch, 100000)
    assert TR.fork_map(lambda job: job, range(3)) == [0, 1, 2]
    assert len(forks) == 2
    _no_child_left()


def test_fork_map_runs_blas_at_one_thread_and_restores_it(monkeypatch):
    blas = _blas_threads()
    if blas is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    _cores(monkeypatch, 2)
    assert TR.fork_map(lambda job: _blas_threads(), range(4)) == [1, 1, 1, 1]
    assert _blas_threads() == blas


def test_fork_map_jobs_run_in_the_callers_numpy_error_state(monkeypatch):
    _cores(monkeypatch, 2)
    with np.errstate(over="raise"):
        assert TR.fork_map(lambda job: np.geterr()["over"], range(2)) == ["raise"] * 2


def test_fork_map_runs_serially_where_there_is_no_fork(monkeypatch):
    monkeypatch.delattr(TR.os, "fork")
    _cores(monkeypatch, 3)
    assert TR.fork_map(lambda job: os.getpid(), range(3)) == [os.getpid()] * 3


@pytest.mark.parametrize("cpu_count, n", [(3, 3), (None, 1)])
def test_fork_map_counts_cores_by_cpu_count_without_affinity(cpu_count, n, monkeypatch):
    monkeypatch.delattr(TR.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(TR.os, "cpu_count", lambda: cpu_count)
    assert len(set(TR.fork_map(lambda job: os.getpid(), range(7)))) == n
    _no_child_left()


def test_maps_nest_serially_in_every_process(monkeypatch):
    _cores(monkeypatch, 2)
    inner = TR.fork_map(lambda job: TR.fork_map(lambda k: os.getpid(), range(2)), range(2))
    assert inner[0] == [os.getpid()] * 2
    assert inner[1][0] == inner[1][1] != os.getpid()
    _no_child_left()


def test_heap_policy_is_set_before_every_fork(tmp_path, monkeypatch):
    cohort = tiny_cohort(tmp_path)
    model = Model(tiny_model_cfg(), seed=0)
    events, real_fork = [], os.fork

    def fork():
        events.append("fork")
        return real_fork()

    monkeypatch.setattr(TR, "_keep_freed_heap", lambda: events.append("heap"))
    monkeypatch.setattr(TR.os, "fork", fork)
    _cores(monkeypatch, 2)
    TR.evaluate_subjects(model, cohort, cohort.subject_ids())
    assert events == ["heap", "fork"]   # one evaluation worker
    events.clear()
    plan = D.plan_folds(cohort.subject_ids(), 2, seed=3)
    TR.train_fold(cohort, plan, 0, tiny_model_cfg(), quick_train_cfg(max_steps=2))
    assert events == ["heap", "fork"] * 2   # the loader, then one evaluation worker
    _no_child_left()


def test_no_module_imports_threads_or_process_pools():
    # tensor's grad mode is one flag per process and `_Child` is the one
    # process mechanism. The sources are read, since numpy itself imports
    # threading.
    banned, seen = {"threading", "concurrent", "multiprocessing"}, set()
    for path in Path(TR.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                seen |= {(path.name, a.name.split(".")[0]) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                seen.add((path.name, node.module.split(".")[0]))
    assert ("train.py", "os") in seen
    assert sorted(f"{name} imports {module}" for name, module in seen if module in banned) == []
