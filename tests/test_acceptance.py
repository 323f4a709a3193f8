"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The learnability and ablation criteria train real models and,
with the full-model gradient check, take most of the time (about a minute
in total on a 2-vCPU machine). Those three carry the ``slow`` marker, so
`pytest -m "not slow"` runs everything else.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mcvv import cli
from mcvv import data as D
from mcvv import encoder as E
from mcvv import head as H
from mcvv import loss as L
from mcvv import metrics as M
from mcvv import tensor as T
from mcvv import train as TR
from mcvv import tubelet as TB
from mcvv.config import RunConfig
from mcvv.model import ModelConfig, full_model_gradcheck
from mcvv.tensor import Tensor

GRADCHECK_TOLERANCE = 1e-4


def _report(criterion: int, text: str) -> None:
    print(f"\nCRITERION {criterion} PASS: {text}")


# -- criterion 1: gradient correctness end to end -------------------------------------


@pytest.mark.slow
def test_criterion_1_full_model_gradients():
    start = time.perf_counter()
    err, n_params = full_model_gradcheck(seed=0)
    elapsed = time.perf_counter() - start
    assert n_params <= 5000, f"gradcheck model has {n_params} parameters"
    assert err < GRADCHECK_TOLERANCE, f"max relative error {err:.3e}"
    assert elapsed < 300.0, f"gradcheck took {elapsed:.0f}s"
    _report(1, f"max rel err {err:.2e} over {n_params} params in {elapsed:.0f}s")


# -- criterion 2: loss identities -------------------------------------------------------


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(0)

    # focal(gamma=0, alpha=0.5) == 0.5 * cross-entropy
    params = L.FocalParams(alpha=0.5, gamma=0.0)
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        focal = L.focal_loss(Tensor(np.array([p])), [y], params).item()
        ce = -math.log(p if y == 1 else 1.0 - p)
        worst = max(worst, abs(focal - 0.5 * ce))
    assert worst < 1e-12, f"focal/CE gap {worst:.2e}"

    # FD == 0 for same-label identical pairs, == 2(1+eps) for opposite labels
    eps = L.AdCorreState().epsilon
    worst_same, worst_diff = 0.0, 0.0
    for _ in range(1000):
        v = rng.standard_normal(int(rng.integers(3, 16)))
        emb = Tensor(np.stack([v, v]))
        same = L.fd_loss(emb, [1, 1], L.AdCorreState()).item()
        diff = L.fd_loss(emb, [1, 0], L.AdCorreState()).item()
        worst_same = max(worst_same, abs(same))
        worst_diff = max(worst_diff, abs(diff - 2.0 * (1.0 + eps)))
    assert worst_same < 1e-10
    assert worst_diff < 1e-10

    # HP == focal when the discriminator weight is zero
    zero_fd = L.HPLossParams(fd_weight=0.0)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        logits = Tensor(rng.standard_normal((n, 2)))
        emb = Tensor(rng.standard_normal((n, 8)))
        labels = rng.integers(0, 2, n)
        hp = L.hp_loss(logits, labels, emb, L.AdCorreState(), zero_fd).item()
        focal = L.focal_loss(T.softmax(logits, axis=-1)[:, 1], labels,
                             zero_fd.focal).item()
        assert hp == focal
    _report(2, f"focal/CE gap {worst:.1e}; FD hand cases within "
               f"{max(worst_same, worst_diff):.1e}; HP(lambda=0) == focal")


# -- criterion 3: structural invariants ----------------------------------------------------


def test_criterion_3_structural_invariants():
    rng = np.random.default_rng(1)

    # tubelet partition reconstructs the covered region: 200 random configs
    for _ in range(200):
        frames, height, width = (int(x) for x in rng.integers(2, 18, size=3))
        cfg = TB.TubeletConfig(t=int(rng.integers(1, frames + 1)),
                               h=int(rng.integers(1, height + 1)),
                               w=int(rng.integers(1, width + 1)))
        channels = int(rng.integers(1, 4))
        clip = rng.random((frames, height, width, channels))
        n_t, n_h, n_w = TB.token_counts(cfg, frames, height, width)
        flat = TB.tubelet_partition(clip[None], cfg).data[0]
        # token count matches brute-force cube enumeration
        count = 0
        for _a in range(0, frames - cfg.t + 1, cfg.t):
            for _b in range(0, height - cfg.h + 1, cfg.h):
                for _c in range(0, width - cfg.w + 1, cfg.w):
                    count += 1
        assert flat.shape == (count, cfg.t * cfg.h * cfg.w * channels)
        rebuilt = (flat.reshape(n_t, n_h, n_w, cfg.t, cfg.h, cfg.w, channels)
                   .transpose(0, 3, 1, 4, 2, 5, 6)
                   .reshape(n_t * cfg.t, n_h * cfg.h, n_w * cfg.w, channels))
        np.testing.assert_array_equal(
            rebuilt, clip[:n_t * cfg.t, :n_h * cfg.h, :n_w * cfg.w, :])

    # spatial stage: altering one temporal index changes only that output row
    enc_cfg = E.EncoderConfig(d=8, heads=2, n_sp=2, n_tp=1, mlp_hidden=16)
    params = E.init_encoder_params(enc_cfg, n_t=4, rng=rng, dtype=np.float64)
    tokens = rng.standard_normal((4 * 6 + 1, 8))
    seq = Tensor(tokens[None])
    base = E.spatial_encode(seq, 4, enc_cfg, params).data[0]
    for tau in range(4):
        mutated = tokens.copy()
        lo = 1 + tau * 6
        mutated[lo:lo + 6] += rng.standard_normal((6, 8))
        out = E.spatial_encode(Tensor(mutated[None]), 4, enc_cfg, params).data[0]
        for row in range(4):
            if row == tau:
                assert not np.allclose(out[row], base[row])
            else:
                np.testing.assert_array_equal(out[row], base[row])

    # multi-branch head is linear (zero biases at init), float32, 1e-5
    mc = H.init_mc_params(64, 2, rng, dtype=np.float32)
    for _ in range(20):
        x = rng.standard_normal(64).astype(np.float32)
        y = rng.standard_normal(64).astype(np.float32)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        lhs = H.mc_features(Tensor((a * x + b * y)[None]), mc)[0].data
        rhs = (a * H.mc_features(Tensor(x[None]), mc)[0].data
               + b * H.mc_features(Tensor(y[None]), mc)[0].data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    # correlation matrix: symmetric, unit diagonal, affine invariant, 1e-10
    for _ in range(50):
        n, dim = int(rng.integers(2, 8)), int(rng.integers(3, 12))
        emb = rng.standard_normal((n, dim))
        corm = L.correlation_matrix(Tensor(emb)).data
        np.testing.assert_allclose(corm, corm.T, atol=1e-10)
        np.testing.assert_array_equal(np.diagonal(corm), np.ones(n))
        shifted = emb + rng.uniform(-5, 5)
        scaled = shifted * rng.uniform(0.1, 10)
        np.testing.assert_allclose(L.correlation_matrix(Tensor(scaled)).data,
                                   corm, atol=1e-10)
    _report(3, "partition bijection, token counts, spatial independence, "
               "head linearity, correlation invariants")


# -- criterion 4: fold discipline ---------------------------------------------------------------


def test_criterion_4_fold_discipline():
    rng = np.random.default_rng(2)
    for _ in range(500):
        l_fold = int(rng.integers(1, 11))
        n_video = int(rng.integers(l_fold, 200))
        subjects = [f"s{i}" for i in range(n_video)]
        plan = D.plan_folds(subjects, l_fold, seed=int(rng.integers(1 << 30)))
        assert plan.k == n_video // l_fold
        seen = [s for fold in plan.folds for s in fold]
        assert sorted(seen) == sorted(subjects)      # every subject exactly once
        assert all(len(f) == l_fold for f in plan.folds[:-1])

    assert D.plan_folds([f"s{i}" for i in range(39)], 3, seed=0).k == 13
    assert D.plan_folds([f"s{i}" for i in range(35)], 3, seed=0).k == 11
    _report(4, "500 random plans obey K = floor(n/l_fold) and subject "
               "disjointness; (39,3)->13 and (35,3)->11")


# -- criterion 5: metric oracle equivalence ----------------------------------------------------------


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        r = M.compute_metrics(scores, labels)
        tp = fp = tn = fn = 0
        for s, y in zip(scores, labels):
            pred = 1 if s >= 0.5 else 0
            tp += pred == 1 and y == 1
            fp += pred == 1 and y == 0
            tn += pred == 0 and y == 0
            fn += pred == 0 and y == 1
        assert r.accuracy == (tp + tn) / n
        assert r.sensitivity == (tp / (tp + fn) if tp + fn else None)
        assert r.specificity == (tn / (tn + fp) if tn + fp else None)
        prec = tp / (tp + fp) if tp + fp else None
        sens = tp / (tp + fn) if tp + fn else None
        f1 = (2 * prec * sens / (prec + sens)
              if prec is not None and sens is not None and prec + sens > 0 else None)
        assert r.f1 == f1

    n = 10000
    labels = np.r_[np.ones(n // 2, dtype=int), np.zeros(n // 2, dtype=int)]
    auc = M.roc_auc(np.random.default_rng(4).random(n), labels)
    assert abs(auc - 0.5) < 0.02

    assert M.format_percent(29 / 32) == "90.63"
    _report(5, f"1000 recounts exact; random AUC {auc:.3f}; 29/32 -> 90.63%")


# -- criterion 6: desk-scale learnability ---------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_learnability(tmp_path):
    start = time.perf_counter()
    spec = D.CohortSpec(mci=20, nc=12, frames_min=128,
                        frames_max=256, clip_len=16, hw=32,
                        strength=0.4, rho=0.0, noise=0.02, seed=7)
    cohort = D.Cohort(D.generate_synthetic_cohort(spec, tmp_path))
    model_cfg = ModelConfig(clip_len=16, height=32, width=32, channels=3,
                            tubelet=TB.TubeletConfig(t=4, h=16, w=16),
                            encoder=E.EncoderConfig(d=64, heads=4, n_sp=2, n_tp=2,
                                                    mlp_hidden=128))
    plan = D.plan_folds(cohort.subject_ids(), 3, seed=7)

    clip_accs = []
    for seed in range(5):
        cfg = RunConfig(batch_size=16, epochs=100, max_steps=200,
                        base_lr=1e-6, max_lr=1e-3, cycle_steps=200,
                        seed=seed, loss="hp", head="mc", augment=True,
                        l_fold=3)
        result = TR.train_fold(cohort, plan, 0, model_cfg, cfg)
        clip_accs.append(result.report.clip_accuracy)
    elapsed = time.perf_counter() - start
    median = float(np.median(clip_accs))
    assert median >= 0.90, f"median clip accuracy {median:.3f} over seeds {clip_accs}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _report(6, f"median clip accuracy {median:.3f} over 5 seeds in {elapsed:.0f}s")


# -- criterion 7: ablation directionality ------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_ablation_directionality(tmp_path):
    spec = D.CohortSpec(mci=12, nc=7, frames_min=64,
                        frames_max=128, clip_len=8, hw=16,
                        strength=0.45, rho=0.3, noise=0.03, seed=21)
    cohort = D.Cohort(D.generate_synthetic_cohort(spec, tmp_path))
    model_cfg = ModelConfig(clip_len=8, height=16, width=16, channels=3,
                            tubelet=TB.TubeletConfig(t=4, h=8, w=8),
                            encoder=E.EncoderConfig(d=16, heads=2, n_sp=1, n_tp=1,
                                                    mlp_hidden=16))
    plan = D.plan_folds(cohort.subject_ids(), 8, seed=21)   # eval 8, train 11

    def median_accuracy(loss: str, head: str) -> float:
        accs = []
        for seed in range(5):
            cfg = RunConfig(batch_size=8, epochs=100, max_steps=150,
                            base_lr=1e-6, max_lr=3e-3, cycle_steps=150,
                            seed=seed, loss=loss, head=head, augment=True,
                            l_fold=8)
            head_cfg = replace(model_cfg, multi_branch=head == "mc")
            accs.append(TR.train_fold(cohort, plan, 0, head_cfg, cfg).report.accuracy)
        return float(np.median(accs))

    hp = median_accuracy("hp", "mc")
    focal = median_accuracy("focal", "mc")
    fd = median_accuracy("fd", "mc")
    nomc = median_accuracy("hp", "nomc")

    tolerance = 0.02   # two percentage points
    assert hp >= focal - tolerance, f"hp {hp:.3f} < focal {focal:.3f} - 2pp"
    assert focal >= fd - tolerance, f"focal {focal:.3f} < fd {fd:.3f} - 2pp"
    assert hp >= nomc - tolerance, f"mc {hp:.3f} < nomc {nomc:.3f} - 2pp"
    _report(7, f"hp={hp:.3f} >= focal={focal:.3f} >= fd={fd:.3f}; "
               f"mc={hp:.3f} >= nomc={nomc:.3f}")


# -- criterion 8: determinism -----------------------------------------------------------------------------


def test_criterion_8_kfold_determinism(tmp_path):
    data = tmp_path / "data"
    flags = ["--hw", "16", "--clip-len", "8", "--t", "4", "--h", "8", "--w", "8",
             "--d", "16", "--heads", "2", "--n-sp", "1", "--n-tp", "1",
             "--mlp-hidden", "16", "--frames-min", "24", "--frames-max", "40",
             "--mci", "3", "--nc", "2", "--batch-size", "4", "--max-steps", "6",
             "--l-fold", "2", "--seed", "5"]
    assert cli.main(["gen-data", "--out", str(data)] + flags) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["kfold", "--data", str(data), "--out", str(a)] + flags) == 0
    assert cli.main(["kfold", "--data", str(data), "--out", str(b)] + flags) == 0
    assert a.read_bytes() == b.read_bytes(), "kfold reports differ between runs"
    payload = json.loads(a.read_text())
    assert payload["pooled"]["n_subjects"] == 5
    _report(8, "two kfold runs produced byte-identical reports")
