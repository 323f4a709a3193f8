"""Multi-branch head: structure, linearity, branch symmetry, ablation.

Branch i is the column block [8*i, 8*(i+1)) of the stacked ``branch_w`` and
``branch_b`` at the default widths."""

import hashlib

import numpy as np
import pytest

from mcvv import head as H
from mcvv import tensor as T
from mcvv.model import Model, ModelConfig
from mcvv.tensor import Tensor


@pytest.fixture
def params():
    return H.init_mc_params(64, 2, np.random.default_rng(0), dtype=np.float64)


def block(i):
    """Columns of branch i in the stacked weight, bias and embedding."""
    return slice(8 * i, 8 * (i + 1))


def test_default_stage_dims(params):
    assert params.fc1_w.shape == (64, 16)
    assert params.branch_w.shape == (16, 32)
    assert params.branch_b.shape == (32,)
    assert params.out_w.shape == (32, 2)
    assert params.embedding_dim == 32


def test_zero_weights_emit_output_bias(params):
    for t in [params.fc1_w, params.branch_w, params.out_w]:
        t.data[...] = 0.0
    params.out_b.data[...] = [2.5, -1.0]
    rng = np.random.default_rng(1)
    for _ in range(5):
        logits = H.mc_features(Tensor(rng.standard_normal(64)[None]), params)[0][0]
        np.testing.assert_array_equal(logits.data, [2.5, -1.0])


def test_branch_permutation_symmetry(params):
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal(64)[None])
    params.branch_b.data[...] = rng.standard_normal(32)
    base = H.mc_features(x, params)[0].data.copy()

    # branch blocks in the order 2, 0, 3, 1
    cols = np.concatenate([np.arange(32)[block(i)] for i in [2, 0, 3, 1]])
    permuted = H.MCParams(
        fc1_w=params.fc1_w, fc1_b=params.fc1_b,
        branch_w=Tensor(params.branch_w.data[:, cols]),
        branch_b=Tensor(params.branch_b.data[cols]),
        out_w=Tensor(params.out_w.data[cols]),
        out_b=params.out_b,
    )
    np.testing.assert_allclose(H.mc_features(x, permuted)[0].data, base, rtol=1e-12)


def test_no_dead_branch(params):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal(64)[None])
    readout = rng.standard_normal(2)
    logits = H.mc_features(x, params)[0]
    T.backward(T.tsum(T.mul(logits, Tensor(readout))))
    for i in range(4):
        assert np.abs(params.branch_w.grad[:, block(i)]).max() > 0.0
        assert np.abs(params.branch_b.grad[block(i)]).max() > 0.0


def test_linearity_at_zero_bias():
    # biases start at zero, so the head is a composition of linear maps
    params = H.init_mc_params(64, 2, np.random.default_rng(4), dtype=np.float32)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64).astype(np.float32)
    y = rng.standard_normal(64).astype(np.float32)
    a, b = 1.7, -0.4
    lhs = H.mc_features(Tensor((a * x + b * y)[None]), params)[0].data
    rhs = (a * H.mc_features(Tensor(x[None]), params)[0].data
           + b * H.mc_features(Tensor(y[None]), params)[0].data)
    np.testing.assert_allclose(lhs, rhs, atol=1e-5)


def test_embedding_block_order_is_stable(params):
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal(64)[None])
    params.branch_w.data[...] = 0.0
    for i in range(4):
        params.branch_b.data[block(i)] = float(i + 1)
    embedding = H.mc_features(x, params)[1][0]
    for i in range(4):
        np.testing.assert_array_equal(embedding.data[block(i)], np.full(8, i + 1.0))


def test_batched_forward_matches_loop(params):
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((5, 64))
    logits, cat = H.mc_features(Tensor(batch), params)
    assert logits.shape == (5, 2) and cat.shape == (5, 32)
    for i in range(5):
        row = H.mc_features(Tensor(batch[i][None]), params)[0][0]
        np.testing.assert_allclose(logits.data[i], row.data, rtol=1e-12)


def test_ablated_shapes_and_param_count():
    rng = np.random.default_rng(8)
    mc = H.init_mc_params(64, 2, rng, dtype=np.float64)
    ab = H.init_mc_params(64, 2, rng, dtype=np.float64, multi_branch=False)
    logits = H.mc_features(Tensor(rng.standard_normal(64)[None]), ab)[0][0]
    assert logits.shape == (2,)
    mc_total = sum(p.size for p in [mc.fc1_w, mc.fc1_b, mc.branch_w, mc.branch_b,
                                    mc.out_w, mc.out_b])
    ab_total = sum(p.size for p in [ab.fc1_w, ab.fc1_b, ab.out_w, ab.out_b])
    # the branches add a [16, 32] weight and a [32] bias, and widen out_w by 16 rows
    assert mc_total - ab_total == 16 * 32 + 32 + 16 * 2


def test_branch_free_head_is_projection_then_output():
    rng = np.random.default_rng(10)
    params = H.init_mc_params(64, 2, rng, dtype=np.float64, multi_branch=False)
    assert params.branch_w is None and params.branch_b is None
    params.fc1_b.data[...] = rng.standard_normal(16)
    params.out_b.data[...] = rng.standard_normal(2)
    x = rng.standard_normal((5, 64))
    logits, emb = H.mc_features(Tensor(x), params)
    expected_emb = x @ params.fc1_w.data + params.fc1_b.data
    np.testing.assert_allclose(emb.data, expected_emb, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logits.data, expected_emb @ params.out_w.data + params.out_b.data,
                               rtol=0, atol=1e-12)
    # the divisibility check guards the branch split only
    assert H.init_mc_params(20, 2, rng, multi_branch=False).embedding_dim == 5
    with pytest.raises(ValueError):
        H.init_mc_params(20, 2, rng)


def test_gradient_vs_central_differences(params):
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal(64)[None])
    readout = rng.standard_normal(2)
    params.branch_b.data[...] = rng.standard_normal(32)
    probe = [params.fc1_w, params.branch_w, params.branch_b, params.out_w]

    def f(_):
        return T.tsum(T.mul(H.mc_features(x, params)[0], Tensor(readout)))

    assert T.gradcheck(f, probe) < 1e-6


def test_stacked_init_lays_four_glorot_blocks_side_by_side():
    # four [16, 8] Glorot draws, one after another, then side by side: the
    # values a head built of four separate branch weights drew
    params = H.init_mc_params(64, 2, np.random.default_rng(0))
    w = params.branch_w.data
    assert w.dtype == np.float32 and w.flags.c_contiguous
    ref = np.random.default_rng(0)
    T.init_glorot(ref, (64, 16), np.float32)
    blocks = [T.init_glorot(ref, (16, 8), np.float32).data for _ in range(4)]
    np.testing.assert_array_equal(w, np.concatenate(blocks, axis=1))
    np.testing.assert_array_equal(params.out_w.data, T.init_glorot(ref, (32, 2), np.float32).data)


def test_default_model_branch_init_is_pinned():
    w = Model(ModelConfig(), seed=0).head.branch_w.data
    assert (hashlib.sha256(w.tobytes()).hexdigest()
            == "a00bea87267dad4ddad0c3a88ac008dca8f9f5c452651c52024ce8110e23a11a")
