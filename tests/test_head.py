"""Multi-branch head: structure, linearity, branch symmetry, ablation."""

import numpy as np
import pytest

from mcvv import head as H
from mcvv import tensor as T
from mcvv.tensor import Tensor


@pytest.fixture
def params():
    return H.init_mc_params(64, 2, np.random.default_rng(0), dtype=np.float64)


def test_default_stage_dims(params):
    assert params.fc1_w.shape == (64, 16)
    assert len(params.branch_w) == 4
    assert all(w.shape == (16, 8) for w in params.branch_w)
    assert params.out_w.shape == (32, 2)
    assert params.embedding_dim == 32
    assert params.num_class == 2


def test_zero_weights_emit_output_bias(params):
    for t in [params.fc1_w, params.out_w] + params.branch_w:
        t.data[...] = 0.0
    params.out_b.data[...] = [2.5, -1.0]
    rng = np.random.default_rng(1)
    for _ in range(5):
        logits = H.mc_features(Tensor(rng.standard_normal(64)[None]), params)[0][0]
        np.testing.assert_array_equal(logits.data, [2.5, -1.0])


def test_branch_permutation_symmetry(params):
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal(64)[None])
    base = H.mc_features(x, params)[0].data.copy()

    perm = [2, 0, 3, 1]
    permuted = H.MCParams(
        fc1_w=params.fc1_w, fc1_b=params.fc1_b,
        branch_w=[params.branch_w[i] for i in perm],
        branch_b=[params.branch_b[i] for i in perm],
        out_w=Tensor(np.concatenate([params.out_w.data[8 * i:8 * (i + 1)] for i in perm])),
        out_b=params.out_b,
    )
    np.testing.assert_allclose(H.mc_features(x, permuted)[0].data, base, rtol=1e-12)


def test_no_dead_branch(params):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal(64)[None])
    readout = rng.standard_normal(2)
    logits = H.mc_features(x, params)[0]
    T.backward(T.tsum(T.mul(logits, Tensor(readout))))
    for w in params.branch_w:
        assert np.abs(w.grad).max() > 0.0


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


def test_concat_ordering_is_stable(params):
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal(64)[None])
    for i, (w, b) in enumerate(zip(params.branch_w, params.branch_b)):
        w.data[...] = 0.0
        b.data[...] = float(i + 1)
    embedding = H.mc_features(x, params)[1][0]
    for i in range(4):
        np.testing.assert_array_equal(embedding.data[8 * i:8 * (i + 1)], np.full(8, i + 1.0))


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
    mc_total = sum(p.size for p in [mc.fc1_w, mc.fc1_b, mc.out_w, mc.out_b]
                   + mc.branch_w + mc.branch_b)
    ab_total = sum(p.size for p in [ab.fc1_w, ab.fc1_b, ab.out_w, ab.out_b])
    assert ab_total < mc_total


def test_branch_free_head_is_projection_then_output():
    rng = np.random.default_rng(10)
    params = H.init_mc_params(64, 2, rng, dtype=np.float64, multi_branch=False)
    assert params.branch_w == [] and params.branch_b == []
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
    probe = [params.fc1_w, params.branch_w[0], params.branch_w[3], params.out_w]

    def f(_):
        return T.tsum(T.mul(H.mc_features(x, params)[0], Tensor(readout)))

    assert T.gradcheck(f, probe) < 1e-6
