"""Factorised encoder: attention behavior, stage independence, gradients, speed."""

import time

import numpy as np
import pytest

from mcvv import encoder as E
from mcvv import tensor as T
from mcvv import tubelet as TB
from mcvv.model import Model, ModelConfig, _named_tensors
from mcvv.tensor import Tensor


def small_cfg(**kw):
    defaults = dict(d=8, heads=2, n_sp=1, n_tp=1, mlp_hidden=16)
    defaults.update(kw)
    return E.EncoderConfig(**defaults)


def make_seq(rng, n_t=3, n_h=2, n_w=2, d=8, requires_grad=False):
    n = n_t * n_h * n_w + 1
    return Tensor(rng.standard_normal((1, n, d)), requires_grad=requires_grad)


def zero_sublayers(params: E.EncoderParams) -> None:
    """Zero every projection so each block reduces to its residual path."""
    for layer in params.spatial + params.temporal:
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            getattr(layer.attn, name).data[...] = 0.0
        for name in ("w1", "b1", "w2", "b2"):
            getattr(layer.ff, name).data[...] = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        getattr(params.final_ff, name).data[...] = 0.0


# -- mhsa ---------------------------------------------------------------------------


def test_mhsa_single_token_weight_is_one():
    rng = np.random.default_rng(0)
    cfg = small_cfg()
    p = E.init_attention_params(cfg.d, rng, np.float64)
    x = Tensor(rng.standard_normal((1, 1, cfg.d)))
    out = E.mhsa(x, p, cfg.heads)
    # softmax over one element is exactly 1, so the context is just the value path
    h = (x.data - x.data.mean(-1, keepdims=True)) / np.sqrt(
        x.data.var(-1, keepdims=True) + 1e-5)
    h = h * p.ln_gain.data + p.ln_bias.data
    v = h @ p.wv.data + p.bv.data
    expected = x.data + v @ p.wo.data + p.bo.data
    np.testing.assert_allclose(out.data, expected, rtol=1e-10)


def test_mhsa_permutation_equivariance():
    rng = np.random.default_rng(1)
    cfg = small_cfg()
    p = E.init_attention_params(cfg.d, rng, np.float64)
    x = rng.standard_normal((5, cfg.d))
    perm = rng.permutation(5)
    out = E.mhsa(Tensor(x[None]), p, cfg.heads)[0]
    out_perm = E.mhsa(Tensor(x[perm][None]), p, cfg.heads)[0]
    np.testing.assert_allclose(out_perm.data, out.data[perm], rtol=1e-10)


def test_mhsa_gradient():
    rng = np.random.default_rng(2)
    cfg = small_cfg()
    p = E.init_attention_params(cfg.d, rng, np.float64)
    x = Tensor(rng.standard_normal((1, 4, cfg.d)))
    w = rng.standard_normal((4, cfg.d))
    params = [p.wq, p.wk, p.wv, p.wo, p.ln_gain, p.bv]

    def f(_):
        return T.tsum(T.mul(E.mhsa(x, p, cfg.heads), Tensor(w)))

    assert T.gradcheck(f, params) < 1e-5


def test_residual_identity_when_projections_zero():
    rng = np.random.default_rng(3)
    cfg = small_cfg()
    layer = E.init_layer_params(cfg, rng, np.float64)
    for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
        getattr(layer.attn, name).data[...] = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        getattr(layer.ff, name).data[...] = 0.0
    x = Tensor(rng.standard_normal((1, 6, cfg.d)))
    out = E.transformer_layer(x, layer, cfg.heads)
    np.testing.assert_array_equal(out.data, x.data)


# -- class token and positions ---------------------------------------------------------------


@pytest.mark.parametrize("rows, cls, pos, message", [
    ((2, 3, 4, 1), (4,), (4, 4), r"rows shape \(2, 3, 4, 1\)"),
    ((2, 3, 4), (5,), (4, 4), r"class token shape \(5,\), expected \(4,\)"),
    ((2, 3, 4), (4,), (3, 4), r"positional embedding shape \(3, 4\), expected \(4, 4\)"),
])
def test_class_and_positions_reject_a_misfit(rows, cls, pos, message):
    with pytest.raises(T.ShapeError, match=message):
        E.add_class_and_positions(Tensor(np.zeros(rows)), Tensor(np.zeros(cls)),
                                  Tensor(np.zeros(pos)))


# -- spatial stage -------------------------------------------------------------------------


def test_spatial_encode_shape_and_single_step():
    rng = np.random.default_rng(4)
    cfg = small_cfg()
    params = E.init_encoder_params(cfg, n_t=1, rng=rng, dtype=np.float64)
    seq = make_seq(rng, n_t=1, d=cfg.d)
    out = E.spatial_encode(seq, 1, cfg, params)[0]
    assert out.shape == (1, cfg.d)


def test_spatial_encode_zero_weights_passes_class_token():
    rng = np.random.default_rng(5)
    cfg = small_cfg()
    params = E.init_encoder_params(cfg, n_t=3, rng=rng, dtype=np.float64)
    zero_sublayers(params)
    seq = make_seq(rng, n_t=3, d=cfg.d)
    out = E.spatial_encode(seq, 3, cfg, params)[0]
    for tau in range(3):
        np.testing.assert_array_equal(out.data[tau], seq.data[0, 0])


def test_spatial_encode_per_index_independence():
    rng = np.random.default_rng(6)
    cfg = small_cfg(n_sp=2)
    params = E.init_encoder_params(cfg, n_t=3, rng=rng, dtype=np.float64)
    seq = make_seq(rng, n_t=3, d=cfg.d)
    base = E.spatial_encode(seq, 3, cfg, params).data[0].copy()

    tau = 1
    n_spatial = 2 * 2     # make_seq's n_h * n_w
    tokens2 = seq.data[0].copy()
    lo = 1 + tau * n_spatial
    tokens2[lo:lo + n_spatial] += rng.standard_normal((n_spatial, cfg.d))
    seq2 = Tensor(tokens2[None])
    changed = E.spatial_encode(seq2, 3, cfg, params).data[0]

    np.testing.assert_array_equal(changed[0], base[0])
    np.testing.assert_array_equal(changed[2], base[2])
    assert not np.allclose(changed[tau], base[tau])


# -- temporal stage ------------------------------------------------------------------------------


def test_temporal_encode_order_sensitivity():
    rng = np.random.default_rng(7)
    cfg = small_cfg()
    params = E.init_encoder_params(cfg, n_t=4, rng=rng, dtype=np.float64)
    steps = rng.standard_normal((4, cfg.d))
    fwd = E.temporal_encode(Tensor(steps[None]), cfg, params)
    rev = E.temporal_encode(Tensor(steps[::-1].copy()[None]), cfg, params)
    assert not np.allclose(fwd.data, rev.data)


def test_temporal_encode_wrong_step_count():
    rng = np.random.default_rng(8)
    cfg = small_cfg()
    params = E.init_encoder_params(cfg, n_t=4, rng=rng, dtype=np.float64)
    with pytest.raises(T.ShapeError, match=r"positional embedding shape \(5, 8\), "
                                           r"expected \(4, 8\)"):
        E.temporal_encode(Tensor(rng.standard_normal((1, 3, cfg.d))), cfg, params)


@pytest.mark.parametrize("n_sp, n_tp", [(1, 1), (2, 2)])
def test_gradient_through_both_stages(n_sp, n_tp):
    # at 1+1 every layer is a stage's last, so 2+2 keeps all-rows layers checked too
    rng = np.random.default_rng(9)
    cfg = small_cfg(n_sp=n_sp, n_tp=n_tp)
    params = E.init_encoder_params(cfg, n_t=2, rng=rng, dtype=np.float64)
    seq = make_seq(rng, n_t=2, n_h=1, n_w=2, d=cfg.d)
    w = rng.standard_normal(cfg.d)
    probe = [params.spatial[0].attn.wq, params.spatial[-1].attn.wq,
             params.spatial[-1].ff.w1, params.temporal[0].attn.wv,
             params.temporal[-1].attn.wk, params.temporal_cls,
             params.temporal_pos, params.final_ff.w2]

    def f(_):
        return T.tsum(T.mul(E.encoder_forward(seq, 2, cfg, params), Tensor(w)))

    assert T.gradcheck(f, probe) < 1e-4


# -- class-row last layers -------------------------------------------------------------------


@pytest.fixture
def all_rows(monkeypatch):
    """Run every layer over all rows, slicing the class row off a stage's last
    layer afterwards: the reference the class-row layers must match."""
    real = E.transformer_layer

    def every_row(x, layer, heads, cls_only=False):
        out = real(x, layer, heads)
        return out[:, 0, :] if cls_only else out

    def use():
        monkeypatch.setattr(E, "transformer_layer", every_row)

    return use


def test_class_row_probabilities_match_all_rows_bit_for_bit(all_rows):
    # a 12-clip subject as evaluation scores it, and a 16-clip training batch
    model = Model(ModelConfig(), seed=14)
    rng = np.random.default_rng(15)
    tokens = [model.embed(model.cubes(rng.random((b, 16, 64, 64, 3), dtype=np.float32)))
              for b in (12, 16)]
    class_row = [model.clip_probability(x) for x in tokens]
    all_rows()
    for x, probs in zip(tokens, class_row):
        assert np.array_equal(probs, model.clip_probability(x))


def test_class_row_gradients_match_all_rows(all_rows):
    rng = np.random.default_rng(16)
    cfg = E.EncoderConfig()   # 2+2 layers
    params = E.init_encoder_params(cfg, n_t=3, rng=rng, dtype=np.float64)
    seq = make_seq(rng, n_t=3, d=cfg.d, requires_grad=True)
    w = Tensor(rng.standard_normal((1, cfg.d)))
    named = [("tokens", seq)] + _named_tensors("encoder", params)

    def grads():
        T.zero_grads([p for _, p in named])
        T.backward(T.tsum(T.mul(E.encoder_forward(seq, 3, cfg, params), w)))
        return [p.grad for _, p in named]

    class_row = grads()
    all_rows()
    for (name, _), g, ref in zip(named, class_row, grads()):
        if name.endswith(".bk"):
            # softmax cancels a key bias, so its gradient is round-off alone
            assert np.abs(g).max() < 1e-14 and np.abs(ref).max() < 1e-14, name
            continue
        # the tolerance scales with the whole gradient: an entry that cancels
        # to near 0 keeps only round-off, whose order the row count changes
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(),
                                   err_msg=name)


def test_mhsa_class_row_gradient():
    rng = np.random.default_rng(17)
    cfg = small_cfg()
    p = E.init_attention_params(cfg.d, rng, np.float64)
    x = Tensor(rng.standard_normal((2, 4, cfg.d)), requires_grad=True)
    w = rng.standard_normal((2, cfg.d))
    params = [x, p.wq, p.bq, p.wk, p.wv, p.wo, p.ln_gain, p.ln_bias, p.bv]

    def f(_):
        return T.tsum(T.mul(E.mhsa(x, p, cfg.heads, cls_only=True), Tensor(w)))

    assert E.mhsa(x, p, cfg.heads, cls_only=True).shape == (2, cfg.d)
    assert T.gradcheck(f, params) < 1e-5


# -- full encoder ----------------------------------------------------------------------------------


def test_encoder_forward_shape_and_determinism():
    rng = np.random.default_rng(10)
    cfg = small_cfg()
    params = E.init_encoder_params(cfg, n_t=3, rng=rng, dtype=np.float64)
    seq = make_seq(np.random.default_rng(11), n_t=3, d=cfg.d)
    out1 = E.encoder_forward(seq, 3, cfg, params)[0]
    out2 = E.encoder_forward(seq, 3, cfg, params)[0]
    assert out1.shape == (cfg.d,)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_encoder_temporal_dim_variants_run():
    # n_t in {8, 4, 2} from cube depth {2, 4, 8} over 16 frames
    rng = np.random.default_rng(12)
    cfg = small_cfg()
    for n_t in (8, 4, 2):
        params = E.init_encoder_params(cfg, n_t=n_t, rng=rng, dtype=np.float64)
        seq = make_seq(rng, n_t=n_t, d=cfg.d)
        assert E.encoder_forward(seq, n_t, cfg, params)[0].shape == (cfg.d,)


def test_desk_scale_forward_backward_speed():
    rng = np.random.default_rng(13)
    cfg = E.EncoderConfig(d=64, heads=4, n_sp=2, n_tp=2, mlp_hidden=128)
    tub = TB.TubeletConfig(t=4, h=16, w=16)
    clip = rng.random((16, 64, 64, 3)).astype(np.float32)
    counts = TB.token_counts(tub, 16, 64, 64)
    params = E.init_encoder_params(cfg, n_t=counts[0], rng=rng, dtype=np.float32)
    proj = Tensor(rng.normal(0, 0.02, (4 * 16 * 16 * 3, 64)).astype(np.float32),
                  requires_grad=True)
    cls_token = Tensor(rng.normal(0, 0.02, 64).astype(np.float32), requires_grad=True)
    n_tokens = counts[0] * counts[1] * counts[2]
    pos = Tensor(rng.normal(0, 0.02, (n_tokens + 1, 64)).astype(np.float32),
                 requires_grad=True)

    start = time.perf_counter()
    cubes = TB.tubelet_partition(clip[None], tub)
    seq = E.add_class_and_positions(TB.embed(cubes, proj), cls_token, pos)
    out = E.encoder_forward(seq, counts[0], cfg, params)
    T.backward(T.tsum(T.mul(out, out)))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"forward+backward took {elapsed:.2f}s"
