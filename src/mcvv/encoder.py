"""Factorised spatio-temporal encoder over a batch of clips.

Spatial attention runs over the tokens sharing one temporal index (plus the
clip's class token, broadcast per index), with every (clip, index) pair an
independent row: [B*n_t, S+1, d]. The per-index class-token outputs then
pass through temporal attention with their own class token and a learnable
temporal position embedding, one row per clip: [B, n_t+1, d]. One helper,
`add_class_and_positions`, puts each class token in front and adds the
positions: the clip's, on its projected cubes (`mcvv.model.Model.forward`
calls it), and the temporal ones, on the steps. Blocks are pre-norm: LN ->
sublayer -> residual. After the temporal stage each clip's output vector
takes a residual from the mean of its spatial class tokens and one final
feed-forward block, giving [B, d] features.

A stage passes on only its class-token rows, so its last layer computes only
those, as CaiT's class attention does: LayerNorm, keys and values run over
every row, while the query, attention, output projection, residual and
feed-forward block run on one row per sequence, [b, d]. The math is that of
a full layer whose other rows are dropped; so are the float32 bits whenever
b >= 2 (with b = 1, numpy's matrix-vector kernels may round differently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mcvv import tensor as T
from mcvv.tensor import Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 64
    heads: int = 4
    n_sp: int = 2          # spatial layers
    n_tp: int = 2          # temporal layers
    mlp_hidden: int = 128

    def __post_init__(self):
        if self.d < 1 or self.heads < 1:
            raise ValueError(f"d={self.d} and heads={self.heads} must be >= 1")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if self.n_sp < 1 or self.n_tp < 1:
            raise ValueError("need at least one spatial and one temporal layer")
        if self.mlp_hidden < 1:
            raise ValueError(f"mlp_hidden must be >= 1, got {self.mlp_hidden}")


@dataclass
class AttentionParams:
    ln_gain: Tensor
    ln_bias: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class FeedForwardParams:
    ln_gain: Tensor
    ln_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerParams:
    attn: AttentionParams
    ff: FeedForwardParams


@dataclass
class EncoderParams:
    spatial: list[LayerParams]
    temporal: list[LayerParams]
    temporal_cls: Tensor       # [d]
    temporal_pos: Tensor       # [n_t + 1, d]
    final_ff: FeedForwardParams


def init_attention_params(d: int, rng, dtype) -> AttentionParams:
    return AttentionParams(
        ln_gain=T.init_ones(d, dtype), ln_bias=T.init_zeros(d, dtype),
        wq=T.init_glorot(rng, (d, d), dtype), bq=T.init_zeros(d, dtype),
        wk=T.init_glorot(rng, (d, d), dtype), bk=T.init_zeros(d, dtype),
        wv=T.init_glorot(rng, (d, d), dtype), bv=T.init_zeros(d, dtype),
        wo=T.init_glorot(rng, (d, d), dtype), bo=T.init_zeros(d, dtype),
    )


def init_feed_forward_params(d: int, hidden: int, rng, dtype) -> FeedForwardParams:
    return FeedForwardParams(
        ln_gain=T.init_ones(d, dtype), ln_bias=T.init_zeros(d, dtype),
        w1=T.init_glorot(rng, (d, hidden), dtype), b1=T.init_zeros(hidden, dtype),
        w2=T.init_glorot(rng, (hidden, d), dtype), b2=T.init_zeros(d, dtype),
    )


def init_layer_params(cfg: EncoderConfig, rng, dtype) -> LayerParams:
    return LayerParams(attn=init_attention_params(cfg.d, rng, dtype),
                       ff=init_feed_forward_params(cfg.d, cfg.mlp_hidden, rng, dtype))


def init_encoder_params(cfg: EncoderConfig, n_t: int, rng, dtype=np.float32) -> EncoderParams:
    return EncoderParams(
        spatial=[init_layer_params(cfg, rng, dtype) for _ in range(cfg.n_sp)],
        temporal=[init_layer_params(cfg, rng, dtype) for _ in range(cfg.n_tp)],
        temporal_cls=T.init_normal(rng, (cfg.d,), dtype, INIT_STD),
        temporal_pos=T.init_normal(rng, (n_t + 1, cfg.d), dtype, INIT_STD),
        final_ff=init_feed_forward_params(cfg.d, cfg.mlp_hidden, rng, dtype),
    )


# -- forward passes ---------------------------------------------------------------


def mhsa(x: Tensor, params: AttentionParams, heads: int, cls_only: bool = False) -> Tensor:
    """Pre-norm multi-head self-attention with residual over [b, n, d] rows.

    With ``cls_only`` only the class token (row 0) queries, as in CaiT's class
    attention: keys and values still come from every row, and the output is
    the class row alone, [b, d]."""
    if x.ndim != 3:
        raise T.ShapeError(f"mhsa input must be [b, n, d], got shape {x.shape}")
    b, n, d = x.shape
    dh = d // heads

    h = T.layer_norm(x, params.ln_gain, params.ln_bias)
    k = T.linear(h, params.wk, params.bk)
    v = T.linear(h, params.wv, params.bv)
    if cls_only:
        x, h = x[:, 0, :], h[:, 0, :]
    q = T.linear(h, params.wq, params.bq)

    def split_heads(m):
        return T.transpose(T.reshape(m, (b, -1, heads, dh)), (0, 2, 1, 3))

    q4, k4, v4 = split_heads(q), split_heads(k), split_heads(v)
    # row-major keys, so a lone class-row query rounds as in an all-rows product
    kt = T.contiguous(T.transpose(k4, (0, 1, 3, 2)))
    scores = T.mul(T.matmul(q4, kt), 1.0 / math.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    ctx = T.matmul(attn, v4)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), x.shape)
    return T.add(x, T.linear(ctx, params.wo, params.bo))


def feed_forward(x: Tensor, params: FeedForwardParams) -> Tensor:
    """Pre-norm MLP block with residual: x + W2(gelu(W1(LN(x))))."""
    h = T.layer_norm(x, params.ln_gain, params.ln_bias)
    h = T.gelu(T.linear(h, params.w1, params.b1))
    return T.add(x, T.linear(h, params.w2, params.b2))


def transformer_layer(x: Tensor, layer: LayerParams, heads: int,
                      cls_only: bool = False) -> Tensor:
    return feed_forward(mhsa(x, layer.attn, heads, cls_only), layer.ff)


def encode_stage(x: Tensor, layers: list[LayerParams], heads: int) -> Tensor:
    """Run a stage's layers over [b, n, d] rows and return the class rows,
    [b, d]. Only those leave the stage, so the last layer computes them alone."""
    for layer in layers[:-1]:
        x = transformer_layer(x, layer, heads)
    return transformer_layer(x, layers[-1], heads, cls_only=True)


def add_class_and_positions(x: Tensor, cls_token: Tensor, pos: Tensor) -> Tensor:
    """[B, n, d] rows -> [B, n+1, d]: the class token ``cls_token`` [d]
    prepended to each sequence, the positional embedding ``pos`` [n+1, d]
    added. Both stages start so: the spatial one from a clip's projected
    cubes (see `mcvv.model.Model.forward`), the temporal one from its steps."""
    if x.ndim != 3:
        raise T.ShapeError(f"rows shape {x.shape}, expected (B, n, d)")
    b, n, d = x.shape
    if cls_token.shape != (d,):
        raise T.ShapeError(f"class token shape {cls_token.shape}, expected ({d},)")
    if pos.shape != (n + 1, d):
        raise T.ShapeError(f"positional embedding shape {pos.shape}, expected ({n + 1}, {d})")
    cls = T.repeat(T.reshape(cls_token, (1, 1, d)), b, axis=0)
    return T.add(T.concat([cls, x], axis=1), pos)


def spatial_encode(tokens: Tensor, n_t: int, cfg: EncoderConfig,
                   params: EncoderParams) -> Tensor:
    """Per-temporal-index attention over that index's spatial tokens plus the
    clip's class token: [B, n_t*S+1, d] tokens run as [B*n_t, S+1, d] rows and
    return the [B, n_t, d] class-token outputs, one per index."""
    b, n, d = tokens.shape
    if n_t < 1 or n < n_t + 1 or (n - 1) % n_t:
        raise T.ShapeError(f"{n} tokens do not split into 1 + {n_t} x S")
    n_spatial = (n - 1) // n_t
    cls = T.repeat(T.reshape(tokens[:, 0:1, :], (b, 1, 1, d)), n_t, axis=1)
    rest = T.reshape(tokens[:, 1:, :], (b, n_t, n_spatial, d))    # time-major layout
    x = T.reshape(T.concat([cls, rest], axis=2), (b * n_t, n_spatial + 1, d))
    return T.reshape(encode_stage(x, params.spatial, cfg.heads), (b, n_t, d))


def temporal_encode(steps: Tensor, cfg: EncoderConfig, params: EncoderParams) -> Tensor:
    """Attend across temporal steps [B, n_t, d] behind a temporal class token;
    returns its [B, d] output."""
    x = add_class_and_positions(steps, params.temporal_cls, params.temporal_pos)
    return encode_stage(x, params.temporal, cfg.heads)


def encoder_forward(tokens: Tensor, n_t: int, cfg: EncoderConfig,
                    params: EncoderParams) -> Tensor:
    """[B, d] clip features: spatial stage, temporal stage, residual from the
    mean spatial class token, and a final feed-forward block."""
    spatial_out = spatial_encode(tokens, n_t, cfg, params)
    temporal_out = temporal_encode(spatial_out, cfg, params)
    fused = T.add(temporal_out, T.tmean(spatial_out, axis=1))
    return feed_forward(fused, params.final_ff)
