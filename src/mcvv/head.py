"""Multi-branch classifier head.

Four parallel linear branches fan out from a shared projection, and the class
logits read their outputs side by side. No stage has an activation, so the
branches are one linear layer whose weight and bias hold branch i in columns
[i*branch_dim, (i+1)*branch_dim), and the whole head is affine. Inputs are
[B, feature_dim] rows, one per clip. At feature width 64 the stage dims are
64 -> 16 -> [8,8,8,8] -> 32 -> num_class. The ablation is the same head
without branches: 64 -> 16 -> num_class, with the projection as embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mcvv import tensor as T
from mcvv.tensor import Tensor

BRANCH_COUNT = 4


@dataclass
class MCParams:
    fc1_w: Tensor                      # [feature_dim, hidden]
    fc1_b: Tensor
    branch_w: Tensor | None            # [hidden, 4 * branch_dim], or None without branches
    branch_b: Tensor | None            # [4 * branch_dim]
    out_w: Tensor                      # [embedding_dim, num_class]
    out_b: Tensor

    @property
    def embedding_dim(self) -> int:
        return self.out_w.shape[0]


def check_feature_dim(feature_dim: int, multi_branch: bool) -> None:
    """The four branches split feature_dim / 4, so feature_dim must divide by 8."""
    if multi_branch and feature_dim % (2 * BRANCH_COUNT) != 0:
        raise ValueError(f"feature_dim {feature_dim} must be divisible by {2 * BRANCH_COUNT}")


def init_mc_params(feature_dim: int, num_class: int, rng, dtype=np.float32,
                   multi_branch: bool = True) -> MCParams:
    """Head parameters; without ``multi_branch`` the branch weight and bias are
    None and the output layer reads the hidden projection. The branch blocks
    are four [hidden, branch_dim] Glorot draws in turn, laid side by side."""
    check_feature_dim(feature_dim, multi_branch)
    hidden, branch = feature_dim // 4, feature_dim // 8
    fc1_w = T.init_glorot(rng, (feature_dim, hidden), dtype)
    branch_w = branch_b = None
    if multi_branch:
        blocks = T.init_glorot(rng, (BRANCH_COUNT, hidden, branch), dtype).data
        branch_w = Tensor(blocks.transpose(1, 0, 2).reshape(hidden, -1), requires_grad=True)
        branch_b = T.init_zeros(BRANCH_COUNT * branch, dtype)
    embedding_dim = hidden if branch_w is None else branch_w.shape[1]
    return MCParams(fc1_w=fc1_w, fc1_b=T.init_zeros(hidden, dtype),
                    branch_w=branch_w, branch_b=branch_b,
                    out_w=T.init_glorot(rng, (embedding_dim, num_class), dtype),
                    out_b=T.init_zeros(num_class, dtype))


def mc_features(feature: Tensor, params: MCParams) -> tuple[Tensor, Tensor]:
    """[B, feature_dim] -> logits [B, num_class] plus the embedding
    [B, embedding_dim]: the four branch outputs side by side, or the hidden
    projection when the head has no branches."""
    emb = T.linear(feature, params.fc1_w, params.fc1_b)
    if params.branch_w is not None:
        emb = T.linear(emb, params.branch_w, params.branch_b)
    return T.linear(emb, params.out_w, params.out_b), emb
