"""Multi-branch classifier head.

Four parallel linear branches fan out from a shared projection and their
outputs concatenate back before the class logits; every stage is purely
linear plus bias, with no activations in between. Inputs are [B, feature_dim]
rows, one per clip. At the default feature width 64 the stage dims are
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
    branch_w: list[Tensor]             # 4 x [hidden, branch_dim], or empty
    branch_b: list[Tensor]
    out_w: Tensor                      # [embedding_dim, num_class]
    out_b: Tensor

    @property
    def embedding_dim(self) -> int:
        return self.out_w.shape[0]

    @property
    def num_class(self) -> int:
        return self.out_w.shape[1]


def check_feature_dim(feature_dim: int, multi_branch: bool) -> None:
    """The four branches split feature_dim / 4, so feature_dim must divide by 8."""
    if multi_branch and feature_dim % (2 * BRANCH_COUNT) != 0:
        raise ValueError(f"feature_dim {feature_dim} must be divisible by {2 * BRANCH_COUNT}")


def init_mc_params(feature_dim: int, num_class: int, rng, dtype=np.float32,
                   multi_branch: bool = True) -> MCParams:
    """Head parameters; with ``multi_branch`` False the branch lists are empty
    and the output layer reads the hidden projection directly."""
    check_feature_dim(feature_dim, multi_branch)
    hidden = feature_dim // 4
    branch = feature_dim // 8
    count = BRANCH_COUNT if multi_branch else 0
    embedding_dim = BRANCH_COUNT * branch if multi_branch else hidden
    return MCParams(
        fc1_w=T.init_glorot(rng, (feature_dim, hidden), dtype),
        fc1_b=T.init_zeros(hidden, dtype),
        branch_w=[T.init_glorot(rng, (hidden, branch), dtype) for _ in range(count)],
        branch_b=[T.init_zeros(branch, dtype) for _ in range(count)],
        out_w=T.init_glorot(rng, (embedding_dim, num_class), dtype),
        out_b=T.init_zeros(num_class, dtype),
    )


def mc_features(feature: Tensor, params: MCParams) -> tuple[Tensor, Tensor]:
    """[B, feature_dim] -> logits [B, num_class] plus the embedding
    [B, embedding_dim]: the concatenated branches, branch i at dims
    [i*branch_dim, (i+1)*branch_dim), or the hidden projection when the
    head has no branches."""
    x1 = T.linear(feature, params.fc1_w, params.fc1_b)
    branches = [T.linear(x1, w, b) for w, b in zip(params.branch_w, params.branch_b)]
    emb = T.concat(branches, axis=-1) if branches else x1
    return T.linear(emb, params.out_w, params.out_b), emb
