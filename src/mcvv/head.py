"""Multi-branch classifier head.

Four parallel linear branches fan out from a shared projection and their
outputs concatenate back before the class logits; every stage is purely
linear plus bias, with no activations in between. Inputs are [B, feature_dim]
rows, one per clip. At the default feature width 64 the stage dims are
64 -> 16 -> [8,8,8,8] -> 32 -> num_class. The ablated variant skips the
branches: 64 -> 16 -> num_class.
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
    branch_w: list[Tensor]             # 4 x [hidden, branch_dim]
    branch_b: list[Tensor]
    out_w: Tensor                      # [4 * branch_dim, num_class]
    out_b: Tensor

    @property
    def branch_dim(self) -> int:
        return self.branch_w[0].shape[1]

    @property
    def embedding_dim(self) -> int:
        return BRANCH_COUNT * self.branch_dim

    @property
    def num_class(self) -> int:
        return self.out_w.shape[1]


@dataclass
class AblatedParams:
    fc1_w: Tensor
    fc1_b: Tensor
    out_w: Tensor                      # [hidden, num_class]
    out_b: Tensor

    @property
    def embedding_dim(self) -> int:
        return self.fc1_w.shape[1]

    @property
    def num_class(self) -> int:
        return self.out_w.shape[1]


def init_mc_params(feature_dim: int, num_class: int, rng, dtype=np.float32) -> MCParams:
    if feature_dim % (2 * BRANCH_COUNT) != 0:
        raise ValueError(f"feature_dim {feature_dim} must be divisible by {2 * BRANCH_COUNT}")
    hidden = feature_dim // 4
    branch = feature_dim // 8
    return MCParams(
        fc1_w=T.init_glorot(rng, (feature_dim, hidden), dtype),
        fc1_b=T.init_zeros(hidden, dtype),
        branch_w=[T.init_glorot(rng, (hidden, branch), dtype) for _ in range(BRANCH_COUNT)],
        branch_b=[T.init_zeros(branch, dtype) for _ in range(BRANCH_COUNT)],
        out_w=T.init_glorot(rng, (BRANCH_COUNT * branch, num_class), dtype),
        out_b=T.init_zeros(num_class, dtype),
    )


def init_ablated_params(feature_dim: int, num_class: int, rng, dtype=np.float32) -> AblatedParams:
    hidden = feature_dim // 4
    return AblatedParams(
        fc1_w=T.init_glorot(rng, (feature_dim, hidden), dtype),
        fc1_b=T.init_zeros(hidden, dtype),
        out_w=T.init_glorot(rng, (hidden, num_class), dtype),
        out_b=T.init_zeros(num_class, dtype),
    )


def mc_features(feature: Tensor, params: MCParams) -> tuple[Tensor, Tensor]:
    """[B, feature_dim] -> logits [B, num_class] plus the concatenated branch
    embedding [B, 4 * branch_dim], branch i at dims [i*branch_dim, (i+1)*branch_dim)."""
    x1 = T.linear(feature, params.fc1_w, params.fc1_b)
    branches = [T.linear(x1, w, b) for w, b in zip(params.branch_w, params.branch_b)]
    cat = T.concat(branches, axis=-1)
    return T.linear(cat, params.out_w, params.out_b), cat


def mc_ablated_features(feature: Tensor, params: AblatedParams) -> tuple[Tensor, Tensor]:
    """[B, feature_dim] -> logits [B, num_class] plus the pre-logit feature
    [B, hidden] used as the embedding in this variant."""
    x1 = T.linear(feature, params.fc1_w, params.fc1_b)
    return T.linear(x1, params.out_w, params.out_b), x1
