"""Imbalance-aware training loss: focal term plus a correlation discriminator.

The focal term reweights per-sample cross-entropy by class (alpha) and by
confidence ((1-p)^gamma), easing inter-class imbalance. The feature
discriminator (FD) compares the batch's pairwise embedding correlations
against +/-1 label-agreement targets, weighted by per-class attention
derived from a running confusion matrix, with the diagonal erased. Only the
correlation matrix carries gradient; the attention, target, and eraser
matrices are detached batch constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mcvv import tensor as T
from mcvv.tensor import Tensor

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class FocalParams:
    alpha: float = 0.25    # class-1 (MCI) weight; class 0 gets 1 - alpha
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class AdCorreState:
    """Running (true, predicted) counts; the row-normalized diagonal is the
    per-class recall feeding the attention weights."""

    num_class: int = 2
    epsilon: float = 1e-3
    confusion: np.ndarray = field(init=False)

    def __post_init__(self):
        self.confusion = np.zeros((self.num_class, self.num_class), dtype=np.int64)

    def reset(self) -> None:
        self.confusion[...] = 0

    def recall(self) -> np.ndarray:
        """Per-class recall; classes not yet seen read as 0, as their row and
        so their diagonal entry are 0."""
        c = self.confusion
        return np.diagonal(c) / np.maximum(c.sum(axis=1), 1)

    def omega(self) -> np.ndarray:
        return 1.0 - self.recall() + self.epsilon


def update_confusion(state: AdCorreState, predicted, true) -> AdCorreState:
    predicted = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if predicted.shape != true.shape:
        raise ValueError("label lists differ in length")
    k = state.num_class
    if predicted.min(initial=0) < 0 or predicted.max(initial=0) >= k \
            or true.min(initial=0) < 0 or true.max(initial=0) >= k:
        raise ValueError("label out of range")
    np.add.at(state.confusion, (true, predicted), 1)
    return state


@dataclass(frozen=True)
class HPLossParams:
    fd_weight: float = 0.5          # lambda on the discriminator term
    focal: FocalParams | None = field(default_factory=FocalParams)   # None: no focal term

    def __post_init__(self):
        if self.fd_weight < 0.0:
            raise ValueError(f"fd_weight must be >= 0, got {self.fd_weight}")
        if self.focal is None and self.fd_weight == 0.0:
            raise ValueError("loss has neither a focal term nor a discriminator weight")


# -- focal term ---------------------------------------------------------------------


def p_mci(p: Tensor, labels) -> Tensor:
    """Per-sample probability assigned to the true class: p for class 1, 1-p
    for class 0, clamped away from {0, 1} to keep the log finite."""
    if (p.data < 0.0).any() or (p.data > 1.0).any():
        raise ValueError("probabilities outside [0, 1]; upstream numeric failure")
    y = np.asarray(labels, dtype=p.dtype)
    pc = T.clamp(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    # pc * (2y - 1) + (1 - y): pc where y=1, 1-pc where y=0
    return T.add(T.mul(pc, Tensor(2.0 * y - 1.0)), Tensor(1.0 - y))


def focal_loss(p: Tensor, labels, params: FocalParams) -> Tensor:
    """Mean of -alpha_y * (1 - p_true)^gamma * log(p_true) over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    pm = p_mci(p, labels)
    alpha = np.where(labels == 1, params.alpha, 1.0 - params.alpha).astype(p.dtype)
    one = Tensor(np.ones_like(pm.data))
    modulator = T.power(T.sub(one, pm), params.gamma)
    terms = T.mul(T.mul(Tensor(alpha), modulator), T.neg(T.log(pm)))
    return T.tmean(terms)


# -- feature discriminator -------------------------------------------------------------


def beta_matrix(n: int) -> np.ndarray:
    """Diagonal eraser: ones off-diagonal, zeros on the diagonal."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.ones((n, n)) - np.eye(n)


def attention_map(state: AdCorreState, labels) -> np.ndarray:
    """Pairwise class-attention weights: omega(l_i) + omega(l_j)."""
    w = state.omega()[np.asarray(labels, dtype=np.int64)]
    return w[:, None] + w[None, :]


def harmony_matrix(labels) -> np.ndarray:
    """+1 where the pair shares a label, -1 otherwise."""
    lab = np.asarray(labels)
    return np.where(lab[:, None] == lab[None, :], 1.0, -1.0)


def correlation_matrix(embeddings: Tensor) -> Tensor:
    """Pairwise Pearson correlations across feature positions; diagonal is
    exactly 1; a zero-variance embedding correlates 0 with all others."""
    n, d = embeddings.shape
    mean = T.tmean(embeddings, axis=1, keepdims=True)           # [n, 1]
    centered = T.sub(embeddings, T.repeat(mean, d, axis=1))
    sumsq = T.tsum(T.mul(centered, centered), axis=1, keepdims=True)  # [n, 1]

    # zero-variance rows get a unit denominator so their (zero) numerator
    # yields 0 against every other embedding
    degenerate = (sumsq.data == 0.0).astype(embeddings.dtype)
    inv_norm = T.power(T.add(sumsq, Tensor(degenerate)), -0.5)
    unit = T.mul(centered, T.repeat(inv_norm, d, axis=1))
    raw = T.matmul(unit, T.transpose(unit))

    eye = np.eye(n, dtype=embeddings.dtype)
    return T.add(T.mul(raw, Tensor(1.0 - eye)), Tensor(eye))


def fd_loss(embeddings: Tensor, labels, state: AdCorreState) -> Tensor:
    """Weighted mean absolute gap between correlations and label targets:
    sum of beta * Omega * |Phi - CORM| over all pairs, normalized by n^2.
    Gradient flows through CORM only."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n < 2:
        return Tensor(np.zeros((), dtype=embeddings.dtype))

    dtype = embeddings.dtype
    weights = Tensor((beta_matrix(n) * attention_map(state, labels)).astype(dtype))
    phi = Tensor(harmony_matrix(labels).astype(dtype))
    gap = T.tabs(T.sub(phi, correlation_matrix(embeddings)))
    return T.mul(T.tsum(T.mul(weights, gap)), 1.0 / (n * n))


# -- combined loss ------------------------------------------------------------------------


def hp_loss(logits: Tensor, labels, embeddings: Tensor, state: AdCorreState,
            params: HPLossParams) -> Tensor:
    """Focal term (when params.focal is set) plus fd_weight times the
    discriminator, weighted by ``state``, which it only reads."""
    labels = np.asarray(labels, dtype=np.int64)
    loss = None
    if params.focal is not None:
        loss = focal_loss(T.softmax(logits, axis=-1)[:, 1], labels, params.focal)
    if params.fd_weight != 0.0:
        fd = T.mul(fd_loss(embeddings, labels, state), params.fd_weight)
        loss = fd if loss is None else T.add(loss, fd)
    return loss
