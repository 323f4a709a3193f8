"""Cube tokenization: carve each clip of a batch into non-overlapping 3D cubes
and embed them.

Shapes carry a leading batch axis: B clips [B,T,H,W,C] -> cubes [B, N, cube]
-> tokens [B, N+1, d], with N = n_t * n_h * n_w. Token order within a clip
is time-major: index = tau * n_h * n_w + row * n_w + col, with each cube
flattened row-major over (t, h, w, C). Trailing frames/pixels that do not
fill a whole cube are discarded. Partitioning is data preparation, done
before the forward. Embedding turns the cubes into the tokens the forward
takes (see `mcvv.model.Model.embed`): inside the training step's graph, or
on evaluation's loader thread, where it records no graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mcvv import tensor as T
from mcvv.tensor import Tensor


@dataclass(frozen=True)
class TubeletConfig:
    t: int          # frames per cube
    h: int          # pixel rows per cube
    w: int          # pixel cols per cube

    def __post_init__(self):
        if min(self.t, self.h, self.w) < 1:
            raise ValueError(f"non-positive tubelet extent in {self}")


def token_counts(cfg: TubeletConfig, frames: int, height: int, width: int) -> tuple[int, int, int]:
    n_t, n_h, n_w = frames // cfg.t, height // cfg.h, width // cfg.w
    if min(n_t, n_h, n_w) < 1:
        raise T.ShapeError(f"clip {frames}x{height}x{width} too small for cubes "
                           f"{cfg.t}x{cfg.h}x{cfg.w}")
    return n_t, n_h, n_w


def tubelet_partition(clips, cfg: TubeletConfig, dtype=None,
                      batch: int | None = None) -> Tensor:
    """B clips -> [B, n_t*n_h*n_w, t*h*w*C] cube tensor (a constant leaf).

    ``clips`` is a [B,T,H,W,C] array or an iterable of B equally shaped
    [T,H,W,C] clips; ``batch`` gives B where the iterable has no length.
    Clips are taken one at a time, and each clip's cubes are written into
    its slot of the output before the next is taken, so an iterable that
    reads clips as it yields them never holds a batch of raw clips. The
    output dtype is ``dtype``, or the first clip's when None.
    """
    if batch is None:
        batch = len(clips)
    if batch < 1:
        raise T.ShapeError(f"a batch needs B >= 1 clips, got B = {batch}")
    out = shape = None
    taken = 0
    for clip in clips:
        clip = np.asarray(clip)
        if out is None:
            shape = clip.shape
            if len(shape) != 4:
                raise T.ShapeError(f"clips must be [T,H,W,C], got shape {shape}")
            frames, height, width, channels = shape
            n_t, n_h, n_w = token_counts(cfg, frames, height, width)
            out = np.empty((batch, n_t * n_h * n_w, cfg.t * cfg.h * cfg.w * channels),
                           dtype=clip.dtype if dtype is None else dtype)
        elif clip.shape != shape:
            raise T.ShapeError(f"clip {taken} has shape {clip.shape}, clip 0 {shape}")
        if taken == batch:
            raise T.ShapeError(f"more than the batch of {batch} clips")
        region = clip[:n_t * cfg.t, :n_h * cfg.h, :n_w * cfg.w, :]
        region = region.reshape(n_t, cfg.t, n_h, cfg.h, n_w, cfg.w, channels)
        out[taken].reshape(n_t, n_h, n_w, cfg.t, cfg.h, cfg.w, channels)[...] = \
            region.transpose(0, 2, 4, 1, 3, 5, 6)
        taken += 1
        del clip, region   # before the iterable reads the next clip
    if taken != batch:
        raise T.ShapeError(f"{taken} clips for a batch of {batch}")
    return Tensor(out)


def embed(cubes: Tensor, proj: Tensor, cls_token: Tensor, pos: Tensor,
          counts: tuple[int, int, int]) -> Tensor:
    """[B, N, cube] cubes -> [B, N+1, d] tokens: project each cube, prepend
    the class token, add the positional embedding."""
    n_t, n_h, n_w = counts
    n_tokens = n_t * n_h * n_w
    d = proj.shape[-1]
    if cubes.ndim != 3 or cubes.shape[1] != n_tokens:
        raise T.ShapeError(f"cubes shape {cubes.shape}, expected (B, {n_tokens}, cube)")
    if cls_token.shape != (d,):
        raise T.ShapeError(f"class token shape {cls_token.shape}, expected ({d},)")
    if pos.shape != (n_tokens + 1, d):
        raise T.ShapeError(f"positional embedding shape {pos.shape}, "
                           f"expected ({n_tokens + 1}, {d})")
    b = cubes.shape[0]
    # Project as one [B*N, cube] matrix: the weight gradient is then one GEMM,
    # with no [B, cube, d] stack of per-clip products to sum.
    flat = T.reshape(cubes, (b * n_tokens, cubes.shape[2]))
    projected = T.reshape(T.matmul(flat, proj), (b, n_tokens, d))
    cls = T.repeat(T.reshape(cls_token, (1, 1, d)), b, axis=0)
    tokens = T.concat([cls, projected], axis=1)
    return T.add(tokens, pos)
