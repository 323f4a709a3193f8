"""Cube tokenization: carve each clip of a batch into non-overlapping 3D cubes
and embed them.

Shapes carry a leading batch axis: B clips [B,T,H,W,C] -> cubes [B, N, cube]
-> projected cubes [B, N, d] -> tokens [B, N+1, d], with
N = n_t * n_h * n_w. Token order within a clip is time-major:
index = tau * n_h * n_w + row * n_w + col, with each cube flattened
row-major over (t, h, w, C). Trailing frames/pixels that do not fill a whole
cube are discarded, so clips of one batch need only cut into the same cubes.
Partitioning is data preparation, done before the forward, into a new array
or a caller's. Embedding takes two steps: `embed` projects each cube, and
`add_class_and_positions` prepends the class token and adds the positional
embedding. Training runs both inside the step's graph (see
`mcvv.model.Model.embed`); evaluation's loader thread projects one clip at a
time and adds the class token and positions once per subject, recording no
graph.
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
                      batch: int | None = None, out: np.ndarray | None = None) -> Tensor:
    """B clips -> [B, n_t*n_h*n_w, t*h*w*C] cube tensor (a constant leaf).

    ``clips`` is a [B,T,H,W,C] array or an iterable of B [T,H,W,C] clips;
    ``batch`` gives B where the iterable has no length. Each clip is cut to
    the region its whole cubes cover, so clips may differ in trailing frames
    and pixels, but not in token counts or channels. Clips are taken one at a
    time, and each clip's cubes are written into its slot of the output
    before the next is taken, so an iterable that reads clips as it yields
    them never holds a batch of raw clips. The output dtype is ``dtype``, or
    the first clip's when None. The cubes are written into ``out`` when it is
    given, a C-contiguous array of the output's shape and dtype, so a caller
    can reuse one array across batches; the tensor then wraps ``out``.
    """
    if batch is None:
        batch = len(clips)
    if batch < 1:
        raise T.ShapeError(f"a batch needs B >= 1 clips, got B = {batch}")
    shape = cut = None
    taken = 0
    for clip in clips:
        clip = np.asarray(clip)
        if clip.ndim != 4:
            raise T.ShapeError(f"clips must be [T,H,W,C], got shape {clip.shape}")
        frames, height, width, channels = clip.shape
        n_t, n_h, n_w = token_counts(cfg, frames, height, width)
        if cut is None:
            shape, cut = clip.shape, (n_t, n_h, n_w, channels)
            expected = (batch, n_t * n_h * n_w, cfg.t * cfg.h * cfg.w * channels)
            dtype = clip.dtype if dtype is None else np.dtype(dtype)
            if out is None:
                out = np.empty(expected, dtype=dtype)
            elif (out.shape, out.dtype) != (expected, dtype) or not out.flags.c_contiguous:
                raise T.ShapeError(f"out is {out.dtype} {out.shape}, expected a contiguous "
                                   f"{dtype} {expected}")
        elif (n_t, n_h, n_w, channels) != cut:
            raise T.ShapeError(f"clip {taken} has shape {clip.shape}, clip 0 {shape}: as "
                               f"(n_t, n_h, n_w, C) they cut into {(n_t, n_h, n_w, channels)} "
                               f"and {cut}")
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


def embed(cubes: Tensor, proj: Tensor) -> Tensor:
    """[B, N, cube] cubes -> [B, N, d]: each cube projected by ``proj``
    [cube, d]. The first step of embedding; `add_class_and_positions` is the
    second."""
    if cubes.ndim != 3:
        raise T.ShapeError(f"cubes shape {cubes.shape}, expected (B, N, cube)")
    b, n_tokens, cube = cubes.shape
    # Project as one [B*N, cube] matrix: the weight gradient is then one GEMM,
    # with no [B, cube, d] stack of per-clip products to sum.
    flat = T.reshape(cubes, (b * n_tokens, cube))
    return T.reshape(T.matmul(flat, proj), (b, n_tokens, proj.shape[-1]))


def add_class_and_positions(projected: Tensor, cls_token: Tensor, pos: Tensor) -> Tensor:
    """[B, N, d] projected cubes (see `embed`) -> [B, N+1, d] tokens: the
    class token prepended, the positional embedding added."""
    if projected.ndim != 3:
        raise T.ShapeError(f"projected cubes shape {projected.shape}, expected (B, N, d)")
    b, n_tokens, d = projected.shape
    if cls_token.shape != (d,):
        raise T.ShapeError(f"class token shape {cls_token.shape}, expected ({d},)")
    if pos.shape != (n_tokens + 1, d):
        raise T.ShapeError(f"positional embedding shape {pos.shape}, "
                           f"expected ({n_tokens + 1}, {d})")
    cls = T.repeat(T.reshape(cls_token, (1, 1, d)), b, axis=0)
    return T.add(T.concat([cls, projected], axis=1), pos)
