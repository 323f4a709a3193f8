"""Cube tokenization: carve each clip of a batch into non-overlapping 3D cubes
and embed them.

Shapes carry a leading batch axis: B clips [B,T,H,W,C] -> cubes [B, N, cube]
-> projected cubes [B, N, d], with N = n_t * n_h * n_w. Token order within a
clip is time-major: index = tau * n_h * n_w + row * n_w + col, with each cube
flattened row-major over (t, h, w, C). Trailing frames/pixels that do not fill
a whole cube are discarded, so clips of one batch need only cut into the same
cubes. Partitioning is data preparation, done before the forward; it only
moves values, so it does not check them. `embed` projects each cube with one
`tensor.linear`, which checks the projected values. The class token and the
positional embedding join in the model's forward
(`mcvv.encoder.add_class_and_positions`).
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
    """B clips -> [B, n_t*n_h*n_w, t*h*w*C] cube tensor (a constant).

    ``clips`` is a [B,T,H,W,C] array or an iterable of B [T,H,W,C] clips;
    ``batch`` gives B where the iterable has no length. Each clip is cut to
    the region its whole cubes cover, so clips may differ in trailing frames
    and pixels, but not in token counts or channels. Clips are taken one at a
    time, and each clip's cubes are written into its slot of the output
    before the next is taken, so an iterable that reads clips as it yields
    them never holds a batch of raw clips. The output dtype is ``dtype``, or
    the first clip's when None; float64 when that is not a float dtype the
    engine supports. With ``out``, a [B, N, cube] array whose first extent
    gives B, the cubes are written into it, in its dtype, and the result
    wraps it.
    Partitioning only moves values, so, like `tensor.reshape`, it does not
    check them for NaN/Inf: a non-finite clip is caught where `embed`
    projects it.
    """
    if out is not None:
        batch = len(out)
    elif batch is None:
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
            cubes = (n_t * n_h * n_w, cfg.t * cfg.h * cfg.w * channels)
            if out is None:
                dtype = clip.dtype if dtype is None else np.dtype(dtype)
                if dtype not in (np.float32, np.float64):
                    dtype = np.dtype(np.float64)   # as `Tensor` converts any other dtype
                out = np.empty((batch, *cubes), dtype)
            elif out.shape[1:] != cubes:
                raise T.ShapeError(f"clip 0 of shape {clip.shape} cuts into {cubes} cubes, "
                                   f"out holds {out.shape[1:]}")
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
    return cube_constant(out)


def cube_constant(cubes: np.ndarray) -> Tensor:
    """A [B, N, cube] array of cubes, as `tubelet_partition` writes them, as
    the constant it returns."""
    return Tensor._from_op(cubes, (), None, "partition")


def embed(cubes: Tensor, proj: Tensor) -> Tensor:
    """[B, N, cube] cubes -> [B, N, d]: each cube projected by ``proj``
    [cube, d], as one `tensor.linear` (one [B*N, cube] GEMM)."""
    if cubes.ndim != 3:
        raise T.ShapeError(f"cubes shape {cubes.shape}, expected (B, N, cube)")
    return T.linear(cubes, proj)
