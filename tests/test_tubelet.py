"""Cube tokenization: counts vs brute force, partition bijection, embedding."""

import weakref

import numpy as np
import pytest

from mcvv import encoder as E
from mcvv import tensor as T
from mcvv import tubelet as TB
from mcvv.tensor import Tensor


def brute_force_cube_count(frames, height, width, t, h, w):
    count = 0
    for _ in range(0, frames - t + 1, t):
        for _ in range(0, height - h + 1, h):
            for _ in range(0, width - w + 1, w):
                count += 1
    return count


def test_token_counts_documented():
    cfg = TB.TubeletConfig(t=4, h=16, w=16)
    assert TB.token_counts(cfg, 16, 64, 64) == (4, 4, 4)
    assert TB.token_counts(TB.TubeletConfig(t=2, h=16, w=16), 16, 64, 64)[0] == 8
    assert TB.token_counts(TB.TubeletConfig(t=8, h=16, w=16), 16, 64, 64)[0] == 2
    assert TB.token_counts(TB.TubeletConfig(t=16, h=16, w=16), 16, 64, 64)[0] == 1


def test_token_counts_zero_rejected():
    with pytest.raises(T.ShapeError):
        TB.token_counts(TB.TubeletConfig(t=32, h=4, w=4), 16, 64, 64)


def test_token_counts_vs_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        frames, height, width = rng.integers(2, 24, size=3)
        t = int(rng.integers(1, frames + 1))
        h = int(rng.integers(1, height + 1))
        w = int(rng.integers(1, width + 1))
        cfg = TB.TubeletConfig(t=t, h=h, w=w)
        n_t, n_h, n_w = TB.token_counts(cfg, frames, height, width)
        assert n_t * n_h * n_w == brute_force_cube_count(frames, height, width, t, h, w)


def _unpartition(flat, cfg, counts, channels):
    n_t, n_h, n_w = counts
    cubes = flat.reshape(n_t, n_h, n_w, cfg.t, cfg.h, cfg.w, channels)
    return cubes.transpose(0, 3, 1, 4, 2, 5, 6).reshape(
        n_t * cfg.t, n_h * cfg.h, n_w * cfg.w, channels)


def test_partition_reconstructs_covered_region():
    rng = np.random.default_rng(1)
    for _ in range(25):
        frames, height, width = (int(x) for x in rng.integers(2, 20, size=3))
        cfg = TB.TubeletConfig(t=int(rng.integers(1, frames + 1)),
                               h=int(rng.integers(1, height + 1)),
                               w=int(rng.integers(1, width + 1)))
        clip = rng.random((frames, height, width, 3))
        counts = TB.token_counts(cfg, frames, height, width)
        flat = TB.tubelet_partition(clip[None], cfg)
        rebuilt = _unpartition(flat.data[0], cfg, counts, 3)
        n_t, n_h, n_w = counts
        np.testing.assert_array_equal(
            rebuilt, clip[:n_t * cfg.t, :n_h * cfg.h, :n_w * cfg.w, :])


def test_partition_constant_clip():
    clip = np.full((8, 8, 8, 3), 0.7)
    out = TB.tubelet_partition(clip[None], TB.TubeletConfig(t=2, h=4, w=4))
    assert (out.data == 0.7).all()


def test_partition_single_cube_is_flattened_clip():
    rng = np.random.default_rng(2)
    clip = rng.random((4, 6, 5, 2))
    out = TB.tubelet_partition(clip[None], TB.TubeletConfig(t=4, h=6, w=5))[0]
    assert out.shape == (1, 4 * 6 * 5 * 2)
    np.testing.assert_array_equal(out.data[0], clip.reshape(-1))


def test_partition_time_major_order():
    # clip where pixel value encodes the frame index
    frames = 6
    clip = np.zeros((frames, 4, 4, 1))
    for k in range(frames):
        clip[k] = k
    cfg = TB.TubeletConfig(t=2, h=2, w=2)
    out = TB.tubelet_partition(clip[None], cfg)[0]   # n_t=3, n_h=2, n_w=2 -> 12 cubes
    # cubes 0..3 come from frames 0-1, cubes 4..7 from frames 2-3, ...
    for idx in range(12):
        tau = idx // 4
        assert set(np.unique(out.data[idx])) == {2 * tau, 2 * tau + 1}


def _clips(n, shape=(8, 8, 8, 3)):
    rng = np.random.default_rng(5)
    return [rng.random(shape).astype(np.float32) for _ in range(n)]


def test_partition_from_generator_equals_list_and_array():
    cfg = TB.TubeletConfig(t=4, h=4, w=4)
    clips = _clips(3)
    from_list = TB.tubelet_partition(clips, cfg)
    from_generator = TB.tubelet_partition((c for c in clips), cfg, batch=3)
    from_array = TB.tubelet_partition(np.stack(clips), cfg)
    for other in (from_generator, from_array):
        assert other.dtype == from_list.dtype == np.float32
        np.testing.assert_array_equal(other.data, from_list.data)
    as64 = TB.tubelet_partition((c for c in clips), cfg, np.float64, batch=3)
    np.testing.assert_array_equal(as64.data, from_list.data.astype(np.float64))


def test_partition_writes_into_out_and_wraps_it():
    cfg = TB.TubeletConfig(t=4, h=4, w=4)
    clips = _clips(3)
    out = np.full((5, 8, 192), np.nan)   # rows 1-3 of a larger float64 block
    cubes = TB.tubelet_partition((c for c in clips), cfg, out=out[1:4])
    assert cubes.data.base is out and cubes.dtype == np.float64
    np.testing.assert_array_equal(out[1:4], TB.tubelet_partition(clips, cfg, np.float64).data)
    assert np.isnan(out[[0, 4]]).all()
    with pytest.raises(T.ShapeError, match=r"cuts into \(8, 192\) cubes, out holds \(8, 96\)"):
        TB.tubelet_partition(clips, cfg, out=np.empty((3, 8, 96)))
    with pytest.raises(T.ShapeError, match="more than the batch of 2 clips"):
        TB.tubelet_partition(clips, cfg, out=np.empty((2, 8, 192)))


def test_partition_takes_one_clip_at_a_time():
    # when a clip is read, every clip before it has been partitioned and dropped
    refs = []

    def reading():
        rng = np.random.default_rng(6)
        for _ in range(4):
            assert all(ref() is None for ref in refs)
            clip = rng.random((8, 8, 8, 3))
            refs.append(weakref.ref(clip))
            yield clip
            del clip

    TB.tubelet_partition(reading(), TB.TubeletConfig(t=4, h=4, w=4), batch=4)
    assert len(refs) == 4


@pytest.mark.parametrize("as_generator", [False, True])
def test_partition_rejects_mixed_shapes(as_generator):
    clips = _clips(2) + _clips(1, shape=(8, 8, 4, 3))
    source = (c for c in clips) if as_generator else clips
    with pytest.raises(T.ShapeError, match=r"clip 2 has shape \(8, 8, 4, 3\)"):
        TB.tubelet_partition(source, TB.TubeletConfig(t=4, h=4, w=4), batch=3)


def test_partition_cuts_each_clip_to_its_cubes():
    # trailing frames and pixels that fill no cube may differ within a batch
    cfg = TB.TubeletConfig(t=4, h=4, w=4)
    clips = _clips(2) + _clips(1, shape=(11, 9, 10, 3))
    np.testing.assert_array_equal(TB.tubelet_partition(clips, cfg).data,
                                  TB.tubelet_partition([c[:8, :8, :8] for c in clips], cfg).data)


@pytest.mark.parametrize("n,batch", [(2, 3), (4, 3), (0, 0)])
def test_partition_rejects_a_clip_count_other_than_the_batch(n, batch):
    with pytest.raises(T.ShapeError):
        TB.tubelet_partition((c for c in _clips(n)), TB.TubeletConfig(t=4, h=4, w=4),
                             batch=batch)


def _embed_setup(dtype=np.float64, requires_grad=False):
    rng = np.random.default_rng(3)
    cfg = TB.TubeletConfig(t=2, h=2, w=2)
    clip = rng.random((4, 4, 4, 3))
    counts = TB.token_counts(cfg, 4, 4, 4)
    cubes = TB.tubelet_partition(clip.astype(dtype)[None], cfg)
    n = counts[0] * counts[1] * counts[2]
    proj = Tensor(rng.standard_normal((24, 5)).astype(dtype), requires_grad=requires_grad)
    cls_token = Tensor(rng.standard_normal(5).astype(dtype), requires_grad=requires_grad)
    pos = Tensor(rng.standard_normal((n + 1, 5)).astype(dtype), requires_grad=requires_grad)
    return cfg, cubes, proj, cls_token, pos, counts


def _tokens(cubes, proj, cls_token, pos):
    return E.add_class_and_positions(TB.embed(cubes, proj), cls_token, pos)


def test_embed_zero_projection_keeps_class_token():
    cfg, cubes, proj, cls_token, pos, counts = _embed_setup()
    zero_proj = Tensor(np.zeros_like(proj.data))
    zero_pos = Tensor(np.zeros_like(pos.data))
    tokens = _tokens(cubes, zero_proj, cls_token, zero_pos)[0]
    np.testing.assert_array_equal(tokens.data[0], cls_token.data)
    assert (tokens.data[1:] == 0).all()


def test_embed_recovers_positional_embedding_for_zero_cubes():
    cfg, cubes, proj, cls_token, pos, counts = _embed_setup()
    zero_cubes = Tensor(np.zeros_like(cubes.data))
    tokens = _tokens(zero_cubes, proj, cls_token, pos)[0]
    np.testing.assert_array_equal(tokens.data[1:], pos.data[1:])
    np.testing.assert_allclose(tokens.data[0], cls_token.data + pos.data[0])


def test_embed_length_invariant():
    cfg, cubes, proj, cls_token, pos, counts = _embed_setup()
    tokens = _tokens(cubes, proj, cls_token, pos)[0]
    assert tokens.shape == (counts[0] * counts[1] * counts[2] + 1, 5)


def test_embed_projection_gradient():
    cfg, cubes, proj, cls_token, pos, counts = _embed_setup(requires_grad=True)
    rng = np.random.default_rng(4)
    readout = rng.standard_normal((cubes.shape[1] + 1, 5))

    def f(params):
        tokens = _tokens(cubes, params[0], params[1], params[2])[0]
        return T.tsum(T.mul(tokens, Tensor(readout)))

    assert T.gradcheck(f, [proj, cls_token, pos]) < 1e-6


def test_partition_of_integer_clips_is_float64():
    clip = np.arange(4 * 4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 4, 3)
    cubes = TB.tubelet_partition(clip[None], TB.TubeletConfig(t=2, h=2, w=2))
    assert cubes.dtype == np.float64
    np.testing.assert_array_equal(np.sort(cubes.data.reshape(-1)), np.arange(clip.size))


def test_partition_moves_values_and_the_projection_names_a_non_finite_clip():
    # partitioning does not check values; the first op to compute with them does
    clip = np.zeros((4, 4, 4, 3))
    clip[-1, -1, -1, -1] = np.nan
    cubes = TB.tubelet_partition(clip[None], TB.TubeletConfig(t=2, h=2, w=2))
    assert cubes._op == "partition" and not cubes.requires_grad and cubes._parents == ()
    proj = Tensor(np.ones((24, 5)), requires_grad=True)
    with pytest.raises(T.NonFiniteError, match="'linear'"):
        TB.embed(cubes, proj)
