"""Assembled model: forward contract, parameter registry, checkpoints."""

import re

import numpy as np
import pytest

from mcvv import data as D
from mcvv import encoder as E
from mcvv import model as MD
from mcvv import tensor as T
from mcvv.encoder import EncoderConfig
from mcvv.model import Model, ModelConfig
from mcvv.tensor import Tensor
from mcvv.tubelet import TubeletConfig


def tiny_cfg(t=4, d=16, mlp_hidden=16, multi_branch=True):
    return ModelConfig(clip_len=8, height=16, width=16, channels=3,
                       tubelet=TubeletConfig(t=t, h=8, w=8),
                       encoder=EncoderConfig(d=d, heads=2, n_sp=1, n_tp=1,
                                             mlp_hidden=mlp_hidden),
                       multi_branch=multi_branch)


@pytest.mark.parametrize("shape,fits", [
    ((8, 16, 16, 3), True),
    ((11, 23, 17, 3), True),      # trailing frames and pixels fill no cube
    ((12, 16, 16, 3), False),     # a third 4-frame cube
    ((8, 16, 16, 1), False),      # channels
    ((8, 16, 16), False),         # rank
    ((8, 16, 16, 3, 1), False),
    ((3, 16, 16, 3), False),      # too few frames for one cube
    ((8, 7, 16, 3), False),       # too few rows for one cube
])
def test_fits_clip_ignores_only_what_fills_no_cube(shape, fits):
    assert tiny_cfg().fits_clip(shape) is fits


@pytest.mark.parametrize("size", [
    dict(encoder=EncoderConfig(mlp_hidden=2 ** 62)),
    dict(encoder=EncoderConfig(d=2 ** 31, heads=1)),
    dict(clip_len=8, height=2 ** 25, width=2 ** 25, tubelet=TubeletConfig(t=8, h=2 ** 25,
                                                                          w=2 ** 25)),
    dict(clip_len=2 ** 20, height=2 ** 20, width=2 ** 20, tubelet=TubeletConfig(t=1, h=1, w=1)),
], ids=["mlp-hidden", "d", "cube", "positions"])
def test_model_config_refuses_a_parameter_numpy_cannot_index(size):
    # refused before any array exists, in Python ints that cannot wrap
    with pytest.raises(ValueError, match=r"mlp_hidden=\d+ make a parameter too large for numpy"):
        ModelConfig(**size)


def _forward(model, clips):
    """Logits and embeddings of B clips, cut, embedded and forwarded as one graph."""
    return model.forward(model.embed(model.cubes(clips)))


def test_forward_shapes_mc():
    model = Model(tiny_cfg(), seed=0)
    clip = np.random.default_rng(1).random((8, 16, 16, 3)).astype(np.float32)
    logits, emb = [out[0] for out in _forward(model, clip[None])]
    assert logits.shape == (2,)
    assert emb.shape == (model.head.embedding_dim,)


def test_forward_shapes_nomc():
    model = Model(tiny_cfg(multi_branch=False), seed=0)
    clip = np.random.default_rng(1).random((8, 16, 16, 3)).astype(np.float32)
    logits, emb = [out[0] for out in _forward(model, clip[None])]
    assert logits.shape == (2,)
    assert emb.shape == (model.head.embedding_dim,)


def test_forward_deterministic():
    model = Model(tiny_cfg(), seed=3)
    clip = np.random.default_rng(2).random((8, 16, 16, 3)).astype(np.float32)
    a = _forward(model, clip[None])[0].data
    b = _forward(model, clip[None])[0].data
    np.testing.assert_array_equal(a, b)


def test_same_seed_same_init():
    a = Model(tiny_cfg(), seed=5)
    b = Model(tiny_cfg(), seed=5)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_named_parameters_unique_and_grad_tracked():
    model = Model(tiny_cfg(), seed=0)
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert all(p.requires_grad for _, p in model.named_parameters())


def test_temporal_dim_variants():
    for t, n_t in ((2, 4), (4, 2), (8, 1)):
        model = Model(tiny_cfg(t=t), seed=0)
        assert model.counts[0] == n_t
        clip = np.random.default_rng(0).random((8, 16, 16, 3)).astype(np.float32)
        assert _forward(model, clip[None])[0][0].shape == (2,)


def test_clip_probability_range():
    model = Model(tiny_cfg(), seed=0)
    clip = np.random.default_rng(4).random((8, 16, 16, 3)).astype(np.float32)
    p = model.clip_probability(model.embed(model.cubes(clip[None])))[0]
    assert 0.0 <= p <= 1.0


def test_clip_probability_records_no_graph_and_matches_a_recording_forward():
    model = Model(tiny_cfg(), seed=0)
    clips = np.random.default_rng(5).random((3, 8, 16, 16, 3)).astype(np.float32)
    tokens = model.embed(model.cubes(clips))
    logits, _ = model.forward(tokens)
    assert logits.requires_grad
    expected = T.softmax(logits, axis=-1).data[:, 1]

    outputs = []
    forward = model.forward

    def watched(c):
        outputs.append(forward(c))
        return outputs[-1]

    model.forward = watched
    probs = model.clip_probability(tokens)
    assert probs.tobytes() == expected.tobytes()
    assert all(not t.requires_grad and t._parents == () for t in outputs[0])


def _snapshot(model):
    return {name: p.data.copy() for name, p in model.named_parameters()}


def _assert_parameters_equal(model, snapshot):
    for name, p in model.named_parameters():
        assert p.data.dtype == snapshot[name].dtype
        np.testing.assert_array_equal(p.data, snapshot[name], err_msg=name)


def test_checkpoint_roundtrip(tmp_path):
    model = Model(tiny_cfg(), seed=7)
    clip = np.random.default_rng(5).random((8, 16, 16, 3)).astype(np.float32)
    before = _forward(model, clip[None])[0].data.copy()

    MD.save_checkpoint(model, tmp_path / "ckpt")
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
    assert [p.name for p in (tmp_path / "ckpt").iterdir()] == ["params"]
    assert (sorted(p.name for p in (tmp_path / "ckpt" / "params").iterdir())
            == sorted(f"{name}.mcvv" for name, _ in model.named_parameters()))
    fresh = Model(tiny_cfg(), seed=99)
    assert not np.allclose(_forward(fresh, clip[None])[0].data, before)
    MD.load_checkpoint(fresh, tmp_path / "ckpt")
    _assert_parameters_equal(fresh, _snapshot(model))
    np.testing.assert_array_equal(_forward(fresh, clip[None])[0].data, before)


def test_checkpoint_shape_mismatch(tmp_path):
    model = Model(tiny_cfg(), seed=0)
    MD.save_checkpoint(model, tmp_path)
    other = Model(tiny_cfg(d=32, mlp_hidden=32), seed=0)
    with pytest.raises(ValueError, match="shape mismatch"):
        MD.load_checkpoint(other, tmp_path)


def test_save_replaces_the_old_checkpoint_whole(tmp_path):
    old, new = Model(tiny_cfg(), seed=1), Model(tiny_cfg(), seed=2)
    MD.save_checkpoint(old, tmp_path)
    MD.save_checkpoint(new, tmp_path)
    loaded = Model(tiny_cfg(), seed=3)
    MD.load_checkpoint(loaded, tmp_path)
    _assert_parameters_equal(loaded, _snapshot(new))
    assert [p.name for p in tmp_path.iterdir()] == ["params"]


def test_failed_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    old = Model(tiny_cfg(), seed=1)
    MD.save_checkpoint(old, tmp_path)
    real_write, written = D.write_tensor_file, []

    def disk_full_partway(path, arr):
        if len(written) == 10:
            raise OSError(28, "No space left on device")
        real_write(path, arr)
        written.append(path)

    monkeypatch.setattr(D, "write_tensor_file", disk_full_partway)
    with pytest.raises(OSError, match="No space"):
        MD.save_checkpoint(Model(tiny_cfg(), seed=2), tmp_path)
    assert len(written) == 10
    assert [p.name for p in tmp_path.iterdir()] == ["params"]
    loaded = Model(tiny_cfg(), seed=3)
    MD.load_checkpoint(loaded, tmp_path)
    _assert_parameters_equal(loaded, _snapshot(old))


def test_float64_model_cannot_be_saved(tmp_path):
    with pytest.raises(ValueError, match="float32"):
        MD.save_checkpoint(Model(tiny_cfg(), seed=0, dtype=np.float64), tmp_path / "ckpt")
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("case", ["missing", "extra", "shape", "non-finite"])
def test_refused_load_changes_no_parameter(case, tmp_path):
    MD.save_checkpoint(Model(tiny_cfg(), seed=1), tmp_path)
    params = tmp_path / "params"
    # the last parameter is read last: a load that assigned each parameter as
    # it read it would have changed every other one before the refusal
    last = Model(tiny_cfg(), seed=0).named_parameters()[-1][0]
    if case == "missing":
        (params / f"{last}.mcvv").unlink()
        match = f"'{last}' missing from checkpoint"
    elif case == "extra":
        D.write_tensor_file(params / "zzz.mcvv", np.zeros(2))
        match = "'zzz' not in model"
    elif case == "shape":
        D.write_tensor_file(params / f"{last}.mcvv", np.zeros(3))
        match = f"shape mismatch for '{last}'"
    else:
        D.write_tensor_file(params / f"{last}.mcvv", np.array([0.0, np.inf]))
        match = None
    model = Model(tiny_cfg(), seed=2)
    before = _snapshot(model)
    with pytest.raises(D.DataError) as refused:
        MD.load_checkpoint(model, tmp_path)
    if match is None:   # read_tensor_file refuses the values, naming their file
        assert str(refused.value) == f"{params / last}.mcvv: non-finite values"
    else:
        assert re.search(re.escape(f"{tmp_path}: ") + ".*" + re.escape(match), str(refused.value))
    _assert_parameters_equal(model, before)


def test_gradcheck_model_size():
    model = Model(MD.gradcheck_config(), seed=0, dtype=np.float64)
    assert model.param_count() <= 5000


# -- parameter names and batching -----------------------------------------------------

LAYER_LEAVES = [f"attn.{n}" for n in ("ln_gain", "ln_bias", "wq", "bq", "wk", "bk",
                                      "wv", "bv", "wo", "bo")]
FF_LEAVES = [f"ff.{n}" for n in ("ln_gain", "ln_bias", "w1", "b1", "w2", "b2")]
ENCODER_NAMES = ([f"encoder.{stage}{i}.{leaf}" for stage in ("spatial", "temporal")
                  for i in range(2) for leaf in LAYER_LEAVES + FF_LEAVES]
                 + ["encoder.temporal_cls", "encoder.temporal_pos"]
                 + [f"encoder.final_{leaf}" for leaf in FF_LEAVES])
# Checkpoint names, in their order. Releases that stored the four branches
# apart wrote head.branch0_w ... head.branch3_b where head.branch_w and
# head.branch_b stand now; their checkpoints are refused.
PINNED_NAMES = {
    True: (["embed.proj", "embed.cls", "embed.pos"] + ENCODER_NAMES
           + ["head.fc1_w", "head.fc1_b", "head.branch_w", "head.branch_b",
              "head.out_w", "head.out_b"]),
    False: (["embed.proj", "embed.cls", "embed.pos"] + ENCODER_NAMES
            + ["head.fc1_w", "head.fc1_b", "head.out_w", "head.out_b"]),
}


def _owned_tensors(obj) -> list:
    """Every Tensor reachable through the model's own objects and lists."""
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [t for item in obj for t in _owned_tensors(item)]
    if type(obj).__module__.startswith("mcvv") and hasattr(obj, "__dict__"):
        return [t for value in vars(obj).values() for t in _owned_tensors(value)]
    return []


@pytest.mark.parametrize("multi_branch", [True, False])
def test_named_parameters_pinned_and_complete(multi_branch):
    model = Model(ModelConfig(multi_branch=multi_branch), seed=0)
    named = model.named_parameters()
    assert [n for n, _ in named] == PINNED_NAMES[multi_branch]
    owned = _owned_tensors(model)
    assert len({id(t) for t in owned}) == len(owned)
    assert sorted(id(p) for _, p in named) == sorted(id(t) for t in owned)


@pytest.mark.parametrize("multi_branch", [True, False])
def test_batched_forward_matches_per_clip(multi_branch):
    model = Model(ModelConfig(multi_branch=multi_branch), seed=0)
    cfg = model.cfg
    rng = np.random.default_rng(11)
    clips = rng.random((4, cfg.clip_len, cfg.height, cfg.width, cfg.channels)).astype(np.float32)
    logits, emb = _forward(model, clips)
    assert logits.shape == (4, 2)
    assert emb.shape == (4, model.head.embedding_dim)
    for j, clip in enumerate(clips):
        one_logits, one_emb = _forward(model, clip[None])
        np.testing.assert_allclose(logits.data[j], one_logits.data[0], rtol=0, atol=1e-5)
        np.testing.assert_allclose(emb.data[j], one_emb.data[0], rtol=0, atol=1e-5)

    j = 2
    changed = clips.copy()
    changed[j] = rng.random(changed[j].shape)
    other = _forward(model, changed)[0].data
    keep = [i for i in range(len(clips)) if i != j]
    np.testing.assert_array_equal(other[keep], logits.data[keep])
    assert not np.allclose(other[j], logits.data[j])


def _four_branch_probability(model, projected, branch_w, branch_b):
    """Class-1 probabilities of a head that runs each branch as its own
    linear and concatenates their outputs, on ``model``'s other weights."""
    head = model.head
    with T.no_grad():
        tokens = E.add_class_and_positions(projected, model.cls_token, model.pos)
        feature = E.encoder_forward(tokens, model.counts[0], model.cfg.encoder, model.encoder)
        x1 = T.linear(feature, head.fc1_w, head.fc1_b)
        emb = T.concat([T.linear(x1, Tensor(w), Tensor(b))
                        for w, b in zip(branch_w, branch_b)], axis=-1)
        logits = T.linear(emb, head.out_w, head.out_b)
        return T.softmax(logits, axis=-1).data[:, 1]


@pytest.mark.parametrize("batch", [1, 12, 16])
def test_stacked_branches_match_four_branch_head_bit_for_bit(batch):
    model = Model(ModelConfig(), seed=0)
    cfg = model.cfg
    rng = np.random.default_rng(batch)
    branch_w = [rng.normal(0.0, 0.3, (16, 8)).astype(np.float32) for _ in range(4)]
    branch_b = [rng.normal(0.0, 0.1, 8).astype(np.float32) for _ in range(4)]
    model.head.branch_w.data = np.concatenate(branch_w, axis=1)
    model.head.branch_b.data = np.concatenate(branch_b)
    clips = rng.random((batch, cfg.clip_len, cfg.height, cfg.width,
                        cfg.channels)).astype(np.float32)
    with T.no_grad():
        tokens = model.embed(model.cubes(clips))
    assert np.array_equal(model.clip_probability(tokens),
                          _four_branch_probability(model, tokens, branch_w, branch_b))
