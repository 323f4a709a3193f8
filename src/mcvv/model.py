"""Full classifier: cube embedding -> factorised encoder -> multi-branch head.

Holds every learnable tensor behind stable dotted names (for the optimizer,
checkpoints, and gradient verification) and exposes a batched forward: B clips
[B,T,H,W,C] -> class logits [B, num_class] plus the embeddings [B, E] feeding
the discriminator loss, as one graph.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from mcvv import data as D
from mcvv import encoder as E
from mcvv import head as H
from mcvv import loss as L
from mcvv import tensor as T
from mcvv import tubelet as TB
from mcvv.tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    clip_len: int = 16
    height: int = 64
    width: int = 64
    channels: int = 3
    t: int = 4
    h: int = 16
    w: int = 16
    d: int = 64
    heads: int = 4
    n_sp: int = 2
    n_tp: int = 2
    mlp_hidden: int = 128
    num_class: int = 2
    multi_branch: bool = True

    def tubelet(self) -> TB.TubeletConfig:
        return TB.TubeletConfig(t=self.t, h=self.h, w=self.w, d=self.d)

    def encoder(self) -> E.EncoderConfig:
        return E.EncoderConfig(d=self.d, heads=self.heads, n_sp=self.n_sp,
                               n_tp=self.n_tp, mlp_hidden=self.mlp_hidden)


class Model:
    def __init__(self, cfg: ModelConfig, seed: int, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.tubelet_cfg = cfg.tubelet()
        self.encoder_cfg = cfg.encoder()
        self.counts = TB.token_counts(self.tubelet_cfg, cfg.clip_len, cfg.height, cfg.width)
        n_tokens = self.counts[0] * self.counts[1] * self.counts[2]
        cube_dim = cfg.t * cfg.h * cfg.w * cfg.channels

        rng = np.random.default_rng(seed)
        self.proj = T.init_glorot(rng, (cube_dim, cfg.d), dtype)
        self.cls_token = T.init_normal(rng, cfg.d, dtype, E.INIT_STD)
        self.pos = T.init_normal(rng, (n_tokens + 1, cfg.d), dtype, E.INIT_STD)
        self.encoder = E.init_encoder_params(self.encoder_cfg, self.counts[0], rng, dtype)
        self.head = H.init_mc_params(cfg.d, cfg.num_class, rng, dtype,
                                     multi_branch=cfg.multi_branch)

    # -- forward -------------------------------------------------------------------

    def forward(self, clips) -> tuple[Tensor, Tensor]:
        """B clips ([B,T,H,W,C], or a sequence of [T,H,W,C] clips) ->
        (logits [B, num_class], discriminator embeddings [B, E])."""
        cubes = TB.tubelet_partition(clips, self.tubelet_cfg, self.dtype)
        tokens = TB.embed(cubes, self.proj, self.cls_token, self.pos, self.counts)
        feature = E.encoder_forward(tokens, self.counts[0], self.encoder_cfg, self.encoder)
        return H.mc_features(feature, self.head)

    def clip_probability(self, clips) -> np.ndarray:
        """Probability of class 1 for each of B clips, as a [B] array."""
        logits, _ = self.forward(clips)
        return T.softmax(logits, axis=-1).data[:, 1]

    # -- parameter registry ------------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return ([("embed.proj", self.proj), ("embed.cls", self.cls_token),
                 ("embed.pos", self.pos)]
                + _named_tensors("encoder", self.encoder) + _named_tensors("head", self.head))

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


def _named_tensors(prefix: str, params) -> list[tuple[str, Tensor]]:
    """Every Tensor of a parameter dataclass with its dotted name, in field
    order. A list field numbers its items after the field's stem: ``spatial``
    gives ``spatial0``, ``branch_w`` gives ``branch0_w``. List fields sharing
    a stem (``branch_w``, ``branch_b``) are walked together, item by item."""
    if isinstance(params, Tensor):
        return [(prefix, params)]
    groups: dict[str, list[str]] = {}
    for f in fields(params):
        value = getattr(params, f.name)
        stem = f.name.partition("_")[0] if isinstance(value, list) else f.name
        groups.setdefault(stem, []).append(f.name)
    out = []
    for stem, names in groups.items():
        values = [getattr(params, name) for name in names]
        if not isinstance(values[0], list):
            out += _named_tensors(f"{prefix}.{stem}", values[0])
            continue
        for i, items in enumerate(zip(*values, strict=True)):
            for name, item in zip(names, items):
                out += _named_tensors(f"{prefix}.{stem}{i}{name[len(stem):]}", item)
    return out


# -- checkpoints -----------------------------------------------------------------------


def save_checkpoint(model: Model, out_dir: Path | str) -> Path:
    """One tensor file per parameter plus a name manifest."""
    out_dir = Path(out_dir)
    (out_dir / "params").mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "params.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "path"])
        for i, (name, p) in enumerate(model.named_parameters()):
            rel = f"params/{i:04d}.mcvv"
            D.write_tensor_file(out_dir / rel, p.data)
            writer.writerow([name, rel])
    return manifest


def load_checkpoint(model: Model, out_dir: Path | str) -> None:
    out_dir = Path(out_dir)
    named = dict(model.named_parameters())
    with open(out_dir / "params.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    loaded = set()
    for row in rows:
        name = row["name"]
        if name not in named:
            raise ValueError(f"checkpoint parameter '{name}' not in model")
        arr = D.read_tensor_file(out_dir / row["path"]).astype(model.dtype)
        if arr.shape != named[name].shape:
            raise ValueError(f"shape mismatch for '{name}': "
                             f"{arr.shape} vs {named[name].shape}")
        named[name].data = arr
        loaded.add(name)
    missing = set(named) - loaded
    if missing:
        raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")


# -- full-model gradient verification ------------------------------------------------------


def gradcheck_config() -> ModelConfig:
    """Smallest config that still exercises every stage (< 5k parameters)."""
    return ModelConfig(clip_len=4, height=4, width=4, channels=3,
                       t=2, h=2, w=2, d=16, heads=2, n_sp=1, n_tp=1,
                       mlp_hidden=16, num_class=2, multi_branch=True)


def full_model_gradcheck(seed: int = 0, steps=(5e-4, 5e-5, 5e-6),
                         batch: int = 3) -> tuple[float, int]:
    """Max relative error of the end-to-end loss gradient vs central
    differences at float64, with the confusion state frozen. Returns
    (max_rel_err, parameter count). Uses a step ladder per coordinate; see
    tensor.gradcheck for why one step cannot fit a deep model."""
    cfg = gradcheck_config()
    model = Model(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    clips = [rng.random((cfg.clip_len, cfg.height, cfg.width, cfg.channels))
             for _ in range(batch)]
    labels = np.array([i % 2 for i in range(batch)])
    state = L.AdCorreState(num_class=cfg.num_class)
    L.update_confusion(state, rng.integers(0, 2, 12), rng.integers(0, 2, 12))
    params = L.HPLossParams()

    def f(_):
        logits, emb = model.forward(clips)
        return L.hp_loss(logits, labels, emb, state, params, update_state=False)

    err = T.gradcheck(f, model.parameters(), steps=steps)
    return err, model.param_count()
