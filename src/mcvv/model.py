"""Full classifier: cube embedding -> factorised encoder -> multi-branch head.

`ModelConfig` holds the clip geometry and the parts' own configs, a
`TubeletConfig` and an `EncoderConfig`. The model holds every learnable tensor
behind stable dotted names (for the optimizer, checkpoints, and gradient
verification) and runs B clips in three steps: `Model.cubes` cuts the clips
into the cube matrix [B, N, cube], `Model.embed` projects it to [B, N, d],
and `Model.forward` puts the class token in front, adds the positions and
maps the [B, N+1, d] tokens to logits [B, 2] over `data.LABEL_NAMES` plus the
embeddings [B, E] feeding the discriminator loss. Training runs embed and
forward as one graph. Evaluation runs embed clip by clip and with no
graph, so only the projected cubes reach the forward.
"""

from __future__ import annotations

import math
import tempfile
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
    """Clip geometry, the cube embedding and encoder configs, and the one head
    switch, ``multi_branch`` (the MC head or the same head without branches).
    Each part checks its own values; this checks the rules that span parts."""

    clip_len: int = 16
    height: int = 64
    width: int = 64
    channels: int = 3
    tubelet: TB.TubeletConfig = TB.TubeletConfig(t=4, h=16, w=16)
    encoder: E.EncoderConfig = E.EncoderConfig()
    multi_branch: bool = True

    def __post_init__(self):
        counts = TB.token_counts(self.tubelet, self.clip_len, self.height, self.width)
        H.check_feature_dim(self.encoder.d, self.multi_branch)
        # The widest parameter, in float64, the widest engine dtype: the
        # [cube, d] projection, the [N + 1, d] positions, or an encoder
        # weight, [d, d] or [d, mlp_hidden]; the head's are narrower.
        cube = self.tubelet.t * self.tubelet.h * self.tubelet.w * self.channels
        positions, d, hidden = math.prod(counts) + 1, self.encoder.d, self.encoder.mlp_hidden
        if 8 * max(cube, positions, d, hidden) * d > D.INTP_MAX:
            raise ValueError(f"{cube} values per cube, {positions} positions, d={d} and "
                             f"mlp_hidden={hidden} make a parameter too large for numpy")

    def fits_clip(self, shape: tuple[int, ...]) -> bool:
        """Whether a clip of ``shape`` cuts into the cubes this config embeds:
        a [T, H, W, C] clip with its channels and the token counts of a
        (clip_len, height, width) clip, so trailing frames and pixels that
        fill no cube may differ."""
        if len(shape) != 4 or shape[3] != self.channels:
            return False
        try:
            return (TB.token_counts(self.tubelet, *shape[:3])
                    == TB.token_counts(self.tubelet, self.clip_len, self.height, self.width))
        except T.ShapeError:   # too small for even one cube
            return False


class Model:
    def __init__(self, cfg: ModelConfig, seed: int, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.counts = TB.token_counts(cfg.tubelet, cfg.clip_len, cfg.height, cfg.width)
        n_tokens = self.counts[0] * self.counts[1] * self.counts[2]
        cube_dim = cfg.tubelet.t * cfg.tubelet.h * cfg.tubelet.w * cfg.channels

        rng = np.random.default_rng(seed)
        self.proj = T.init_glorot(rng, (cube_dim, cfg.encoder.d), dtype)
        self.cls_token = T.init_normal(rng, cfg.encoder.d, dtype, E.INIT_STD)
        self.pos = T.init_normal(rng, (n_tokens + 1, cfg.encoder.d), dtype, E.INIT_STD)
        self.encoder = E.init_encoder_params(cfg.encoder, self.counts[0], rng, dtype)
        self.head = H.init_mc_params(cfg.encoder.d, len(D.LABEL_NAMES), rng, dtype,
                                     multi_branch=cfg.multi_branch)

    # -- forward -------------------------------------------------------------------

    def cubes(self, clips, batch: int | None = None, out: np.ndarray | None = None) -> Tensor:
        """B clips ([B,T,H,W,C], or an iterable of [T,H,W,C] clips, with
        ``batch`` giving B where it has no length) -> the [B, N, cube]
        constant `embed` takes, in the model's cubes and dtype, written into
        ``out`` when given (see `tubelet.tubelet_partition`)."""
        return TB.tubelet_partition(clips, self.cfg.tubelet, self.dtype, batch, out)

    def embed(self, cubes: Tensor) -> Tensor:
        """[B, N, cube] cubes (see `cubes`) -> the [B, N, d] projected cubes
        `forward` takes."""
        return TB.embed(cubes, self.proj)

    def forward(self, projected: Tensor) -> tuple[Tensor, Tensor]:
        """[B, N, d] projected cubes (see `embed`) -> (logits [B, 2],
        discriminator embeddings [B, E]), through the [B, N+1, d] tokens: the
        class token in front, the positional embedding added."""
        tokens = E.add_class_and_positions(projected, self.cls_token, self.pos)
        feature = E.encoder_forward(tokens, self.counts[0], self.cfg.encoder, self.encoder)
        return H.mc_features(feature, self.head)

    def clip_probability(self, projected: Tensor) -> np.ndarray:
        """Probability of class 1 for each of B clips' projected cubes, as a
        [B] array, from a forward that records no graph."""
        with T.no_grad():
            logits, _ = self.forward(projected)
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
    order. A list field numbers its items (``spatial`` gives ``spatial0``,
    ...), and a None field (the branch-free head's branch weight) is skipped."""
    if isinstance(params, Tensor):
        return [(prefix, params)]
    out = []
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, list):
            for i, item in enumerate(value):
                out += _named_tensors(f"{prefix}.{f.name}{i}", item)
        elif value is not None:
            out += _named_tensors(f"{prefix}.{f.name}", value)
    return out


# -- checkpoints -----------------------------------------------------------------------


def save_checkpoint(model: Model, out_dir: Path | str) -> None:
    """Write each float32 parameter to ``params/<name>.mcvv`` under ``out_dir``, all or none."""
    if np.dtype(model.dtype) != np.float32:
        raise ValueError(f"checkpoints hold float32 parameters, not {np.dtype(model.dtype)}")
    params = Path(out_dir) / "params"
    params.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".params.", dir=params.parent) as work:
        new = Path(work, "new")
        new.mkdir()
        for name, p in model.named_parameters():
            D.write_tensor_file(new / f"{name}.mcvv", p.data)
        if params.exists():
            params.rename(Path(work, "old"))   # removed with ``work``
        new.rename(params)


def load_checkpoint(model: Model, out_dir: Path | str) -> None:
    """Load the weights `save_checkpoint` wrote under ``out_dir`` into ``model``,
    or none: DataError names ``out_dir`` and the first misfitting parameter,
    or the file of the first whose values `data.read_tensor_file` refuses."""
    named = dict(model.named_parameters())
    files = {path.stem: path for path in (Path(out_dir) / "params").glob("*.mcvv")}
    unmatched = [n for n in named if n not in files] + sorted(files.keys() - named.keys())
    if unmatched:
        state = "missing from checkpoint" if unmatched[0] in named else "not in model"
        raise D.DataError(f"{out_dir}: parameter '{unmatched[0]}' {state}")
    arrays = {name: D.read_tensor_file(files[name]) for name in named}
    for name, arr in arrays.items():
        if arr.shape != named[name].shape:
            raise D.DataError(f"{out_dir}: shape mismatch for '{name}': "
                              f"{arr.shape} vs {named[name].shape}")
    for name, arr in arrays.items():
        named[name].data = arr.astype(model.dtype, copy=False)


# -- full-model gradient verification ------------------------------------------------------


def gradcheck_config() -> ModelConfig:
    """Smallest config that still exercises every stage (< 5k parameters)."""
    return ModelConfig(clip_len=4, height=4, width=4, channels=3,
                       tubelet=TB.TubeletConfig(t=2, h=2, w=2),
                       encoder=E.EncoderConfig(d=16, heads=2, n_sp=1, n_tp=1, mlp_hidden=16))


def full_model_gradcheck(seed: int = 0, steps=(5e-4, 5e-5, 5e-6),
                         batch: int = 3) -> tuple[float, int]:
    """Max relative error of the end-to-end loss gradient vs central
    differences at float64, with the confusion state frozen. Returns
    (max_rel_err, parameter count). Uses a step ladder per coordinate; see
    tensor.gradcheck for why one step cannot fit a deep model."""
    cfg = gradcheck_config()
    model = Model(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    cubes = model.cubes(rng.random((batch, cfg.clip_len, cfg.height, cfg.width,
                                    cfg.channels)))
    labels = np.array([i % 2 for i in range(batch)])
    state = L.AdCorreState()
    L.update_confusion(state, rng.integers(0, 2, 12), rng.integers(0, 2, 12))
    params = L.HPLossParams()

    def f(_):
        logits, emb = model.forward(model.embed(cubes))
        return L.hp_loss(logits, labels, emb, state, params)

    err = T.gradcheck(f, model.parameters(), steps=steps)
    return err, model.param_count()
