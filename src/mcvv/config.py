"""Flat key=value run configuration.

`RunConfig` is a run's one config; the cohort, model and loss settings are
views of it. Every key can come from a UTF-8 config file (`key = value`,
'#' comments) or a CLI flag; unknown keys and keys a file repeats are rejected.
Reports embed the resolved config so a run is reproducible from its report alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from mcvv.data import CohortSpec, write_text_atomic
from mcvv.encoder import EncoderConfig
from mcvv.loss import FocalParams, HPLossParams
from mcvv.model import ModelConfig
from mcvv.tubelet import TubeletConfig

LOSS_MODES = ("hp", "focal", "fd")
HEAD_MODES = ("mc", "nomc")


class UsageError(Exception):
    """Bad flags, unknown keys, or malformed config input."""


@dataclass
class RunConfig:
    # cohort generation
    mci: int = 20
    nc: int = 12
    frames_min: int = 128
    frames_max: int = 256
    hw: int = 64
    channels: int = 3
    strength: float = 0.35
    rho: float = 0.0
    noise: float = 0.05
    # clip geometry and model dims
    clip_len: int = 16
    t: int = 4
    h: int = 16
    w: int = 16
    d: int = 64
    heads: int = 4
    n_sp: int = 2
    n_tp: int = 2
    mlp_hidden: int = 128
    # training
    batch_size: int = 16
    epochs: int = 30
    max_steps: int = 0            # 0 means no cap
    base_lr: float = 1e-6
    max_lr: float = 1e-4
    cycle_steps: int = 0          # 0 means two epochs of batches
    seed: int = 0
    loss: str = "hp"
    head: str = "mc"
    augment: bool = True
    l_fold: int = 3
    alpha: float = 0.25
    gamma: float = 2.0
    fd_weight: float = 0.5
    epsilon: float = 1e-3

    # -- views ---------------------------------------------------------------------

    def cohort_spec(self) -> CohortSpec:
        return CohortSpec(**{f.name: getattr(self, f.name) for f in fields(CohortSpec)})

    def model_config(self) -> ModelConfig:
        return ModelConfig(clip_len=self.clip_len, height=self.hw, width=self.hw,
                           channels=self.channels,
                           tubelet=TubeletConfig(t=self.t, h=self.h, w=self.w),
                           encoder=EncoderConfig(d=self.d, heads=self.heads, n_sp=self.n_sp,
                                                 n_tp=self.n_tp, mlp_hidden=self.mlp_hidden),
                           multi_branch=self.head == "mc")

    def loss_params(self) -> HPLossParams:
        focal = None if self.loss == "fd" else FocalParams(alpha=self.alpha, gamma=self.gamma)
        fd_weight = {"hp": self.fd_weight, "focal": 0.0, "fd": 1.0}[self.loss]
        return HPLossParams(fd_weight=fd_weight, focal=focal)

    def validate(self) -> None:
        """Raise ValueError for a value no run can use; each view checks its own."""
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (the discriminator needs pairs)")
        if self.loss not in LOSS_MODES:
            raise ValueError(f"loss must be one of {LOSS_MODES}, got {self.loss!r}")
        if self.head not in HEAD_MODES:
            raise ValueError(f"head must be one of {HEAD_MODES}, got {self.head!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.max_steps <= sys.maxsize:
            raise ValueError(f"max_steps must be >= 0 (0 means no cap) and <= {sys.maxsize}, "
                             f"got {self.max_steps}")
        if self.l_fold < 1:
            raise ValueError(f"l_fold must be >= 1, got {self.l_fold}")
        if self.cycle_steps < 0 or self.cycle_steps == 1:
            raise ValueError(f"cycle_steps must be 0 or >= 2, got {self.cycle_steps}")
        for key in ("base_lr", "max_lr", "epsilon"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        self.cohort_spec().validate()
        self.model_config()
        self.loss_params()

    # -- serialization ------------------------------------------------------------------

    def write(self, path: Path | str) -> None:
        lines = [f"{f.name} = {_render(getattr(self, f.name))}" for f in fields(self)]
        write_text_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path: Path | str) -> "RunConfig":
        cfg = cls()
        cfg.apply(_parse_file(path))
        return cfg

    def apply(self, overrides: dict[str, str]) -> None:
        """Apply string key/value overrides, coercing to field types."""
        known = {f.name: f.type for f in fields(self)}
        for key, raw in overrides.items():
            if key not in known:
                raise UsageError(f"unknown config key '{key}'")
            setattr(self, key, _coerce(raw, getattr(self, key), key))


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _coerce(raw: str, current, key: str):
    text = raw.strip()
    if isinstance(current, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise UsageError(f"key '{key}' expects a boolean, got {text!r}")
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            value = float(text)
            if not math.isfinite(value):
                raise UsageError(f"key '{key}' expects a finite number, got {text!r}")
            return value
    except ValueError as exc:
        raise UsageError(f"key '{key}': {exc}") from exc
    return text


def _parse_file(path: Path | str) -> dict[str, str]:
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in line_of:
            raise UsageError(f"{path}:{lineno}: key '{key}' already set on line {line_of[key]}")
        line_of[key] = lineno
        out[key] = value
    return out
