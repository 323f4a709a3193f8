"""Desk-scale factorised video transformer classifier.

Subpackages cover the numeric engine (tensor), synthetic cohorts, clip
augmentation and fold planning (data), cube tokenization (tubelet), the
spatial-then-temporal encoder (encoder), the multi-branch head (head), the
imbalance-aware loss (loss), and the training/evaluation harness (train,
metrics). `mcvv.cli` is the command-line entry point.
"""

from mcvv.tensor import Tensor

__all__ = ["Tensor"]
__version__ = "0.1.0"
