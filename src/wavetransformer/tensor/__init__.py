"""Minimal reverse-mode autodiff tensor engine."""
from .core import (
    Tape,
    Tensor,
    active_tape,
    backward,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from .optim import AdamState, adam_step, clip_grad_norm
from .params import ParameterStore
from .rng import RngState, derive_seed

__all__ = [
    "AdamState",
    "ParameterStore",
    "RngState",
    "Tape",
    "Tensor",
    "active_tape",
    "adam_step",
    "backward",
    "clip_grad_norm",
    "default_dtype",
    "derive_seed",
    "get_default_dtype",
    "set_default_dtype",
]
