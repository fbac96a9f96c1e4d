"""Parameterized layers built on the tensor ops.

Each layer asks the shared ModelSpace for its tensors under a hierarchical
dot-separated name (fixed naming keeps checkpoints stable): trainable
parameters go into its ParameterStore and non-trainable state (batch-norm
running statistics) into its buffer dict.
"""
from __future__ import annotations

import numpy as np

from .errors import CheckpointError
from .tensor import ParameterStore, RngState, Tensor, get_default_dtype
from .tensor import ops


class ModelSpace:
    """Shared registration context handed to every layer at build time, and
    the one place a parameter or buffer gets its value.

    A layer asks for a named array by shape and init rule.  Without stored
    arrays the value is drawn in request order: with `fan_in` from
    U(-a, a), a = sqrt(1/fan_in) (weights), else filled with `fill`
    (biases 0, normalization scales 1).  With `stored` arrays (a
    checkpoint's) each name's array is taken once, copied into the engine
    dtype, and nothing is drawn; `finish` rejects the names left over.
    """

    def __init__(self, params: ParameterStore, buffers: dict[str, np.ndarray], rng: RngState,
                 stored: dict[str, np.ndarray] | None = None):
        self.params = params
        self.buffers = buffers
        self.rng = rng
        self.stored = None if stored is None else dict(stored)

    def _value(self, name: str, shape: tuple, fan_in: int | None, fill: float) -> np.ndarray:
        dtype = get_default_dtype()
        if self.stored is not None:
            if name not in self.stored:
                raise CheckpointError(f"checkpoint is missing array {name!r}")
            arr = self.stored.pop(name)
            if arr.shape != shape:
                raise CheckpointError(
                    f"shape mismatch for {name!r}: model {shape} vs checkpoint {arr.shape}"
                )
            return arr.astype(dtype)  # a copy: the model must not alias the checkpoint
        if fan_in is None:
            return np.full(shape, fill, dtype=dtype)
        a = float(np.sqrt(1.0 / fan_in))
        return self.rng.uniform(-a, a, shape).astype(dtype)

    def param(self, name: str, shape: tuple, fan_in: int | None = None,
              fill: float = 0.0) -> Tensor:
        return self.params.add(name, Tensor(self._value(name, shape, fan_in, fill)))

    def buffer(self, name: str, shape: tuple, fill: float) -> np.ndarray:
        self.buffers[name] = arr = self._value(name, shape, None, fill)
        return arr

    def finish(self) -> None:
        """Raise CheckpointError if a stored array was never asked for."""
        if self.stored:
            raise CheckpointError(f"checkpoint has unexpected array {min(self.stored)!r}")


class Conv1d:
    """A "same" conv along time: k taps dilation apart, padded by
    dilation * (k - 1) // 2 on each side, so an odd k keeps the length."""

    def __init__(self, space: ModelSpace, name: str, c_in: int, c_out: int, k: int,
                 dilation: int = 1):
        self.padding, self.dilation = dilation * (k - 1) // 2, dilation
        self.weight = space.param(f"{name}.weight", (c_out, c_in, k), fan_in=c_in * k)
        self.bias = space.param(f"{name}.bias", (c_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv1d(x, self.weight, self.bias, padding=self.padding,
                          dilation=self.dilation)


class Conv2d:
    """A "same" k x k conv over (time, frequency), padded by (k - 1) // 2 on
    each side, so an odd k keeps both lengths; groups split the channels."""

    def __init__(self, space: ModelSpace, name: str, c_in: int, c_out: int, k: int,
                 groups: int = 1):
        self.padding, self.groups = (k - 1) // 2, groups
        self.weight = space.param(f"{name}.weight", (c_out, c_in // groups, k, k),
                                  fan_in=(c_in // groups) * k * k)
        self.bias = space.param(f"{name}.bias", (c_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, padding=self.padding, groups=self.groups)


class Linear:
    def __init__(self, space: ModelSpace, name: str, d_in: int, d_out: int):
        self.weight = space.param(f"{name}.weight", (d_out, d_in), fan_in=d_in)
        self.bias = space.param(f"{name}.bias", (d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class BatchNorm:
    """Per-channel batch normalization; running stats live in the buffer dict."""

    def __init__(self, space: ModelSpace, name: str, channels: int,
                 momentum: float = 0.1, eps: float = 1e-5):
        self.momentum, self.eps = momentum, eps
        self.gamma = space.param(f"{name}.gamma", (channels,), fill=1.0)
        self.beta = space.param(f"{name}.beta", (channels,))
        self.running_mean = space.buffer(f"{name}.running_mean", (channels,), fill=0.0)
        self.running_var = space.buffer(f"{name}.running_var", (channels,), fill=1.0)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return ops.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training, self.momentum, self.eps, channel_axis=1,
        )


class LayerNorm:
    def __init__(self, space: ModelSpace, name: str, d: int, eps: float = 1e-5):
        self.eps = eps
        self.gamma = space.param(f"{name}.gamma", (d,), fill=1.0)
        self.beta = space.param(f"{name}.beta", (d,))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta, self.eps)
