"""Adam optimizer and global gradient-norm clipping."""
from __future__ import annotations

import numpy as np

from ..errors import UsageError
from .params import ParameterStore


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0
        self._work: np.ndarray | None = None

    def ensure(self, name: str, like: np.ndarray) -> None:
        if name not in self.m:
            self.m[name] = np.zeros_like(like)
            self.v[name] = np.zeros_like(like)

    def scratch(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two work arrays shaped like `like`, views of one buffer kept
        across steps (not part of the state a checkpoint saves)."""
        work = self._work
        if work is None or work.dtype != like.dtype or work.shape[1] < like.size:
            work = self._work = np.empty((2, like.size), dtype=like.dtype)
        return (work[0, : like.size].reshape(like.shape),
                work[1, : like.size].reshape(like.shape))


def adam_step(
    params: ParameterStore,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    step: int | None = None,
) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    A parameter with no gradient this step contributes a zero gradient, so
    its moments decay but (on a fresh state) it does not move.
    """
    if step is None:
        step = state.step + 1
    if step < 1:
        raise UsageError(f"adam step counter must be >= 1, got {step}")
    state.step = step
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for name, t in params.items():
        state.ensure(name, t.data)
        m, v = state.m[name], state.v[name]
        # in place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # p -= lr*(m/c1) / (sqrt(v/c2) + eps)
        a, b = state.scratch(t.data)
        g = t.grad
        if g is None:
            g = b
            g.fill(0)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        t.data -= a


def clip_grad_norm(params: ParameterStore, max_norm: float) -> float:
    """Clip the global 2-norm of all gradients to `max_norm`.

    Returns the pre-clip norm.  The squared-norm accumulation runs in
    float64 over the store's lexicographic order, so the value does not
    depend on how parameters happen to be grouped into tensors.
    """
    total = 0.0
    for _, t in params.items():
        if t.grad is not None:
            total += float(np.sum(t.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        for _, t in params.items():
            if t.grad is not None:
                t.grad *= t.grad.dtype.type(max_norm / norm)
    return norm
