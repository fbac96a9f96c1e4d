"""Adam optimizer and global gradient-norm clipping."""
from __future__ import annotations

import numpy as np

from ..errors import UsageError
from . import pool
from .params import ParameterStore


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0

    def ensure(self, name: str, like: np.ndarray) -> None:
        if name not in self.m:
            self.m[name] = np.zeros_like(like)
            self.v[name] = np.zeros_like(like)


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
    its moments decay but (on a fresh state) it does not move.  The update
    is elementwise, so it runs on the op pool as flat tiles of each
    parameter (`pool.flat_tiles`), each in two scratch arrays of its lane.
    """
    if step is None:
        step = state.step + 1
    if step < 1:
        raise UsageError(f"adam step counter must be >= 1, got {step}")
    state.step = step
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    tiles, scratch = [], 0
    for name, t in params.items():
        state.ensure(name, t.data)
        arrays = (t.data, t.grad, state.m[name], state.v[name])
        spans = pool.flat_tiles(t.size, t.data.itemsize)
        tiles += [(arrays, span) for span in spans]
        scratch = max(scratch, 2 * t.data.reshape(-1)[spans[0]].nbytes)

    def update(tile, slot):
        arrays, span = tile
        p, g, m, v = (None if x is None else x.reshape(-1)[span] for x in arrays)
        a, b = pool.carve(slot, (2, len(p)), p.dtype)
        if g is None:
            g = b
            g.fill(0)
        # in place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # p -= lr*(m/c1) / (sqrt(v/c2) + eps)
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
        p -= a

    pool.run(update, tiles, params.count(), (scratch,))


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
