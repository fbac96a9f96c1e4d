"""Differentiable operations.

Every function computes a forward value in numpy and registers a
vector-Jacobian product on the active tape.  conv1d and conv2d share one
tap-loop kernel: the frequency taps are copied once into a buffer k times
the input, and each time tap is a batched matmul on a window of its rows.
Taps map to plain slices, so the backward scatter is slice arithmetic too,
with a fixed accumulation order that keeps results bit-reproducible run to
run.

A VJP keeps what it needs to run and no more: the tape holds each op's
inputs anyway, so the convolutions rebuild their tap buffer and training
batch norm recomputes its normalized input from them, with the same
operations as the forward, rather than keeping copies until backward.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, DimensionError, UsageError
from .core import Tensor, apply_op
from .rng import RngState


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return apply_op(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return apply_op(out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return apply_op(a.data * s, (a,), lambda g: (g * s,))


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a non-differentiable constant array (broadcasting allowed)."""
    return apply_op(a.data + c, (a,), lambda g: (_unbroadcast(g, a.shape),))


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Multiply by a non-differentiable constant array."""
    return apply_op(a.data * c, (a,), lambda g: (_unbroadcast(g * c, a.shape),))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.shape
    return apply_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return apply_op(
        np.ascontiguousarray(a.data.transpose(axes)),
        (a,),
        lambda g: (g.transpose(inverse),),
    )


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        parts = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            parts.append(g[tuple(slicer)])
        return tuple(parts)

    return apply_op(out, tuple(tensors), vjp)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return apply_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of equal-rank stacks: (..., m, k) @ (..., k, n)."""
    if a.ndim != b.ndim or a.ndim < 2:
        raise DimensionError(f"matmul rank mismatch: {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ga, gb

    return apply_op(out, (a, b), vjp)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map on the last axis; leading axes are independent rows.

    This is the "shared weights through time" primitive: a single
    (d_out, d_in) matrix applied at every leading index.
    """
    d_out, d_in = weight.shape
    if x.shape[-1] != d_in:
        raise DimensionError(
            f"linear: input last dim {x.shape[-1]} != weight d_in {d_in}"
        )
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, d_in)
    out2 = x2 @ weight.data.T
    if bias is not None:
        out2 = out2 + bias.data
    out = out2.reshape(*lead, d_out)

    def vjp(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ weight.data).reshape(x.shape)
        gw = g2.T @ x2
        if bias is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(out, inputs, vjp)


def embedding(tokens: np.ndarray, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Linear map applied to one-hot rows, i.e. a column lookup of `weight`.

    `weight` has shape (d, W) like the classifier transpose; token i maps to
    weight[:, i] (+ bias).  Raises on out-of-range indices.
    """
    tokens = np.asarray(tokens)
    d, w_count = weight.shape
    if tokens.size and (tokens.min() < 0 or tokens.max() >= w_count):
        raise UsageError(
            f"token index out of range [0, {w_count}): {int(tokens.max())}"
        )
    out = weight.data.T[tokens]
    if bias is not None:
        out = out + bias.data

    def vjp(g):
        gt = np.zeros((w_count, d), dtype=weight.data.dtype)
        np.add.at(gt, tokens.reshape(-1), g.reshape(-1, d))
        gw = gt.T
        if bias is None:
            return (gw,)
        return gw, g.reshape(-1, d).sum(axis=0)

    inputs = (weight,) if bias is None else (weight, bias)
    return apply_op(out, inputs, vjp)


def take_last_axis(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one element per row along the last axis (for loss gathering)."""
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx[..., None], g[..., None], axis=-1)
        return (ga,)

    return apply_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    return apply_op(out, (a,), lambda g: (g * (a.data > 0),))


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    out = np.where(a.data >= 0, a.data, a.data * a.data.dtype.type(slope))

    def vjp(g):
        return (g * np.where(a.data >= 0, 1.0, slope).astype(a.data.dtype),)

    return apply_op(out, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    # tanh form is overflow-free for large |x|
    out = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return apply_op(out.astype(a.data.dtype), (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return apply_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def softmax(a: Tensor, axis: int = -1, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax along `axis`; `mask` is an additive constant (0 or -inf).

    Entries masked to -inf get exactly zero weight.  A row with every entry
    masked has no valid distribution and raises.
    """
    x = a.data
    if mask is not None:
        full = np.broadcast_to(mask, x.shape)
        if np.all(np.isneginf(full), axis=axis).any():
            raise UsageError("softmax: fully masked row")
        x = x + full
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return apply_op(out, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return apply_op(out, (a,), vjp)


def dropout(a: Tensor, p: float, training: bool, rng: Optional[RngState] = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); identity in eval mode."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise UsageError("dropout in training mode needs an RngState")
    keep = (rng.random(a.shape) >= p).astype(a.data.dtype)
    m = keep / a.data.dtype.type(1.0 - p)
    return mul_const(a, m)


# ---------------------------------------------------------------------------
# convolutions and pooling
# ---------------------------------------------------------------------------

def conv1d_out_length(t: int, k: int, stride: int, padding: int, dilation: int) -> int:
    return (t + 2 * padding - dilation * (k - 1) - 1) // stride + 1


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> Tensor:
    """Cross-correlation along the last axis; input (C, T) or (B, C, T)."""
    return _conv_taps(1, x, weight, bias, stride, padding, dilation, 1)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """Grouped 2D cross-correlation; input (C, H, W) or (B, C, H, W).

    groups == C_in with C_out == C_in is the depthwise case.
    """
    return _conv_taps(2, x, weight, bias, stride, padding, 1, groups)


# The conv VJP rebuilds the kw-tap buffer a few clips at a time: as many
# clips as fit this many bytes of it, and at least one.
_VJP_CHUNK_BYTES = 8 << 20


def _tap_cols(x4, kw, ph, pw, stride, w_out) -> np.ndarray:
    """The kw frequency taps of the padded input, (B, C_in, kw, H + 2*ph, W_out)."""
    b, c_in, h, _ = x4.shape
    xp = np.pad(x4, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((b, c_in, kw, h + 2 * ph, w_out), dtype=x4.dtype)
    for j in range(kw):
        cols[:, :, j] = xp[:, :, :, j : j + stride * w_out : stride]
    return cols


def _conv_taps(spatial, x, weight, bias, stride, padding, dilation, groups) -> Tensor:
    """The one convolution kernel, for 1D (weight (C_out, C_in, k)) and 2D
    (weight (C_out, C_in/groups, kh, kw)); a 1D input is a 2D one of width 1.

    The kw frequency taps are copied once into `cols` (B, groups,
    C_in/groups * kw, H + 2*pad, W_out), kw times the input.  Time tap i
    (dilated in 1D) is a window of rows of `cols` and one batched matmul, the
    groups a batch axis; a stride > 1 window is a copy.  Taps accumulate in
    index order, forward and backward.  The tape keeps the input, not `cols`:
    the VJP rebuilds `cols` with the same copies, over chunks of clips of
    about `_VJP_CHUNK_BYTES`, and adds the weight gradient clip by clip in
    batch order, the order of a sum over the batch axis.
    """
    name = f"conv{spatial}d"
    if x.ndim not in (spatial + 1, spatial + 2) or weight.ndim != spatial + 2:
        raise DimensionError(f"{name}: bad input {x.shape} or weight {weight.shape} rank")
    x4 = x.data.reshape(-1, *x.shape[x.ndim - spatial - 1 :], *[1] * (2 - spatial))
    w4 = weight.data.reshape(*weight.shape, *[1] * (2 - spatial))
    b, c_in, h, w = x4.shape
    c_out, cg, kh, kw = w4.shape
    if c_in % groups or c_out % groups or cg != c_in // groups:
        raise DimensionError(
            f"{name}: input {c_in} channels, weight {weight.shape}, groups={groups}"
        )
    og = c_out // groups
    ph, pw = (padding, padding if spatial == 2 else 0)
    h_out = conv1d_out_length(h, kh, stride, ph, dilation)
    w_out = conv1d_out_length(w, kw, stride, pw, 1)
    if h_out < 1 or w_out < 1:
        raise DimensionError(
            f"{name}: empty output for input {x.shape}, kernel {weight.shape}, "
            f"stride={stride}, pad={padding}, dilation={dilation}"
        )
    hp = h + 2 * ph
    cols = _tap_cols(x4, kw, ph, pw, stride, w_out).reshape(b, groups, cg * kw, hp, w_out)
    # (kh, groups, og, cg * kw): the weights of time tap i
    wt = np.ascontiguousarray(
        w4.reshape(groups, og, cg, kh, kw).transpose(3, 0, 1, 2, 4)
    ).reshape(kh, groups, og, cg * kw)
    rows = [slice(i * dilation, i * dilation + stride * h_out, stride) for i in range(kh)]

    def window(cols, i):
        return cols[:, :, :, rows[i]].reshape(len(cols), groups, cg * kw, h_out * w_out)

    out = np.matmul(wt[0], window(cols, 0))
    tap = np.empty_like(out)
    for i in range(1, kh):
        out += np.matmul(wt[i], window(cols, i), out=tap)
    out = out.reshape(b, c_out, h_out * w_out)
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape((*x.shape[: x.ndim - spatial - 1], c_out, h_out, w_out)[: x.ndim])

    def vjp(g):
        g4 = g.reshape(b, groups, og, h_out * w_out)
        gw = np.zeros_like(wt)
        gx = np.empty_like(x4)
        step = max(1, _VJP_CHUNK_BYTES // (c_in * kw * hp * w_out * x4.itemsize))
        for s in range(0, b, step):
            cols = _tap_cols(x4[s : s + step], kw, ph, pw, stride, w_out)
            n = len(cols)
            cols = cols.reshape(n, groups, cg * kw, hp, w_out)
            gs = g4[s : s + step]
            gcols = np.zeros_like(cols)
            gwin = np.empty((n, groups, cg * kw, h_out, w_out), dtype=cols.dtype)
            gwin4 = gwin.reshape(n, groups, cg * kw, h_out * w_out)
            for i in range(kh):
                for clip in np.matmul(gs, window(cols, i).swapaxes(-1, -2)):
                    gw[i] += clip
                wi = wt[i].swapaxes(-1, -2)
                if og == 1:  # depthwise: a K=1 product is a broadcast multiply
                    np.multiply(wi, gs, out=gwin4)
                else:
                    np.matmul(wi, gs, out=gwin4)
                gcols[:, :, :, rows[i]] += gwin
            gcols = gcols.reshape(n, c_in, kw, hp, w_out)
            gxp = np.zeros((n, c_in, hp, w + 2 * pw), dtype=gcols.dtype)
            for j in range(kw):
                gxp[:, :, :, j : j + stride * w_out : stride] += gcols[:, :, j]
            gx[s : s + step] = gxp[:, :, ph : ph + h, pw : pw + w]
        gx = gx.reshape(x.shape)
        gw = gw.reshape(kh, groups, og, cg, kw).transpose(1, 2, 3, 0, 4).reshape(weight.shape)
        if bias is None:
            return gx, gw
        return gx, gw, g4.sum(axis=(0, 3)).reshape(-1)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(out, inputs, vjp)


def max_pool_freq(x: Tensor, pool: int) -> Tensor:
    """Max over non-overlapping windows along the last (frequency) axis.

    Ties route the gradient to the lowest index in the window (the first
    maximum), keeping backward deterministic.
    """
    f = x.shape[-1]
    if pool < 1 or f % pool:
        raise DimensionError(f"max_pool_freq: F={f} not divisible by pool={pool}")
    if pool == 1:
        return apply_op(x.data.copy(), (x,), lambda g: (g,))
    windows = x.data.reshape(*x.shape[:-1], f // pool, pool)
    out = windows[..., 0].copy()
    for j in range(1, pool):
        np.maximum(out, windows[..., j], out=out)

    def vjp(g):
        gx = np.zeros_like(windows)
        taken = np.zeros(out.shape, dtype=bool)
        for j in range(pool):
            hit = windows[..., j] == out
            hit &= ~taken
            np.multiply(g, hit, out=gx[..., j])
            taken |= hit
        return (gx.reshape(x.shape),)

    return apply_op(out, (x,), vjp)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
    channel_axis: int = 0,
) -> Tensor:
    """Per-channel normalization over every non-channel axis.

    Training mode normalizes with the batch statistics of `x` (gradient flows
    through them) and updates the running buffers in place; eval mode applies
    the running statistics as a fixed affine map.
    """
    if eps <= 0:
        raise ConfigError(f"batch_norm eps must be > 0, got {eps}")
    c = x.shape[channel_axis]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batch_norm: gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}"
        )
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise DimensionError("batch_norm: running statistics shape mismatch")
    axes = tuple(i for i in range(x.ndim) if i != channel_axis)
    bshape = [1] * x.ndim
    bshape[channel_axis] = c
    gd = gamma.data.reshape(bshape)
    bd = beta.data.reshape(bshape)

    if training:
        n = x.size // c
        mean = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        out = x.data - mean
        out *= inv
        out *= gd
        out += bd
        unbiased = var.reshape(c) * (n / max(n - 1, 1))
        running_mean[:] = (1 - momentum) * running_mean + momentum * mean.reshape(c)
        running_var[:] = (1 - momentum) * running_var + momentum * unbiased

        def vjp(g):
            # the tape keeps no xhat: recompute it, then form
            # inv * (dxhat - m1 - xhat * m2) in place with one scratch array,
            # operation by operation, so the bits are those of that formula
            xhat = x.data - mean
            xhat *= inv
            gx = g * gd  # dxhat, and finally the input gradient
            scratch = gx * xhat
            m1 = gx.mean(axis=axes, keepdims=True)
            m2 = scratch.mean(axis=axes, keepdims=True)
            ggamma = np.multiply(g, xhat, out=scratch).sum(axis=axes)
            gbeta = g.sum(axis=axes)
            gx -= m1
            gx -= np.multiply(xhat, m2, out=scratch)
            gx *= inv
            return gx.astype(x.data.dtype, copy=False), ggamma, gbeta

        return apply_op(out.astype(x.data.dtype, copy=False), (x, gamma, beta), vjp)

    # eval mode: the running statistics fold into one scale and one shift
    inv = 1.0 / np.sqrt(running_var + eps)
    scale_c = (gamma.data * inv).reshape(bshape)
    shift_c = bd - running_mean.reshape(bshape) * scale_c
    out = x.data * scale_c
    out += shift_c

    def vjp(g):
        gx = g * scale_c
        ggamma = (g * (x.data - running_mean.reshape(bshape))).sum(axis=axes) * inv
        gbeta = g.sum(axis=axes)
        return gx.astype(x.data.dtype), ggamma, gbeta

    return apply_op(out.astype(x.data.dtype, copy=False), (x, gamma, beta), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis independently at each position."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm: empty normalization axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm: gamma/beta must have shape ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = gamma.data * xhat + beta.data

    def vjp(g):
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        lead = tuple(range(x.ndim - 1))
        return gx.astype(x.data.dtype), (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return apply_op(out.astype(x.data.dtype), (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# attention masks
# ---------------------------------------------------------------------------

def causal_mask(length: int, dtype=np.float32) -> np.ndarray:
    """Additive (L, L) mask: position i may attend to positions <= i."""
    m = np.zeros((length, length), dtype=dtype)
    m[np.triu_indices(length, k=1)] = -np.inf
    return m


def key_padding_mask(lengths: Sequence[int], max_len: int, dtype=np.float32) -> np.ndarray:
    """Additive (B, 1, 1, max_len) mask hiding padded key positions."""
    b = len(lengths)
    m = np.zeros((b, 1, 1, max_len), dtype=dtype)
    for i, n in enumerate(lengths):
        m[i, :, :, n:] = -np.inf
    return m


def positional_encoding(length: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal table: PE[p, 2i] = sin(p/10000^(2i/d)), PE[p, 2i+1] = cos."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i2 = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i2 / d_model)
    pe = np.zeros((length, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe.astype(dtype)
