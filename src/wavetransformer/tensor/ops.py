"""Differentiable operations.

Every function computes a forward value in numpy and registers a
vector-Jacobian product on the active tape, which closes over only the
arrays it reads: shapes, not tensors, where that is all it needs, and bool
masks and a max-pool index in place of float copies.  The convolutions are
those of `conv`.  Batch norm, max-pool, leaky ReLU and dropout run as tiles
on the thread pool of `pool`, and training batch norm recentres its input
rather than keeping copies until backward.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, DimensionError, UsageError
from . import conv
from . import pool as tile_pool  # `pool` names the max-pool width in this module
from .conv import conv1d, conv2d  # noqa: F401  (callers find them in ops)
from .core import Tensor, apply_op, recording
from .rng import GOLDEN, RngState, mix64


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
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return apply_op(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return apply_op(out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return apply_op(a.data * s, (a,), lambda g: (g * s,))


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a non-differentiable constant array (broadcasting allowed)."""
    shape = a.shape
    return apply_op(a.data + c, (a,), lambda g: (_unbroadcast(g, shape),))


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Multiply by a non-differentiable constant array."""
    shape = a.shape
    return apply_op(a.data * c, (a,), lambda g: (_unbroadcast(g * c, shape),))


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
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

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
    ad, bd = a.data, b.data
    out = np.matmul(ad, bd)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
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
    x_shape, w = x.shape, weight.data
    x2 = x.data.reshape(-1, d_in)
    out2 = x2 @ w.T
    if bias is not None:
        out2 = out2 + bias.data
    out = out2.reshape(*x_shape[:-1], d_out)
    has_bias = bias is not None

    def vjp(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w).reshape(x_shape)
        gw = g2.T @ x2
        if not has_bias:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    return apply_op(out, (x, weight) if bias is None else (x, weight, bias), vjp)


def embedding(tokens: np.ndarray, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Linear map applied to one-hot rows, i.e. a column lookup of `weight`.

    `weight` has shape (d, W) like the classifier transpose; token i maps to
    weight[:, i] (+ bias).  Raises on out-of-range indices.
    """
    tokens = np.asarray(tokens)
    d, w_count = weight.shape
    outside = (tokens < 0) | (tokens >= w_count)
    if outside.any():
        raise UsageError(
            f"token index out of range [0, {w_count}): {int(tokens[outside][0])}"
        )
    out = weight.data.T[tokens]
    if bias is not None:
        out = out + bias.data
    dtype, has_bias = weight.dtype, bias is not None

    def vjp(g):
        gt = np.zeros((w_count, d), dtype=dtype)
        np.add.at(gt, tokens.reshape(-1), g.reshape(-1, d))
        gw = gt.T
        if not has_bias:
            return (gw,)
        return gw, g.reshape(-1, d).sum(axis=0)

    return apply_op(out, (weight,) if bias is None else (weight, bias), vjp)


def take_last_axis(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one element per row along the last axis (for loss gathering)."""
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        ga = np.zeros(shape, dtype=dtype)
        np.put_along_axis(ga, idx[..., None], g[..., None], axis=-1)
        return (ga,)

    return apply_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    # a > 0 just where max(a, 0) > 0, NaN and -0.0 included
    return apply_op(out, (a,), lambda g: (g * (out > 0),))


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    """max(a, slope * a), which is the leaky ReLU for 0 < slope <= 1 (a zero
    slope would make max(inf, inf * 0) NaN; relu is that case)."""
    if not 0.0 < slope <= 1.0:
        raise ConfigError(f"leaky_relu slope must be in (0, 1], got {slope}")
    x = a.data.reshape(-1)
    tiles = tile_pool.flat_tiles(x.size, x.itemsize)
    out = np.empty_like(x)
    up = np.empty(x.shape, dtype=bool) if recording(a) else None  # x >= 0, all the VJP reads

    def forward(t):
        np.multiply(x[t], x.dtype.type(slope), out=out[t])
        np.maximum(x[t], out[t], out=out[t])
        if up is not None:
            np.greater_equal(x[t], 0, out=up[t])

    tile_pool.run(forward, tiles)
    shape = a.shape

    def vjp(g):
        g1 = g.reshape(-1)
        gx = np.empty_like(g1)
        factors = np.array([slope, 1], dtype=g1.dtype)

        def tile(t):
            # 1 where x >= 0, else (NaN too) the slope, by lookup, times g:
            # the bits of g or g * slope
            np.take(factors, up[t].view(np.uint8), out=gx[t], mode="clip")
            np.multiply(gx[t], g1[t], out=gx[t])

        tile_pool.run(tile, tiles)
        return (gx.reshape(shape),)

    return apply_op(out.reshape(a.shape), (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    # tanh form is overflow-free for large |x|
    out = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return apply_op(out.astype(a.data.dtype, copy=False), (a,), vjp)


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
    """Inverted dropout: survivors scaled by 1/(1-p); identity in eval mode.

    The mask has the bits of `rng.random(a.shape) >= p`, one draw per
    element in C order, and the stream advances as that call would.  The
    draws are made tile by tile from their counters and compared as
    integers: random() is the raw draw's top 53 bits times 2**-53, so
    random() >= p iff the raw draw is at least ceil(p * 2**53) * 2**11.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise UsageError("dropout in training mode needs an RngState")
    x = a.data.reshape(-1)
    n = x.size
    least = np.uint64(math.ceil(p * 2.0**53) << 11)
    keep = x.dtype.type(1) / x.dtype.type(1.0 - p)
    first, seed, golden = rng.counter + 1, rng.seed, int(GOLDEN)
    rng.counter += n
    tiles = tile_pool.flat_tiles(n, 8)
    # the draw of counter k is mix64(seed + k * GOLDEN), wrapping at 2**64:
    # a tile's words are its first word plus steps = (0, 1, ...) * GOLDEN
    steps = np.arange(min(n, tiles[0].stop), dtype=np.uint64)
    steps *= GOLDEN
    mask = np.empty(n, dtype=bool)  # kept: all the VJP reads
    out = np.empty_like(x)

    def factor(t, slot) -> np.ndarray:
        """The tile's factors mask * keep (keep or 0), made in the slot."""
        return np.multiply(mask[t], keep, out=tile_pool.carve(slot, (len(mask[t]),), keep.dtype))

    def forward(t, slot):
        k = len(mask[t])
        words, work = tile_pool.carve(slot, (2, k), np.uint64)
        np.add(steps[:k], np.uint64((seed + (first + t.start) * golden) & 0xFFFFFFFFFFFFFFFF),
               out=words)
        np.greater_equal(mix64(words, work), least, out=mask[t])
        np.multiply(x[t], factor(t, slot), out=out[t])

    tile_pool.run(forward, tiles, scratch=(16 * len(steps),))
    shape, slot_bytes = a.shape, keep.itemsize * len(steps)

    def vjp(g):
        g1 = g.reshape(-1)
        gx = np.empty_like(g1)
        tile_pool.run(lambda t, slot: np.multiply(g1[t], factor(t, slot), out=gx[t]), tiles,
                      scratch=(slot_bytes,))
        return (gx.reshape(shape),)

    return apply_op(out.reshape(a.shape), (a,), vjp)


# ---------------------------------------------------------------------------
# convolutions and pooling
# ---------------------------------------------------------------------------

def conv2d_bn_pool(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    padding: int,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
    pool: int,
) -> Tensor:
    """max_pool_freq(batch_norm(conv2d(x, weight, bias, padding=padding),
    ..., training=False), pool), the eval tail of a TF block, with the bits
    of those three ops.

    Where a tape tracks an input, it is those three ops, and gradients flow.
    Otherwise each P-CNN tile is made, with its tap products, in its lane's
    scratch slot, scaled and shifted there by the running statistics, and
    pooled into the output while in cache: the same elementwise steps on the
    same values, and no full-size conv or batch-norm output is made.  A tile
    holds whole frequency rows, so no pooling window crosses a tile.
    """
    if recording(x, weight, bias, gamma, beta):
        s = batch_norm(conv2d(x, weight, bias, padding=padding), gamma, beta,
                       running_mean, running_var, False, eps=eps, channel_axis=-3)
        return max_pool_freq(s, pool)
    c_out = weight.shape[0]
    _check_bn(c_out, gamma, beta, running_mean, running_var, eps)
    _, scale_c, shift_c = _bn_fold(gamma, beta, running_mean, running_var, eps)
    h_out, w_out = (conv.conv1d_out_length(n, k, padding, 1)
                    for n, k in zip(x.shape[-2:], weight.shape[-2:]))
    _check_pool(w_out, pool)
    w_pooled = w_out // pool
    res = np.empty((math.prod(x.shape[:-3]), c_out, h_out * w_pooled), dtype=x.dtype)

    def epilogue(o, clips, r0, r1):
        _affine(o, scale_c[:, None], shift_c[:, None], o)
        _max_into(o.reshape(*o.shape[:2], -1, pool), res[clips, :, r0 * w_pooled : r1 * w_pooled])

    conv.conv2d_tiles(x, weight, bias, padding, epilogue)
    return Tensor(res.reshape(*x.shape[:-3], c_out, h_out, w_pooled))


def _check_pool(f: int, pool: int) -> None:
    if pool < 1 or f % pool:
        raise DimensionError(f"max_pool_freq: F={f} not divisible by pool={pool}")


def _max_into(windows: np.ndarray, out: np.ndarray, first=None, slot=()) -> None:
    """The maximum over the last axis of `windows`, in index order, into
    `out`; with `first`, also the index of each window's first maximum, or
    the window length where the maximum is NaN, into it, working in the
    three byte buffers of `slot`: a window slot's values, and per window a
    step and a flag."""
    np.copyto(out, windows[..., 0])
    if first is None:
        for j in range(1, windows.shape[-1]):
            np.maximum(out, windows[..., j], out=out)
        return
    first.fill(0)
    col, step, flag = (tile_pool.carve(buf, out.shape, dtype)
                       for buf, dtype in zip(slot, (out.dtype, first.dtype, np.uint8)))

    def take(j):
        # j is above every index so far, so the maximum takes it where flagged
        np.maximum(first, np.multiply(flag, first.dtype.type(j), out=step), out=first)

    for j in range(1, windows.shape[-1]):
        np.copyto(col, windows[..., j])  # compared in place, a strided slot is several times slower
        np.greater(col, out, out=flag.view(bool))  # strictly, so ties keep the first
        take(j)
        np.maximum(out, col, out=out)
    np.not_equal(out, out, out=flag.view(bool))
    take(windows.shape[-1])


def max_pool_freq(x: Tensor, pool: int) -> Tensor:
    """Max over non-overlapping windows along the last (frequency) axis.

    Ties route the gradient to the lowest index in the window (the first
    maximum), keeping backward deterministic; a window whose maximum is NaN
    gets none.  The VJP keeps only that index, one byte a window.
    """
    f = x.shape[-1]
    _check_pool(f, pool)
    windows = x.data.reshape(-1, pool)
    tiles = tile_pool.flat_tiles(len(windows), pool * x.data.itemsize)
    out = np.empty(len(windows), dtype=x.dtype)
    index = np.min_scalar_type(pool)  # uint8 up to a pool of 255
    first = np.empty(len(windows), dtype=index) if recording(x) else None  # all the VJP reads
    most = len(range(len(windows))[tiles[0]])
    scratch = () if first is None else (most * x.data.itemsize, most * index.itemsize, most)

    def forward(t, *slot):
        _max_into(windows[t], out[t], None if first is None else first[t], slot)

    tile_pool.run(forward, tiles, scratch)
    shape = x.shape

    def vjp(g):
        g1 = g.reshape(-1)
        gx = np.empty((len(g1), pool), dtype=g1.dtype)

        def tile(t, slot):
            hit = tile_pool.carve(slot, (len(g1[t]),), bool)
            for j in range(pool):
                np.multiply(g1[t], np.equal(first[t], j, out=hit), out=gx[t, j])

        tile_pool.run(tile, tiles, (most,))
        return (gx.reshape(shape),)

    return apply_op(out.reshape(*shape[:-1], f // pool), (x,), vjp)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _row_dots(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Dot products of the last-axis rows of a and b, into out (a.shape[:-1])."""
    np.matmul(a[..., None, :], b[..., :, None], out=out[..., None, None])


def _bn_reduce(g2, x2, centre, chan, tiles) -> tuple:
    """The batch-norm VJP's reductions over the gradient g2 and input x2,
    (lead * C, rest) rows of channels `chan`: per channel, the sum of g2 and
    its dot with x2 - centre, and an array holding x2 - centre."""
    xc = np.empty_like(x2)
    sums, dots = np.empty((2, len(x2)), dtype=x2.dtype)

    def tile(t):
        np.subtract(x2[t], centre[chan[t], None], out=xc[t])
        np.sum(g2[t], axis=-1, out=sums[t])
        _row_dots(g2[t], xc[t], dots[t])

    tile_pool.run(tile, tiles)
    c = len(centre)
    return sums.reshape(-1, c).sum(axis=0), dots.reshape(-1, c).sum(axis=0), xc


def _check_bn(c, gamma, beta, running_mean, running_var, eps) -> None:
    if eps <= 0:
        raise ConfigError(f"batch_norm eps must be > 0, got {eps}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batch_norm: gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}"
        )
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise DimensionError("batch_norm: running statistics shape mismatch")


def _bn_fold(gamma, beta, running_mean, running_var, eps) -> tuple:
    """Eval batch norm as one per-channel scale and shift: (1/std, scale, shift)."""
    inv = 1.0 / np.sqrt(running_var + eps)
    scale_c = gamma.data * inv
    return inv, scale_c, beta.data - running_mean * scale_c


def _affine(x: np.ndarray, scale_c: np.ndarray, shift_c: np.ndarray, out: np.ndarray) -> None:
    """x * scale_c + shift_c into out, in two roundings."""
    np.multiply(x, scale_c, out=out)
    np.add(out, shift_c, out=out)


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
    c = x.shape[channel_axis]
    channel_axis %= x.ndim
    _check_bn(c, gamma, beta, running_mean, running_var, eps)

    # (lead * C, rest) rows, row r of channel chan[r]: a per-channel sum adds
    # row sums in batch order, and no tile splits a row
    lead = math.prod(x.shape[:channel_axis])
    x2 = x.data.reshape(lead * c, -1)
    tiles = tile_pool.flat_tiles(len(x2), x2.shape[1] * x2.itemsize)
    chan = np.tile(np.arange(c), lead)
    out = np.empty_like(x2)
    if training:
        n = x.size // c
        sums, dots = np.empty((2, len(x2)), dtype=x2.dtype)
        tile_pool.run(lambda t: np.sum(x2[t], axis=-1, out=sums[t]), tiles)
        mean = sums.reshape(lead, c).sum(axis=0) / n

        def centre(t):
            np.subtract(x2[t], mean[chan[t], None], out=out[t])
            _row_dots(out[t], out[t], dots[t])

        # each phase starts where the one before ended, on tiles still in cache
        tile_pool.run(centre, tiles[::-1])
        var = dots.reshape(lead, c).sum(axis=0) / n
        inv = 1.0 / np.sqrt(var + eps)
        scale_c, shift_c = gamma.data * inv, beta.data
        unbiased = var * (n / max(n - 1, 1))
        running_mean[:] = (1 - momentum) * running_mean + momentum * mean
        running_var[:] = (1 - momentum) * running_var + momentum * unbiased
    else:
        mean = running_mean
        inv, scale_c, shift_c = _bn_fold(gamma, beta, running_mean, running_var, eps)
    src = out if training else x2  # training has centred x into out
    tile_pool.run(lambda t: _affine(src[t], scale_c[chan[t], None], shift_c[chan[t], None], out[t]),
                  tiles)
    shape = x.shape

    def vjp(g):
        # training: gx = inv*gamma*(g - sum(g)/n - xhat*sum(g*xhat)/n), from
        # two per-channel reductions over g and the recentred input, which
        # the tape does not keep; gx is computed in place over the latter
        g2 = g.reshape(x2.shape)
        gbeta, dot, gx = _bn_reduce(g2, x2, mean, chan, tiles)
        ggamma = dot * inv
        if training:
            shift_g, scale_xc = gbeta / n, inv * ggamma / n

            def combine(t, slot):
                o, k = gx[t], chan[t]
                s = tile_pool.carve(slot, o.shape, o.dtype)
                np.subtract(g2[t], shift_g[k, None], out=s)
                np.multiply(o, scale_xc[k, None], out=o)
                np.subtract(s, o, out=o)
                np.multiply(o, scale_c[k, None], out=o)

            tile_pool.run(combine, tiles[::-1], scratch=(max(gx[t].nbytes for t in tiles),))
        else:
            tile_pool.run(lambda t: np.multiply(g2[t], scale_c[chan[t], None], out=gx[t]),
                          tiles[::-1])
        return gx.reshape(shape), ggamma, gbeta

    return apply_op(out.reshape(x.shape), (x, gamma, beta), vjp)


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
    w, dtype, lead = gamma.data, x.dtype, tuple(range(x.ndim - 1))

    def vjp(g):
        dxhat = g * w
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        return gx.astype(dtype, copy=False), (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return apply_op(out.astype(x.data.dtype, copy=False), (x, gamma, beta), vjp)


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
