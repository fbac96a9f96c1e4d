"""Differentiable operations.

Every function computes a forward value in numpy and registers a
vector-Jacobian product on the active tape.  conv1d and conv2d share one
kernel, `_conv_taps`, with two regimes picked from the weight's shape:

* single input channel (groups == 1, C_in == 1, the first TF block): all
  kh*kw taps fold into K, and the conv is one GEMM over a (K, H_out*W_out)
  column buffer per clip, K times the input; the input gradient is the
  col2im of W^T g, again K rows;
* every other conv: the kw frequency taps are copied once into a buffer kw
  times the padded input, its time rows split by phase mod stride, and each
  time tap is a batched matmul on a window of its rows.  The input gradient
  is the same kernel run on g (zero-inserted for stride > 1, padded by
  dilation*(kh-1) - pad) with the flipped, group-transposed kernel, so it
  costs about what the forward does.

The GEMMs run as tiles of (clip, block of output rows) on the thread pool
of `pool`, as do the weight gradient's (time tap, clip) products and the
memory-bound passes: batch norm, max-pool, leaky ReLU and dropout.

A VJP keeps what it needs to run and no more: the tape holds each op's
inputs anyway, so the convolutions rebuild their tap buffers from them, a
few clips at a time, in chunks that run on the pool, and training batch
norm recentres its input, rather than keeping copies until backward.  The
caller adds each chunk's weight-gradient products in batch order, as one
pass would.

`_per_tap` takes an epilogue that runs on each output tile while it is in
cache, which the eval tail of a TF block, conv -> batch norm -> frequency
max-pool, uses when no tape records (`conv2d_bn_pool`).
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, DimensionError, UsageError
from . import pool as tile_pool  # `pool` names the max-pool width in this module
from .core import Tensor, active_tape, apply_op
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
    """max(a, slope * a), which is the leaky ReLU for 0 < slope <= 1 (a zero
    slope would make max(inf, inf * 0) NaN; relu is that case)."""
    if not 0.0 < slope <= 1.0:
        raise ConfigError(f"leaky_relu slope must be in (0, 1], got {slope}")
    x = a.data.reshape(-1)
    tiles = tile_pool.flat_tiles(x.size, x.itemsize)
    out = np.empty_like(x)

    def forward(t):
        np.multiply(x[t], x.dtype.type(slope), out=out[t])
        np.maximum(x[t], out[t], out=out[t])

    tile_pool.run(forward, tiles, x.size)

    def vjp(g):
        g1 = g.reshape(-1)
        gx = np.empty_like(g1)
        factors = np.array([slope, 1], dtype=g1.dtype)

        def tile(t):
            # 1 where x >= 0, else (NaN too) the slope, by lookup, times g:
            # the bits of g or g * slope
            np.take(factors, np.greater_equal(x[t], 0).view(np.uint8), out=gx[t], mode="clip")
            np.multiply(gx[t], g1[t], out=gx[t])

        tile_pool.run(tile, tiles, x.size)
        return (gx.reshape(a.shape),)

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
    mask = np.empty_like(x)
    out = np.empty_like(x)

    def forward(t, slot):
        k = len(mask[t])
        words, work = tile_pool.carve(slot, (2, k), np.uint64)
        np.add(steps[:k], np.uint64((seed + (first + t.start) * golden) & 0xFFFFFFFFFFFFFFFF),
               out=words)
        np.multiply(mix64(words, work) >= least, keep, out=mask[t])
        np.multiply(x[t], mask[t], out=out[t])

    tile_pool.run(forward, tiles, n, scratch=(16 * len(steps),))

    def vjp(g):
        g1 = g.reshape(-1)
        gx = np.empty_like(g1)
        tile_pool.run(lambda t: np.multiply(g1[t], mask[t], out=gx[t]), tiles, n)
        return (gx.reshape(a.shape),)

    return apply_op(out.reshape(a.shape), (a,), vjp)


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


# The conv VJP builds its tap buffers a few clips at a time: as many clips
# as fit this many bytes of them, and at least one.
VJP_CHUNK_BYTES = 8 << 20

# A conv's output tile is one clip's block of rows: a multiple of TILE_ROWS
# rows and at least pool.TILE_COLS columns where the clip has them, so every
# tile but a clip's last starts and ends on the BLAS kernels' column blocks,
# as the whole GEMM's do.  A conv with one output channel per group is a GEMV
# per group, whose bits depend on its column count, so it is tiled by blocks
# of _TILE_GROUPS groups instead, every GEMV whole.  Copies split by the same
# blocks of channels.
TILE_ROWS = 16
_TILE_GROUPS = 16


def _row_dots(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Dot products of the last-axis rows of a and b, into out (a.shape[:-1])."""
    np.matmul(a[..., None, :], b[..., :, None], out=out[..., None, None])


def conv_tiles(b, groups, og, h_out, w_out) -> list:
    """(clips, groups, first row, end row) of each output tile; see TILE_ROWS."""
    cols = b * h_out * w_out
    if og == 1:
        return [(c, g, 0, h_out) for c in tile_pool.split(b, 1, cols)
                for g in tile_pool.split(groups, _TILE_GROUPS, cols)]
    rows = h_out
    if cols >= tile_pool.TILE_COLS:
        # as many tiles as a clip has whole TILE_COLS, in whole TILE_ROWS, or one
        per_clip = max(1, h_out * w_out // tile_pool.TILE_COLS)
        rows = h_out // per_clip // TILE_ROWS * TILE_ROWS or h_out
    return [(c, slice(None), r.start, r.stop) for c in tile_pool.split(b, 1, cols)
            for r in tile_pool.blocks(h_out, rows)]


def _tap_cols(xp, rows, kw, stride, w_out, out=None) -> np.ndarray:
    """Taps of the padded input xp (B, C, Hp, Wp): (B, len(rows), C, kw, H', W_out),
    [:, a, :, j] holding time rows `rows[a]` at frequency tap j; on the front
    of the flat byte buffer `out` if given."""
    b, c, hp, _ = xp.shape
    h = len(range(*rows[0].indices(hp)))
    cols = tile_pool.carve(out, (b, len(rows), c, kw, h, w_out), xp.dtype)

    def copy(task):
        a, ch = task
        for j in range(kw):
            cols[:, a, ch, j] = xp[:, ch, rows[a], j : j + stride * w_out : stride]

    channels = tile_pool.split(c, _TILE_GROUPS, b * h * w_out)
    tile_pool.run(copy, [(a, ch) for a in range(len(rows)) for ch in channels], b * h * w_out)
    return cols


def _tap_weights(w4, groups) -> np.ndarray:
    """(C_out, C_in/groups, kh, kw) -> (kh, groups, og, C_in/groups * kw): time tap i's weights."""
    c_out, cg, kh, kw = w4.shape
    og = c_out // groups
    return np.ascontiguousarray(
        w4.reshape(groups, og, cg, kh, kw).transpose(3, 0, 1, 2, 4)
    ).reshape(kh, groups, og, cg * kw)


def _window(cols, clips, grp, i, dilation, r0, r1) -> np.ndarray:
    """Time tap i's view of output rows r0..r1 in cols (B, stride, groups, k,
    Hp/stride, W_out): (clips, groups, k, (r1 - r0) * W_out).  Output row o
    reads padded row i*dilation + o*stride, which is row
    (i*dilation)//stride + o of phase (i*dilation) % stride."""
    q, a = divmod(i * dilation, cols.shape[1])
    window = cols[clips, a, grp, :, q + r0 : q + r1]
    return window.reshape(*window.shape[:3], -1)


def _per_tap(cols, wt, dilation, h_out, w_out, bias=None, out=None, tap=None,
             epilogue=None) -> Optional[np.ndarray]:
    """Convolve with tap weights wt (kh, groups, og, k), given the kw
    frequency taps of the padded input by row phase, (B, stride, C_in, kw,
    Hp/stride, W_out): (B, groups, og, h_out * w_out), into `out` if given.
    `tap` is an optional flat byte buffer of at least out's size.

    Each time tap is one matmul on a window of rows, the groups a batch
    axis.  A tile adds its taps in index order, then the bias.

    With `epilogue`, there is no output: each tile is made, with its tap
    products, in a scratch slot of its lane (`pool.run`), and handed on
    while in cache to epilogue(tile, clips, channels, r0, r1), the tile
    (clips, channels, (r1 - r0) * w_out) holding output rows r0..r1.
    """
    kh, groups, og, k = wt.shape
    b, stride, _, _, hs, _ = cols.shape
    cols = cols.reshape(b, stride, groups, k, hs, w_out)
    tiles = conv_tiles(b, groups, og, h_out, w_out)
    scratch = ()
    if epilogue is not None:
        tile_bytes = cols.itemsize * og * w_out * max(
            len(range(b)[c]) * len(range(groups)[g]) * (r1 - r0) for c, g, r0, r1 in tiles)
        scratch = (tile_bytes,) * min(kh, 2)  # the tile, and its tap products
    else:
        if out is None:
            out = np.empty((b, groups, og, h_out * w_out), dtype=cols.dtype)
        if kh > 1:
            tap = tile_pool.carve(tap, out.shape, out.dtype)

    def tile(t, *slot):
        clips, grp, r0, r1 = t
        span = slice(r0 * w_out, r1 * w_out)
        if not slot:
            o = out[clips, grp, :, span]
            p = None if kh == 1 else tap[clips, grp, :, span]
        else:
            shape = (len(range(b)[clips]), len(range(groups)[grp]), og, (r1 - r0) * w_out)
            # p is unused where kh == 1
            o, p = (tile_pool.carve(buf, shape, cols.dtype) for buf in (slot[0], slot[-1]))
        np.matmul(wt[0, grp], _window(cols, clips, grp, 0, dilation, r0, r1), out=o)
        for i in range(1, kh):
            o += np.matmul(wt[i, grp], _window(cols, clips, grp, i, dilation, r0, r1), out=p)
        if bias is not None:
            o += bias.reshape(groups, og, 1)[grp]
        if epilogue is not None:
            g = range(groups)[grp]
            epilogue(o.reshape(len(o), -1, o.shape[-1]), clips, slice(g.start * og, g.stop * og),
                     r0, r1)

    tile_pool.run(tile, tiles, b * h_out * w_out, scratch)
    return out


def _weight_grad(cols, g4, kh, dilation, h_out, w_out, prod=None) -> np.ndarray:
    """The weight gradient of output gradient g4 (n, groups, og, h_out *
    w_out) over the taps `cols` (as in _per_tap), per time tap and clip:
    (kh, n, groups, og, k), on the front of the flat byte buffer `prod` if given.
    The products run per (tap, clip) on the pool; the caller adds them clip
    by clip in batch order, the order of a sum over the batch axis."""
    n, groups, og, _ = g4.shape
    k = cols.shape[2] * cols.shape[3] // groups
    cols = cols.reshape(n, cols.shape[1], groups, k, cols.shape[-2], w_out)
    prod = tile_pool.carve(prod, (kh, n, groups, og, k), g4.dtype)

    def product(task):
        i, clips = task
        window = _window(cols, clips, slice(None), i, dilation, 0, h_out)
        np.matmul(g4[clips], window.swapaxes(-1, -2), out=prod[i, clips])

    n_out = h_out * w_out
    clips = tile_pool.split(n, 1, n * n_out)
    tile_pool.run(product, [(i, c) for i in range(kh) for c in clips], n * n_out)
    return prod


def _conv_taps(spatial, x, weight, bias, stride, padding, dilation, groups,
               pooled=None) -> Tensor:
    """The one convolution kernel, for 1D (weight (C_out, C_in, k)) and 2D
    (weight (C_out, C_in/groups, kh, kw)); a 1D input is a 2D one of width 1.

    The weight's shape picks the regime (see the module docstring); the
    single-channel regime is the per-tap one with one time tap of all kh*kw
    taps.  The tape keeps the input, not a tap buffer: the VJP rebuilds the
    buffers over chunks of clips of about `VJP_CHUNK_BYTES`.

    pooled=(scale, shift, pool) asks for the forward value only, of
    max_pool_freq(out * scale + shift, pool), scale and shift per output
    channel: each output tile is scaled, shifted and pooled in its scratch
    slot (`_per_tap`'s epilogue), and the full-size output is never made.
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
    hp, wp, n_out = h + 2 * ph, w + 2 * pw, h_out * w_out
    hs = -(-hp // stride)  # rows per phase: the padded buffer has hs * stride rows
    fold = groups == 1 and c_in == 1
    b_data = None if bias is None else bias.data
    epilogue = None
    if pooled is not None:
        scale_c, shift_c, pool = pooled
        _check_pool(w_out, pool)
        w_pooled = w_out // pool
        res = np.empty((b, c_out, h_out * w_pooled), dtype=x4.dtype)

        def epilogue(o, clips, chans, r0, r1):
            _affine(o, scale_c[chans, None], shift_c[chans, None], o)
            _max_into(o.reshape(*o.shape[:2], -1, pool),
                      res[clips, chans, r0 * w_pooled : r1 * w_pooled])

    def padded(xs, buf=None):
        xp = tile_pool.zeros(buf, (len(xs), c_in, hs * stride, wp), xs.dtype)
        xp[:, :, ph : ph + h, pw : pw + w] = xs
        return xp

    if fold:
        w2 = w4.reshape(1, 1, c_out, kh * kw)
        rows = [slice(i * dilation, i * dilation + stride * h_out, stride) for i in range(kh)]

        def taps(xs, pad=None, buf=None):
            cols = _tap_cols(padded(xs, pad), rows, kw, stride, w_out, buf)
            return cols.reshape(len(xs), 1, 1, kh * kw, h_out, w_out)

        out = _per_tap(taps(x4), w2, 1, h_out, w_out, b_data, epilogue=epilogue)
    else:
        wt = _tap_weights(w4, groups)
        phases = [slice(p, None, stride) for p in range(stride)]

        def taps(xs, pad=None, buf=None):
            return _tap_cols(padded(xs, pad), phases, kw, stride, w_out, buf)

        out = _per_tap(taps(x4), wt, dilation, h_out, w_out, b_data, epilogue=epilogue)
    if pooled is not None:
        return Tensor(res.reshape(*x.shape[: x.ndim - 3], c_out, h_out, w_pooled))
    out = out.reshape((*x.shape[: x.ndim - spatial - 1], c_out, h_out, w_out)[: x.ndim])

    # the input gradient of the per-tap regime: g goes into a zero buffer at
    # rows eh + o*stride, columns ew + v*stride, and the stride-1 conv of the
    # buffer from row ph, column pw with the flipped weights is gx
    eh, ew = dilation * (kh - 1), kw - 1
    hb, wb = h + ph + max(eh, ph), w + pw + max(ew, pw)
    if fold:
        clip_bytes = clip_taps = kh * kw * n_out
        clip_pad = max(c_in * hs * stride * wp, c_out * kh * kw)
    else:
        clip_bytes = kw * (c_in * hp * w_out + c_out * (hb - ph) * w)
        clip_taps = max(stride * c_in * kw * hs * w_out, c_out * kw * (hb - ph) * w)
        clip_pad = max(c_out * hb * wb, c_in * h * w, c_in * hs * stride * wp, c_out * cg * kh * kw)
    # chunks of at most VJP_CHUNK_BYTES of buffers, and at least two of a
    # batch whose VJP leaves the caller's thread, so that a second worker has one
    step = min(b, max(1, VJP_CHUNK_BYTES // (clip_bytes * x4.itemsize)))
    if b * n_out >= tile_pool.TILE_COLS:
        step = min(step, -(-b // 2))

    # A chunk of the VJP runs in a scratch slot of two byte buffers for up to
    # `step` clips: `buf` holds the gradient's taps and then the input's, and
    # `pad` the zero-inserted gradient (the fold's col2im target), _per_tap's
    # scratch, the zero-bordered input and at last the weight-gradient
    # products, which the chunk returns for the caller to add in batch order.
    # It writes its input gradient into gxs.
    def fold_chunk(task, pad, buf):
        xs, gs, gxs, w_in = task
        n = len(xs)
        # W^T g, then col2im clip by clip
        gcols = _per_tap(gs.reshape(n, 1, c_out, 1, h_out, w_out), w_in, 1, h_out, w_out,
                         out=tile_pool.carve(buf, (n, 1, kh * kw, n_out), xs.dtype))
        gcols = gcols.reshape(n, kh * kw, h_out, w_out)
        gxp = tile_pool.zeros(pad, (n, 1, hs * stride, wp), xs.dtype)

        def col2im(c):
            for a in range(kh):
                for j in range(kw):
                    gxp[c, 0, rows[a], j : j + stride * w_out : stride] += gcols[c, a * kw + j]

        tile_pool.run(col2im, tile_pool.split(n, 1, n * n_out), n * n_out)
        gxs[...] = gxp[:, :, ph : ph + h, pw : pw + w]
        cols = taps(xs, pad, buf)
        return _weight_grad(cols, gs.reshape(n, 1, c_out, n_out), 1, 1, h_out, w_out, pad)

    def per_tap_chunk(task, pad, buf):
        xs, gs, gxs, w_in = task
        n = len(xs)
        gb = tile_pool.zeros(pad, (n, c_out, hb, wb), xs.dtype)
        gb[:, :, eh : eh + stride * h_out : stride, ew : ew + stride * w_out : stride] = (
            gs.reshape(n, c_out, h_out, w_out)
        )
        cols = _tap_cols(gb[:, :, ph:, pw:], [slice(None)], kw, 1, w, buf)
        _per_tap(cols, w_in, dilation, h, w, out=gxs.reshape(n, groups, cg, h * w), tap=pad)
        cols = taps(xs, pad, buf)
        return _weight_grad(cols, gs.reshape(n, groups, og, n_out), kh, dilation, h_out, w_out, pad)

    def vjp(g):
        g3 = g.reshape(b, c_out, n_out)
        gx = np.empty(x4.shape, dtype=x4.dtype)
        gw = np.zeros_like(w2 if fold else wt)
        if fold:
            w_in = w2.swapaxes(-1, -2)
        else:
            flipped = w4.reshape(groups, og, cg, kh, kw).transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1]
            w_in = _tap_weights(flipped.reshape(c_in, og, kh, kw), groups)

        def add(prod):
            for gw_i, prods in zip(gw, prod):
                for clip in prods:
                    gw_i += clip

        tasks = [(x4[s : s + step], g3[s : s + step], gx[s : s + step], w_in)
                 for s in range(0, b, step)]
        scratch = (step * clip_pad * x4.itemsize, step * clip_taps * x4.itemsize)
        tile_pool.run(fold_chunk if fold else per_tap_chunk, tasks, b * n_out, scratch, add)
        gx = gx.reshape(x.shape)
        if fold:
            gw = gw.reshape(weight.shape)
        else:
            gw = gw.reshape(kh, groups, og, cg, kw).transpose(1, 2, 3, 0, 4).reshape(weight.shape)
        if bias is None:
            return gx, gw
        return gx, gw, g3.sum(axis=(0, 2))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(out, inputs, vjp)


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
    tape = active_tape()
    if tape is not None and any(tape.tracks(t) for t in (x, weight, bias, gamma, beta)
                                if t is not None):
        s = batch_norm(conv2d(x, weight, bias, padding=padding), gamma, beta,
                       running_mean, running_var, False, eps=eps, channel_axis=-3)
        return max_pool_freq(s, pool)
    _check_bn(weight.shape[0], gamma, beta, running_mean, running_var, eps)
    _, scale_c, shift_c = _bn_fold(gamma, beta, running_mean, running_var, eps)
    return _conv_taps(2, x, weight, bias, 1, padding, 1, 1, pooled=(scale_c, shift_c, pool))


def _check_pool(f: int, pool: int) -> None:
    if pool < 1 or f % pool:
        raise DimensionError(f"max_pool_freq: F={f} not divisible by pool={pool}")


def _max_into(windows: np.ndarray, out: np.ndarray) -> None:
    """The maximum over the last axis of `windows`, in index order, into `out`."""
    np.copyto(out, windows[..., 0])
    for j in range(1, windows.shape[-1]):
        np.maximum(out, windows[..., j], out=out)


def max_pool_freq(x: Tensor, pool: int) -> Tensor:
    """Max over non-overlapping windows along the last (frequency) axis.

    Ties route the gradient to the lowest index in the window (the first
    maximum), keeping backward deterministic.
    """
    f = x.shape[-1]
    _check_pool(f, pool)
    if pool == 1:
        return apply_op(x.data.copy(), (x,), lambda g: (g,))
    windows = x.data.reshape(-1, pool)
    tiles = tile_pool.flat_tiles(len(windows), pool * x.data.itemsize)
    out = np.empty(len(windows), dtype=x.dtype)

    tile_pool.run(lambda t: _max_into(windows[t], out[t]), tiles, x.size)

    def vjp(g):
        g1 = g.reshape(-1)
        gx = np.empty_like(windows)

        def tile(t):
            hit = np.empty(len(out[t]), dtype=bool)
            free = np.ones_like(hit)  # windows whose maximum no slot has taken
            for j in range(pool):
                np.equal(windows[t, j], out[t], out=hit)
                hit &= free
                np.multiply(g1[t], hit, out=gx[t, j])
                free ^= hit

        tile_pool.run(tile, tiles, x.size)
        return (gx.reshape(x.shape),)

    return apply_op(out.reshape(*x.shape[:-1], f // pool), (x,), vjp)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _bn_reduce(g3, x3, centre, tiles) -> tuple:
    """The batch-norm VJP's reductions over the (lead, C, rest) gradient g3
    and input x3: per channel, the sum of g3 and its dot with x3 - centre,
    and an array holding x3 - centre."""
    lead, c, _ = x3.shape
    xc = np.empty_like(x3)
    sums, dots = np.empty((2, lead, c), dtype=x3.dtype)

    def tile(t):
        np.subtract(x3[t], centre[t[1], None], out=xc[t])
        np.sum(g3[t], axis=-1, out=sums[t])
        _row_dots(g3[t], xc[t], dots[t])

    tile_pool.run(tile, tiles, x3.size)
    return sums.sum(axis=0), dots.sum(axis=0), xc


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

    # (lead, C, rest): per-channel sums are contiguous row sums, and no tile
    # splits a (clip, channel) row, so rows add in batch order, as in one pass
    x3 = x.data.reshape(math.prod(x.shape[:channel_axis]), c, -1)
    tiles = tile_pool.channel_tiles(*x3.shape, x3.itemsize)
    out = np.empty_like(x3)
    if training:
        n = x.size // c
        sums, dots = np.empty((2, x3.shape[0], c), dtype=x3.dtype)
        tile_pool.run(lambda t: np.sum(x3[t], axis=-1, out=sums[t]), tiles, x3.size)
        mean = sums.sum(axis=0) / n

        def centre(t):
            np.subtract(x3[t], mean[t[1], None], out=out[t])
            _row_dots(out[t], out[t], dots[t])

        # each phase starts where the one before ended, on tiles still in cache
        tile_pool.run(centre, tiles[::-1], x3.size)
        var = dots.sum(axis=0) / n
        inv = 1.0 / np.sqrt(var + eps)
        scale_c, shift_c = gamma.data * inv, beta.data
        unbiased = var * (n / max(n - 1, 1))
        running_mean[:] = (1 - momentum) * running_mean + momentum * mean
        running_var[:] = (1 - momentum) * running_var + momentum * unbiased
    else:
        mean = running_mean
        inv, scale_c, shift_c = _bn_fold(gamma, beta, running_mean, running_var, eps)
    src = out if training else x3  # training has centred x into out
    tile_pool.run(lambda t: _affine(src[t], scale_c[t[1], None], shift_c[t[1], None], out[t]),
                  tiles, x3.size)

    def vjp(g):
        # training: gx = inv*gamma*(g - sum(g)/n - xhat*sum(g*xhat)/n), from
        # two per-channel reductions over g and the recentred input, which
        # the tape does not keep; gx is computed in place over the latter
        g3 = g.reshape(x3.shape)
        gbeta, dot, gx = _bn_reduce(g3, x3, mean, tiles)
        ggamma = dot * inv
        if training:
            shift_g, scale_xc = gbeta / n, inv * ggamma / n

            def combine(t, slot):
                o = gx[t]
                s = tile_pool.carve(slot, o.shape, o.dtype)
                np.subtract(g3[t], shift_g[t[1], None], out=s)
                np.multiply(o, scale_xc[t[1], None], out=o)
                np.subtract(s, o, out=o)
                np.multiply(o, scale_c[t[1], None], out=o)

            tile_pool.run(combine, tiles[::-1], x3.size, scratch=(max(gx[t].nbytes for t in tiles),))
        else:
            tile_pool.run(lambda t: np.multiply(g3[t], scale_c[t[1], None], out=gx[t]),
                          tiles[::-1], x3.size)
        return gx.reshape(x.shape), ggamma, gbeta

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

    def vjp(g):
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        lead = tuple(range(x.ndim - 1))
        return gx.astype(x.data.dtype, copy=False), (g * xhat).sum(axis=lead), g.sum(axis=lead)

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
