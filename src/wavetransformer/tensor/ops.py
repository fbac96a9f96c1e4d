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

The GEMMs run as tiles of (clip, block of output rows) on one thread pool
(`_run`); the weight gradient spreads its (time tap, clip) products over
the pool.  Tile boundaries follow from the conv's shapes alone and every
tile keeps the accumulation order of the whole GEMM, so results are
bit-reproducible run to run and do not depend on the worker count.

A VJP keeps what it needs to run and no more: the tape holds each op's
inputs anyway, so the convolutions rebuild their tap buffers from them, a
few clips at a time, and training batch norm recentres its input, rather
than keeping copies until backward.  The conv VJP's chunks of clips run on
the pool too, at most one per worker, each in a slot of buffers the caller
allocated once per VJP (buffers allocated inside the workers grow peak
memory with the worker count); the caller adds each chunk's weight-gradient
products in batch order, as one pass would.
"""
from __future__ import annotations

import collections
import math
import os
import threading
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
    """max(a, slope * a), which is the leaky ReLU for 0 < slope <= 1 (a zero
    slope would make max(inf, inf * 0) NaN; relu is that case)."""
    if not 0.0 < slope <= 1.0:
        raise ConfigError(f"leaky_relu slope must be in (0, 1], got {slope}")
    out = np.maximum(a.data, a.data * a.data.dtype.type(slope))

    def vjp(g):
        return (np.where(a.data >= 0, g, g * g.dtype.type(slope)),)

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


# The conv VJP builds its tap buffers a few clips at a time: as many clips
# as fit this many bytes of them, and at least one.
_VJP_CHUNK_BYTES = 8 << 20

# The conv GEMMs, and the conv VJP's chunks, run on a pool of one thread per
# CPU this process may use, made on first use.  A job of fewer than _TILE_COLS output columns over the
# batch runs whole, inline.  Otherwise an output tile is one clip's block of
# rows: a multiple of _TILE_ROWS rows and at least _TILE_COLS columns where
# the clip has them, so every tile but a clip's last starts and ends on the
# BLAS kernels' column blocks, as the whole GEMM's do.  A conv with one
# output channel per group is a GEMV per group, whose bits depend on its
# column count, so it is tiled by blocks of _TILE_GROUPS groups instead,
# every GEMV whole.  Copies split by the same blocks of channels.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_TILE_COLS = 4096
_TILE_ROWS = 16
_TILE_GROUPS = 16
_pool: Optional[tuple] = None  # ((pid, workers), executor)
_pool_lock = threading.Lock()
_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


def _lanes(cols: int, n: int) -> int:
    """How many of the n tasks of a job of `cols` output columns run at
    once.  A job below _TILE_COLS, a single task, one worker, and a call
    from inside a pool task (which would wait on tasks queued behind it) run
    inline, one at a time; any other job runs on up to _WORKERS threads."""
    if cols < _TILE_COLS or n < 2 or _WORKERS < 2 or getattr(_worker, "active", False):
        return 1
    return min(n, _WORKERS)


def _executor():
    """The pool, made on first use and again in a forked child or after
    _WORKERS changes."""
    global _pool
    key = (os.getpid(), _WORKERS)
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            # imported here: concurrent.futures adds ~10 ms to every start-up
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None and _pool[0][0] == key[0]:
                _pool[1].shutdown(wait=False)
            _pool = (key, ThreadPoolExecutor(_WORKERS, thread_name_prefix="conv-tile",
                                             initializer=_mark_worker))
        return _pool[1]


def _run(fn, tasks, cols: int, consume=None) -> None:
    """Call fn(*task) for every task of a job of `cols` output columns, each
    task writing its own part of buffers the caller allocated, with
    _lanes(cols, len(tasks)) tasks at a time.

    Given `consume`, the caller's thread calls consume(fn(*task)) in task
    order, and submits a task only once the one `lanes` places before it has
    been consumed: at most `lanes` tasks are in flight, and task k may reuse
    the buffers of task k - lanes.  Whatever a task raises propagates only
    after every task in flight has finished, so none writes into the
    caller's buffers after the call returns."""
    lanes = _lanes(cols, len(tasks))
    window = len(tasks) if consume is None else lanes
    consume = consume or (lambda result: None)
    if lanes == 1:
        for task in tasks:
            consume(fn(*task))
        return
    pool = _executor()
    pending = collections.deque()
    try:
        for task in tasks:
            if len(pending) == window:
                consume(pending.popleft().result())
            pending.append(pool.submit(fn, *task))
        while pending:
            consume(pending.popleft().result())
    finally:
        for future in pending:
            future.exception()  # waits; an error already propagating wins


def _split(n: int, size: int, cols: int) -> list:
    """range(n) in slices of `size`, or whole for a job of `cols` columns
    that runs inline."""
    if cols < _TILE_COLS:
        return [slice(None)]
    return [slice(k, k + size) for k in range(0, n, size)]


def _tiles(b, groups, og, h_out, w_out) -> list:
    """(clips, groups, first row, end row) of each output tile; see _TILE_COLS."""
    cols = b * h_out * w_out
    if og == 1:
        return [(c, g, 0, h_out) for c in _split(b, 1, cols)
                for g in _split(groups, _TILE_GROUPS, cols)]
    starts = [0]
    if cols >= _TILE_COLS:
        # as many tiles as a clip has whole _TILE_COLS, in whole _TILE_ROWS
        rows = h_out // max(1, h_out * w_out // _TILE_COLS) // _TILE_ROWS * _TILE_ROWS
        if rows:
            starts = list(range(0, h_out - rows + 1, rows))
    return [(c, slice(None), r, end) for c in _split(b, 1, cols)
            for r, end in zip(starts, starts[1:] + [h_out])]


def _carve(buf, shape, dtype) -> np.ndarray:
    """An array of `shape` on the front of the flat buffer `buf`, or a new
    one if `buf` is None."""
    if buf is None:
        return np.empty(shape, dtype=dtype)
    return buf[: math.prod(shape)].reshape(shape)


def _zeros(buf, shape, dtype) -> np.ndarray:
    """Zeros of `shape` on the front of the flat buffer `buf`, or new ones if
    `buf` is None."""
    if buf is None:
        return np.zeros(shape, dtype=dtype)
    out = _carve(buf, shape, dtype)
    out.fill(0)
    return out


def _tap_cols(xp, rows, kw, stride, w_out, out=None) -> np.ndarray:
    """Taps of the padded input xp (B, C, Hp, Wp): (B, len(rows), C, kw, H', W_out),
    [:, a, :, j] holding time rows `rows[a]` at frequency tap j; on the front
    of the flat buffer `out` if given."""
    b, c, hp, _ = xp.shape
    h = len(range(*rows[0].indices(hp)))
    cols = _carve(out, (b, len(rows), c, kw, h, w_out), xp.dtype)

    def copy(a, ch):
        for j in range(kw):
            cols[:, a, ch, j] = xp[:, ch, rows[a], j : j + stride * w_out : stride]

    _run(copy, [(a, ch) for a in range(len(rows)) for ch in _split(c, _TILE_GROUPS, b * h * w_out)],
         b * h * w_out)
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


def _per_tap(cols, wt, dilation, h_out, w_out, bias=None, out=None, tap=None) -> np.ndarray:
    """Convolve with tap weights wt (kh, groups, og, k), given the kw
    frequency taps of the padded input by row phase, (B, stride, C_in, kw,
    Hp/stride, W_out): (B, groups, og, h_out * w_out), into `out` if given.
    `tap` is an optional flat scratch buffer of at least out's size.

    Each time tap is one matmul on a window of rows, the groups a batch
    axis.  A tile adds its taps in index order, then the bias.
    """
    kh, groups, og, k = wt.shape
    b, stride, _, _, hs, _ = cols.shape
    cols = cols.reshape(b, stride, groups, k, hs, w_out)
    if out is None:
        out = np.empty((b, groups, og, h_out * w_out), dtype=cols.dtype)
    if kh > 1:
        tap = _carve(tap, out.shape, out.dtype)

    def tile(clips, grp, r0, r1):
        span = slice(r0 * w_out, r1 * w_out)
        o = out[clips, grp, :, span]
        np.matmul(wt[0, grp], _window(cols, clips, grp, 0, dilation, r0, r1), out=o)
        for i in range(1, kh):
            o += np.matmul(wt[i, grp], _window(cols, clips, grp, i, dilation, r0, r1),
                           out=tap[clips, grp, :, span])
        if bias is not None:
            o += bias.reshape(groups, og, 1)[grp]

    _run(tile, _tiles(b, groups, og, h_out, w_out), b * h_out * w_out)
    return out


def _weight_grad(cols, g4, kh, dilation, h_out, w_out, prod=None) -> np.ndarray:
    """The weight gradient of output gradient g4 (n, groups, og, h_out *
    w_out) over the taps `cols` (as in _per_tap), per time tap and clip:
    (kh, n, groups, og, k), on the front of the flat buffer `prod` if given.
    The products run per (tap, clip) on the pool; the caller adds them clip
    by clip in batch order, the order of a sum over the batch axis."""
    n, groups, og, _ = g4.shape
    k = cols.shape[2] * cols.shape[3] // groups
    cols = cols.reshape(n, cols.shape[1], groups, k, cols.shape[-2], w_out)
    prod = _carve(prod, (kh, n, groups, og, k), g4.dtype)

    def product(i, clips):
        window = _window(cols, clips, slice(None), i, dilation, 0, h_out)
        np.matmul(g4[clips], window.swapaxes(-1, -2), out=prod[i, clips])

    n_out = h_out * w_out
    _run(product, [(i, c) for i in range(kh) for c in _split(n, 1, n * n_out)], n * n_out)
    return prod


def _conv_taps(spatial, x, weight, bias, stride, padding, dilation, groups) -> Tensor:
    """The one convolution kernel, for 1D (weight (C_out, C_in, k)) and 2D
    (weight (C_out, C_in/groups, kh, kw)); a 1D input is a 2D one of width 1.

    The weight's shape picks the regime (see the module docstring); the
    single-channel regime is the per-tap one with one time tap of all kh*kw
    taps.  The tape keeps the input, not a tap buffer: the VJP rebuilds the
    buffers over chunks of clips of about `_VJP_CHUNK_BYTES`.
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

    def padded(xs, buf=None):
        xp = _zeros(buf, (len(xs), c_in, hs * stride, wp), xs.dtype)
        xp[:, :, ph : ph + h, pw : pw + w] = xs
        return xp

    if fold:
        w2 = w4.reshape(1, 1, c_out, kh * kw)
        rows = [slice(i * dilation, i * dilation + stride * h_out, stride) for i in range(kh)]

        def taps(xs, pad=None, buf=None):
            cols = _tap_cols(padded(xs, pad), rows, kw, stride, w_out, buf)
            return cols.reshape(len(xs), 1, 1, kh * kw, h_out, w_out)

        out = _per_tap(taps(x4), w2, 1, h_out, w_out, b_data)
    else:
        wt = _tap_weights(w4, groups)
        phases = [slice(p, None, stride) for p in range(stride)]

        def taps(xs, pad=None, buf=None):
            return _tap_cols(padded(xs, pad), phases, kw, stride, w_out, buf)

        out = _per_tap(taps(x4), wt, dilation, h_out, w_out, b_data)
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
    step = min(b, max(1, _VJP_CHUNK_BYTES // (clip_bytes * x4.itemsize)))

    # A chunk of the VJP runs in a slot of two flat buffers for up to `step`
    # clips, reused from chunk to chunk: `buf` holds the gradient's taps and
    # then the input's, and `pad` the zero-inserted gradient (the fold's
    # col2im target), _per_tap's scratch, the zero-bordered input and at last
    # the weight-gradient products, which the chunk returns for the caller to
    # add in batch order.  It writes its input gradient into gxs.
    def fold_chunk(xs, gs, gxs, slot, w_in):
        pad, buf = slot
        n = len(xs)
        # W^T g, then col2im clip by clip
        gcols = _per_tap(gs.reshape(n, 1, c_out, 1, h_out, w_out), w_in, 1, h_out, w_out,
                         out=_carve(buf, (n, 1, kh * kw, n_out), xs.dtype))
        gcols = gcols.reshape(n, kh * kw, h_out, w_out)
        gxp = _zeros(pad, (n, 1, hs * stride, wp), xs.dtype)

        def col2im(c):
            for a in range(kh):
                for j in range(kw):
                    gxp[c, 0, rows[a], j : j + stride * w_out : stride] += gcols[c, a * kw + j]

        _run(col2im, [(c,) for c in _split(n, 1, n * n_out)], n * n_out)
        gxs[...] = gxp[:, :, ph : ph + h, pw : pw + w]
        cols = taps(xs, pad, buf)
        return _weight_grad(cols, gs.reshape(n, 1, c_out, n_out), 1, 1, h_out, w_out, pad)

    def per_tap_chunk(xs, gs, gxs, slot, w_in):
        pad, buf = slot
        n = len(xs)
        gb = _zeros(pad, (n, c_out, hb, wb), xs.dtype)
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
        starts = range(0, b, step)
        # at most `lanes` chunks run at once, chunk k in slot k % lanes
        lanes = _lanes(b * n_out, len(starts))
        slots = [tuple(np.empty(step * size, dtype=x4.dtype) for size in (clip_pad, clip_taps))
                 for _ in range(lanes)]

        def add(prod):
            for gw_i, prods in zip(gw, prod):
                for clip in prods:
                    gw_i += clip

        tasks = [(x4[s : s + step], g3[s : s + step], gx[s : s + step], slots[k % lanes], w_in)
                 for k, s in enumerate(starts)]
        _run(fold_chunk if fold else per_tap_chunk, tasks, b * n_out, add)
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

def _channel_dot(a3: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """Per-channel dot product of two (lead, C, rest) arrays: (C,)."""
    return np.matmul(a3[:, :, None, :], b3[:, :, :, None]).sum(axis=(0, 2, 3))


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
    channel_axis %= x.ndim
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batch_norm: gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}"
        )
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise DimensionError("batch_norm: running statistics shape mismatch")

    if training:
        # (lead, C, rest): per-channel sums are contiguous row sums
        x3 = x.data.reshape(int(np.prod(x.shape[:channel_axis])), c, -1)
        n = x.size // c
        mean = x3.sum(axis=2).sum(axis=0) / n
        out = x3 - mean[:, None]
        var = _channel_dot(out, out) / n
        inv = 1.0 / np.sqrt(var + eps)
        out *= (gamma.data * inv)[:, None]
        out += beta.data[:, None]
        unbiased = var * (n / max(n - 1, 1))
        running_mean[:] = (1 - momentum) * running_mean + momentum * mean
        running_var[:] = (1 - momentum) * running_var + momentum * unbiased

        def vjp(g):
            # gx = inv*gamma*(g - sum(g)/n - xhat*sum(g*xhat)/n): two
            # per-channel reductions over g and the recentred input, which
            # the tape does not keep
            g3 = g.reshape(x3.shape)
            xc = x3 - mean[:, None]
            gbeta = g3.sum(axis=2).sum(axis=0)
            ggamma = _channel_dot(g3, xc) * inv
            gx = g3 - (gbeta / n)[:, None]
            xc *= (inv * ggamma / n)[:, None]
            gx -= xc
            gx *= (gamma.data * inv)[:, None]
            return gx.reshape(x.shape), ggamma, gbeta

        return apply_op(out.reshape(x.shape), (x, gamma, beta), vjp)

    # eval mode: the running statistics fold into one scale and one shift
    axes = tuple(i for i in range(x.ndim) if i != channel_axis)
    bshape = [1] * x.ndim
    bshape[channel_axis] = c
    inv = 1.0 / np.sqrt(running_var + eps)
    scale_c = (gamma.data * inv).reshape(bshape)
    shift_c = beta.data.reshape(bshape) - running_mean.reshape(bshape) * scale_c
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
