"""Convolutions: conv1d and conv2d, and the one kernel they share.

`_conv_taps` runs both, a 1D input being a 2D one of width 1.  Each time tap
is a batched matmul on a window of rows, and no conv pads its input: zero
borders are written into the taps, or left out of the rows a tap reads.  A
depthwise conv (one input and one output channel per group: the S-CNNs of
the later TF blocks) multiplies the input rows each time tap reaches by
banded weights that hold the frequency taps and padding (`_banded`).  Every
other conv copies each output tile's taps into a scratch slot of its lane
(`_dense`): kh time taps over the kw frequency taps, split by phase mod
stride, or, for a single input channel (the fold: the first TF block), one
time tap whose K holds all kh*kw taps.  `_taps` is the only tap copy.  Every
conv runs as output tiles of one rule (`_tiles`): whole clips, or a block of
one clip's rows, of about pool.TILE_BYTES of the tile's largest scratch
buffer: its taps, or its tap products (a depthwise conv's only buffer) or an
epilogue's tile where those are larger.

The input gradient is the same kernel run on g itself with the flipped,
group-transposed kernel, padded by dilation*(kh-1) - pad rows and kw-1 - pad
columns (a negative pad crops) and zero-inserted only where stride > 1;
where the taps fold, it is the col2im of W^T g, clip by clip; where no
tape tracks the input, there is none.  The VJP keeps each conv's input,
from which the weight gradient copies its taps again, one tile at a time
in a lane's slot; the caller adds each tile's products in batch order, as
one pass would.  Every job of the VJP is a job
of its own on the pool of `pool`: none starts inside another.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import DimensionError
from . import pool
from .core import Tensor, apply_op, recording


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


def conv2d_tiles(x: Tensor, weight: Tensor, bias: Optional[Tensor], padding: int,
                 epilogue) -> None:
    """The forward value of conv2d(x, weight, bias, padding=padding), handed
    on tile by tile: each output tile is made, with its tap products, in its
    lane's scratch slot and passed while in cache to epilogue(tile, clips,
    r0, r1), the tile (clips, C_out, (r1 - r0) * W_out) holding output rows
    r0..r1 of those clips.  A tile holds whole rows.  No output is made and
    no tape records."""
    _conv_taps(2, x, weight, bias, 1, padding, 1, 1, epilogue)


def _tiles(b, h_out, row_bytes, extra=0) -> list:
    """(clips, rows) of each output tile of a conv of b clips of h_out
    output rows whose largest scratch buffer holds row_bytes per output row
    and per tile `extra` rows more: whole clips, or a block of one clip's
    rows (a range), of about pool.TILE_BYTES of that buffer."""
    return [(clips, range(h_out)[rows])
            for clips in pool.flat_tiles(b, (h_out + extra) * row_bytes)
            for rows in pool.flat_tiles(h_out, row_bytes)]


def _inside(first: int, step: int, n: int, size: int) -> tuple:
    """(lo, hi), lo <= hi: first + k * step lies in range(size), for k in
    range(n), just when lo <= k < hi."""
    lo = min(n, max(0, -(first // step)))
    return lo, max(lo, min(n, -((first - size) // step)))


def _span(first: int, step: int, lo: int, hi: int) -> slice:
    """first + k * step for lo <= k < hi, as a slice of an axis that holds them."""
    return slice(first + lo * step, first + hi * step, step)


def _taps(x, pads, offsets, kw, stride, w_out, r0, n, buf) -> np.ndarray:
    """The taps of x (B, C, H, W) zero-padded by pads = (ph, pw), n rows of
    them from row r0 at each padded row offset: (B, len(offsets), C, kw, n,
    W_out), on the front of the flat byte buffer `buf` if given.  [:, a, :,
    j, r, f] is padded column j + stride * f of padded row offsets[a] + (r0 +
    r) * stride, zero outside x; a pad may be negative.  It runs in the
    caller's lane."""
    h, w = x.shape[-2:]
    ph, pw = pads
    cols = pool.carve(buf, (len(x), len(offsets), x.shape[1], kw, n, w_out), x.dtype)
    for a, offset in enumerate(offsets):
        first = offset + r0 * stride - ph  # x's row of tap row 0
        lo, hi = _inside(first, stride, n, h)
        dst = cols[:, a]
        dst[..., :lo, :] = 0
        dst[..., hi:, :] = 0
        src = x[:, :, _span(first, stride, lo, hi)]
        for j in range(kw):
            f0, f1 = _inside(j - pw, stride, w_out, w)
            tap = dst[:, :, j, lo:hi]
            tap[..., :f0] = 0
            tap[..., f1:] = 0
            tap[..., f0:f1] = src[..., _span(j - pw, stride, f0, f1)]
    return cols


def _tap_weights(w4, groups) -> np.ndarray:
    """(C_out, C_in/groups, kh, kw) -> (kh, groups, og, C_in/groups * kw): time tap i's weights."""
    c_out, cg, kh, kw = w4.shape
    og = c_out // groups
    return np.ascontiguousarray(
        w4.reshape(groups, og, cg, kh, kw).transpose(3, 0, 1, 2, 4)
    ).reshape(kh, groups, og, cg * kw)


def _bands(w4, w, w_out, stride, pw) -> np.ndarray:
    """Depthwise weights w4 (C, 1, kh, kw) as bands (kh, C, W, W_out):
    [i, c, q, f] = w4[c, 0, i, q + pw - stride * f] where that tap exists,
    else 0, so that a row of width W times bands[i, c] is time tap i of
    channel c along that row, its frequency padding included."""
    c, _, kh, kw = w4.shape
    bands = np.zeros((kh, c, w, w_out), dtype=w4.dtype)
    f = np.arange(w_out)
    for j in range(kw):
        q = stride * f + j - pw
        inside = (q >= 0) & (q < w)
        bands[:, :, q[inside], f[inside]] = w4[:, 0, :, j].T[:, :, None]
    return bands


def _banded(x, bands, stride, ph, h_out, bias=None, out=None) -> np.ndarray:
    """The depthwise conv of x (B, C, H, W) with `bands` (kh, C, W, W_out),
    time padding ph: (B, C, h_out, W_out), into `out` if given.

    Time tap i of output row o reads input row o * stride + i - ph.  A tile
    is whole clips or a block of one clip's rows (`_tiles`), of about
    pool.TILE_BYTES of tap products; each time tap is one matmul on it, over
    the rows whose input row lies inside x, so the input is never padded.  A
    tile adds its taps in index order, then the bias, as `_dense` does, rows
    that tap 0 does not reach starting from zero; it makes its tap products
    in a scratch slot of its lane.  In float32 the bits do not depend on the
    tile; in float64 a matmul of one row, which numpy gives to GEMV, rounds
    unlike a GEMM."""
    b, c, h, _ = x.shape
    kh, _, _, w_out = bands.shape
    if out is None:
        out = np.empty((b, c, h_out, w_out), dtype=x.dtype)
    row_bytes = c * w_out * x.itemsize
    tiles = _tiles(b, h_out, row_bytes)
    reach = [_inside(i - ph, stride, h_out, h) for i in range(kh)]

    def tile(t, prod_buf):
        clips, rows = t
        o = out[clips, :, rows.start : rows.stop]
        for i, (lo, hi) in enumerate(reach):
            lo = min(max(lo, rows.start), rows.stop)
            hi = max(min(hi, rows.stop), lo)
            src = x[clips, :, _span(i - ph, stride, lo, hi)]
            part = o[:, :, lo - rows.start : hi - rows.start]
            if i == 0:
                o[:, :, : lo - rows.start] = 0
                o[:, :, hi - rows.start :] = 0
                np.matmul(src, bands[0], out=part)
            else:
                part += np.matmul(src, bands[i], out=pool.carve(prod_buf, part.shape, x.dtype))
        if bias is not None:
            o += bias[:, None, None]

    slot = row_bytes * max(len(range(b)[clips]) * len(rows) for clips, rows in tiles)
    pool.run(tile, tiles, b * h_out * w_out, (slot,))
    return out


def _window(cols, i, dilation, rows) -> np.ndarray:
    """Time tap i's view of the first `rows` output rows in cols (n, stride,
    groups, k, H', W_out): (n, groups, k, rows * W_out).  Output row o reads
    padded row i*dilation + o*stride, which is row (i*dilation)//stride + o
    of phase (i*dilation) % stride."""
    q, a = divmod(i * dilation, cols.shape[1])
    window = cols[:, a, :, :, q : q + rows]
    return window.reshape(*window.shape[:3], -1)


def _tap_tiles(x, shape, pads, offsets, kw, stride, dilation, h_out, w_out,
               out_row=0) -> tuple:
    """The output tiles of the conv of x (B, C, H, W), zero-padded by pads,
    with tap weights of `shape` (kt, groups, og, k); taps(tile, buf), the
    tile's taps (clips, phases, groups, k, H', w_out) on the front of the
    flat byte buffer buf; and the bytes of the largest tile's taps.

    A tile's taps are those `_taps` makes at the padded row offsets, over its
    rows and the dilation*(kt-1)/len(offsets) after them: the phases mod
    stride, which the kt time taps read, or the fold's kernel rows, which one
    time tap reads.  The tiles (`_tiles`) are sized by the taps, or by the
    tile's other scratch buffers, of out_row bytes per output row, where
    those are larger."""
    kt, groups, _, k = shape
    extra = dilation * (kt - 1) // len(offsets)
    row_bytes = x.itemsize * len(offsets) * x.shape[1] * kw * w_out
    tiles = _tiles(len(x), h_out, max(row_bytes, out_row), extra)

    def taps(t, buf):
        clips, rows = t
        cols = _taps(x[clips], pads, offsets, kw, stride, w_out, rows.start, len(rows) + extra,
                     buf)
        return cols.reshape(len(cols), -1, groups, k, *cols.shape[-2:])

    most = max(len(range(len(x))[c]) * (len(rows) + extra) for c, rows in tiles)
    return tiles, taps, row_bytes * most


def _dense(x, wt, pads, offsets, kw, stride, dilation, h_out, w_out, bias=None, out=None,
           epilogue=None) -> Optional[np.ndarray]:
    """Convolve x (B, C, H, W), zero-padded by pads, with tap weights wt
    (kt, groups, og, k): (B, groups, og, h_out * w_out), into `out` if given.

    Each time tap is one matmul on a window of a tile's taps (`_tap_tiles`),
    the groups a batch axis.  A tile adds its taps in index order, then the
    bias; it copies its taps and makes its tap products in a scratch slot of
    its lane (`pool.run`).

    With `epilogue`, there is no output: each tile is made in the slot too,
    and handed on while in cache to epilogue(tile, clips, r0, r1), the tile
    (clips, C_out, (r1 - r0) * w_out) holding output rows r0..r1.
    """
    kt, groups, og, _ = wt.shape
    b = len(x)
    out_row = x.itemsize * groups * og * w_out
    tiles, taps, tap_bytes = _tap_tiles(x, wt.shape, pads, offsets, kw, stride, dilation,
                                        h_out, w_out, out_row * (kt > 1 or epilogue is not None))
    if out is None and epilogue is None:
        out = np.empty((b, groups, og, h_out * w_out), dtype=x.dtype)

    def tile(t, tap_buf, prod_buf, tile_buf=None):
        clips, rows = t
        cols = taps(t, tap_buf)
        shape = (len(cols), groups, og, len(rows) * w_out)
        if epilogue is None:
            o = out[clips, :, :, rows.start * w_out : rows.stop * w_out]
        else:
            o = pool.carve(tile_buf, shape, x.dtype)
        np.matmul(wt[0], _window(cols, 0, dilation, len(rows)), out=o)
        for i in range(1, kt):
            o += np.matmul(wt[i], _window(cols, i, dilation, len(rows)),
                           out=pool.carve(prod_buf, shape, x.dtype))
        if bias is not None:
            o += bias.reshape(groups, og, 1)
        if epilogue is not None:
            epilogue(o.reshape(len(o), -1, o.shape[-1]), clips, rows.start, rows.stop)

    tile_bytes = out_row * max(len(range(b)[c]) * len(rows) for c, rows in tiles)
    # a lane's slot: its taps, its tap products, and the tile where there is an epilogue
    scratch = (tap_bytes, tile_bytes * (kt > 1), tile_bytes * (epilogue is not None))
    pool.run(tile, tiles, b * h_out * w_out, scratch)
    return out


def _weight_grad(x, g4, gw, pads, offsets, kw, stride, dilation, h_out, w_out) -> None:
    """Add to gw (kt, groups, og, k) the weight gradient of the conv of x
    (B, C, H, W), zero-padded by pads, whose output has gradient g4 (B,
    groups, og, h_out * w_out).

    Each output tile copies its taps as a forward tile does (`_tap_tiles`,
    its tiles sized by the taps alone) and makes its kt tap products
    (clips, groups, og, k) in its lane's slot; the caller adds them per time
    tap, clip by clip, in tile order, the order of a sum over the batch
    axis."""
    kt, groups, og, k = gw.shape
    tiles, taps, tap_bytes = _tap_tiles(x, gw.shape, pads, offsets, kw, stride, dilation,
                                        h_out, w_out)

    def products(t, tap_buf, prod_buf):
        clips, rows = t
        cols = taps(t, tap_buf)
        prod = pool.carve(prod_buf, (kt, len(cols), groups, og, k), x.dtype)
        part = g4[clips, :, :, rows.start * w_out : rows.stop * w_out]
        for i in range(kt):
            np.matmul(part, _window(cols, i, dilation, len(rows)).swapaxes(-1, -2), out=prod[i])
        return prod

    def add(prod):
        for gw_i, clips in zip(gw, prod):
            for clip in clips:
                gw_i += clip

    most = max(len(range(len(x))[c]) for c, _ in tiles)
    pool.run(products, tiles, len(x) * h_out * w_out, (tap_bytes, most * gw.nbytes), add)


def _conv_taps(spatial, x, weight, bias, stride, padding, dilation, groups,
               epilogue=None) -> Optional[Tensor]:
    """The one convolution kernel, for 1D (weight (C_out, C_in, k)) and 2D
    (weight (C_out, C_in/groups, kh, kw)); a 1D input is a 2D one of width 1.

    The weight's shape picks the layout (see the module docstring).  The
    VJP keeps the input, not its taps: the weight gradient copies them
    again, tile by tile (`_weight_grad`).  With `epilogue`, for a conv that
    is not depthwise, there is no output (`conv2d_tiles`).
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
    n_out = h_out * w_out
    fold = groups == 1 and c_in == 1
    depthwise = groups > 1 and cg == og == 1
    if fold:
        # one time tap (kt) whose K holds all kh*kw taps, at each kernel row's offset
        kt, kf, offsets = 1, kh * kw, [i * dilation for i in range(kh)]
    else:
        # kh time taps over the padded rows of each phase mod stride
        kt, kf, offsets = kh, kw, range(stride)
    wt = _tap_weights(w4.reshape(c_out, cg, kt, kf), groups)
    b_data = None if bias is None else bias.data
    if depthwise:
        out = _banded(x4, _bands(w4, w, w_out, stride, pw), stride, ph, h_out, b_data)
    else:
        out = _dense(x4, wt, (ph, pw), offsets, kw, stride, dilation, h_out, w_out, b_data,
                     epilogue=epilogue)
    if epilogue is not None:
        return None
    out = out.reshape((*x.shape[: x.ndim - spatial - 1], c_out, h_out, w_out)[: x.ndim])
    x_shape, w_shape, has_bias = x.shape, weight.shape, bias is not None

    def input_grad(g3):
        gx = np.empty(x4.shape, dtype=x4.dtype)
        if fold:
            # W^T g, then its col2im, clip by clip in a lane slot
            wt_t = wt[0, 0].T
            hp, wp = h + 2 * ph, w + 2 * pw

            def clip_grad(c, gcols_buf, pad_buf):
                gcols = np.matmul(wt_t, g3[c], out=pool.carve(gcols_buf, (kf, n_out), x4.dtype))
                gcols = gcols.reshape(kf, h_out, w_out)
                gxp = pool.carve(pad_buf, (hp, wp), x4.dtype)
                gxp.fill(0)
                for a, r in enumerate(offsets):
                    for j in range(kw):
                        gxp[r : r + stride * h_out : stride, j : j + stride * w_out : stride] += (
                            gcols[a * kw + j])
                gx[c, 0] = gxp[ph : ph + h, pw : pw + w]

            pool.run(clip_grad, range(b), b * n_out,
                     (kf * n_out * x4.itemsize, hp * wp * x4.itemsize))
        else:
            # the flipped, group-transposed kernel on g, padded by the
            # kernel's reach less the pads and zero-inserted where stride > 1
            eh, ew = dilation * (kh - 1), kw - 1
            hg, wg = stride * (h_out - 1) + 1, stride * (w_out - 1) + 1
            gz = g3.reshape(b, c_out, h_out, w_out)
            if stride > 1:
                gz = np.zeros((b, c_out, hg, wg), dtype=x4.dtype)
                gz[:, :, ::stride, ::stride] = g3.reshape(b, c_out, h_out, w_out)
            flipped = w4.reshape(groups, og, cg, kh, kw).transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1]
            if depthwise:
                _banded(gz, _bands(flipped.reshape(c_in, 1, kh, kw), wg, w, 1, ew - pw),
                        1, eh - ph, h, out=gx)
            else:
                _dense(gz, _tap_weights(flipped.reshape(c_in, og, kh, kw), groups),
                       (eh - ph, ew - pw), [0], kw, 1, dilation, h, w,
                       out=gx.reshape(b, groups, cg, h * w))
        return gx.reshape(x_shape)

    want_gx = recording(x)  # no input gradient where nothing reads it

    def vjp(g):
        g3 = g.reshape(b, c_out, n_out)
        gx = input_grad(g3) if want_gx else None
        gw = np.zeros_like(wt)
        _weight_grad(x4, g3.reshape(b, groups, og, n_out), gw, (ph, pw), offsets, kw, stride,
                     dilation, h_out, w_out)
        gw = gw.reshape(kt, groups, og, cg, kf).transpose(1, 2, 3, 0, 4).reshape(w_shape)
        if not has_bias:
            return gx, gw
        return gx, gw, g3.sum(axis=(0, 2))

    return apply_op(out, (x, weight) if bias is None else (x, weight, bias), vjp)
