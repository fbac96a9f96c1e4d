"""Shared test utilities: finite-difference gradient checking and oracles.

The finite-difference checker is the independent route against which every
analytic gradient is verified.  It never calls backward itself for the
expected value; it only re-evaluates the forward function.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from wavetransformer.audio import AudioClip, AudioConfig, extract_features
from wavetransformer.tensor import Tape, Tensor, backward, pool

_RUN = pool.run


def rel_err(a: np.ndarray, b: np.ndarray, floor: float) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def finite_difference_grad(fn: Callable[[], Tensor], t: Tensor, h: float) -> np.ndarray:
    """Central differences of the scalar fn() w.r.t. every element of t."""
    flat = t.data.reshape(-1)
    grad = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn().item()
        flat[i] = orig - h
        f_minus = fn().item()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(t.shape)


def gradcheck(
    fn: Callable[[], Tensor],
    wrt: Sequence[Tensor],
    h: float = 1e-3,
    rtol: float = 1e-3,
    floor: float = 1e-5,
) -> float:
    """Assert analytic gradients of scalar fn() match central differences.

    fn must be deterministic across calls (re-seed any RNG inside).
    Returns the worst relative error seen.
    """
    for t in wrt:
        t.zero_grad()
    with Tape() as tape:
        loss = fn()
    backward(loss, tape)
    worst = 0.0
    for t in wrt:
        assert t.grad is not None, "no gradient reached a checked tensor"
        fd = finite_difference_grad(fn, t, h)
        err = rel_err(fd, t.grad.astype(np.float64), floor)
        worst = max(worst, float(err.max()))
        assert err.max() <= rtol, (
            f"gradient mismatch: max rel err {err.max():.3e} > {rtol:.0e} "
            f"(shape {t.shape})"
        )
    return worst


class PooledJobs(list):
    """The task counts of the pool's jobs large enough to leave the
    caller's thread, in call order.  A job started inside a task of any job
    runs inline and is not listed, so the list does not depend on the worker
    count; `nested` counts those jobs.

    For the in-order jobs (those with a consumer): `ordered_on_pool` counts
    their tasks that ran off the caller's thread, `most_in_flight` is the
    most of them started and not yet consumed at once, and `running` the
    tasks started and not yet finished.
    """

    nested = 0
    ordered_on_pool = 0
    most_in_flight = 0
    running = 0


def record_pooled_jobs(monkeypatch) -> PooledJobs:
    """Wrap `pool.run` for the rest of the test and record its jobs in the
    returned PooledJobs."""
    jobs = PooledJobs()
    lock = threading.Lock()
    inside = threading.local()

    def within(fn):
        def task(*args):
            inside.job = True
            try:
                return fn(*args)
            finally:
                inside.job = False
        return task

    def spy(fn, tasks, cols, scratch=(), consume=None):
        if getattr(inside, "job", False):
            with lock:
                jobs.nested += 1
            return _RUN(fn, tasks, cols, scratch, consume)
        if pool.inline(cols, len(tasks)):
            return _RUN(within(fn), tasks, cols, scratch, consume)
        jobs.append(len(tasks))
        caller = threading.current_thread()
        in_flight = 0

        def task(*args):
            nonlocal in_flight
            with lock:
                jobs.running += 1
                if consume is not None:
                    in_flight += 1
                    jobs.most_in_flight = max(jobs.most_in_flight, in_flight)
                    jobs.ordered_on_pool += threading.current_thread() is not caller
            try:
                return within(fn)(*args)
            finally:
                with lock:
                    jobs.running -= 1

        def consumed(result):
            nonlocal in_flight
            consume(result)
            with lock:
                in_flight -= 1

        return _RUN(task, tasks, cols, scratch, consume and consumed)

    monkeypatch.setattr(pool, "run", spy)
    return jobs


def frame_tile_rows(frames: int, monkeypatch) -> list:
    """The frames of each tile of one feature extraction of a clip of
    `frames` frames, as `pool.run` is given them."""
    rows, run = [], pool.run

    def spy(fn, tiles, cols, scratch=(), consume=None):
        rows.extend(len(range(frames)[t]) for t in tiles)
        return run(fn, tiles, cols, scratch, consume)

    cfg = AudioConfig()
    samples = np.random.default_rng(0).uniform(-1, 1, (frames - 1) * cfg.hop + 300)
    with monkeypatch.context() as m:
        m.setattr(pool, "run", spy)
        extract_features(AudioClip(samples, cfg.sample_rate), cfg)
    return rows


def clip_taps(x_shape, w_shape, stride=1, padding=0, dilation=1, groups=1) -> int:
    """The bytes of one clip's taps in the forward and the weight gradient
    of a float32 conv of input x_shape and weight w_shape, the buffer that
    sizes their tiles: C_in * kw * W_out floats for each output row and the
    dilation * (kh - 1) rows after them, at stride s for each of s phases
    and over (kh - 1) / s rows after them; for a single input channel, kh *
    kw * W_out floats for each output row."""
    (c, h, w), (kh, kw) = (*x_shape[1:], 1)[:3], (*w_shape[2:], 1)[:2]
    pw = padding if len(x_shape) == 4 else 0
    h_out = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    w_out = (w + 2 * pw - kw) // stride + 1
    if c == 1 and groups == 1:
        return 4 * kh * kw * w_out * h_out
    return 4 * stride * c * kw * w_out * (h_out + dilation * (kh - 1) // stride)


def conv1d_reference(x, w, b, stride=1, padding=0, dilation=1):
    """Direct-summation 1D cross-correlation oracle (no im2col)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c_out, c_in, k = w.shape
    t = x.shape[-1]
    xp = np.pad(x, ((0, 0), (padding, padding)))
    t_out = (t + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for tt in range(t_out):
            acc = 0.0
            for c in range(c_in):
                for j in range(k):
                    acc += xp[c, tt * stride + j * dilation] * w[o, c, j]
            out[o, tt] = acc + (b[o] if b is not None else 0.0)
    return out


def conv2d_reference(x, w, b, stride=1, padding=0, groups=1):
    """Direct-summation grouped 2D cross-correlation oracle."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c_out, cg, kh, kw = w.shape
    c_in, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    og = c_out // groups
    for o in range(c_out):
        g = o // og
        for ii in range(h_out):
            for jj in range(w_out):
                acc = 0.0
                for c in range(cg):
                    cin = g * cg + c
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += xp[cin, ii * stride + ki, jj * stride + kj] * w[o, c, ki, kj]
                out[o, ii, jj] = acc + (b[o] if b is not None else 0.0)
    return out
