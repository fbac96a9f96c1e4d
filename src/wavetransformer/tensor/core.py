"""Tensors, the gradient tape, and reverse-mode backpropagation.

The engine is deliberately small: a Tensor wraps a float numpy array plus an
optional gradient buffer, and every differentiable operation appends one
entry to the currently active Tape.  Entries are appended in execution order,
which is by construction a topological order of the data-flow graph, so
`backward` is a single reverse sweep that visits each recorded node once.
The sweep consumes the tape: each entry, and the arrays its VJP holds, is
freed as soon as it has run, so a training step peaks at the forward's
arrays, not at the forward's arrays plus every gradient.

Training runs in float32.  A float64 mode (see `default_dtype`) exists for
verification, where finite-difference checks are meaningful at much tighter
tolerances.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..errors import UsageError

_FLOAT_DTYPES = (np.float32, np.float64)

_default_dtype = np.float32


def get_default_dtype() -> type:
    return _default_dtype


def set_default_dtype(dtype) -> None:
    if dtype not in _FLOAT_DTYPES:
        raise UsageError(f"unsupported tensor dtype {dtype!r}; use float32 or float64")
    global _default_dtype
    _default_dtype = dtype


@contextmanager
def default_dtype(dtype) -> Iterator[None]:
    """Temporarily switch the dtype used for newly created tensors."""
    previous = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


class Tensor:
    """N-dimensional float array with an optional gradient buffer.

    `data` is always a C-contiguous float32/float64 numpy array.  `grad` is
    allocated lazily by `backward` and has the same shape and dtype as
    `data`.  Tensors are value carriers only; graph structure lives on the
    Tape, never on the tensor itself.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_default_dtype)
        self.data = np.ascontiguousarray(arr)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


# A VJP receives the output gradient and returns one gradient per recorded
# input (None where an input needs no gradient).  It never writes into the
# gradient it receives, and `backward` never writes into a gradient it holds,
# so a VJP may return `g` itself or a view of it.
Vjp = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


class Tape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around the forward pass; while active, every op
    whose inputs are gradient-relevant appends (output, inputs, vjp).  With
    no tape active, ops run forward-only, which is the inference path.  A
    tape serves one `backward`, which empties it.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Vjp]] = []
        self._tracked: set[int] = set()
        self._consumed = False

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _tape_stack.pop()
        assert popped is self

    def tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Vjp) -> None:
        self._entries.append((out, inputs, vjp))
        self._tracked.add(id(out))


_tape_stack: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _tape_stack[-1] if _tape_stack else None


def apply_op(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Vjp) -> Tensor:
    """Wrap a forward result, recording it on the active tape when relevant."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(tape.tracks(t) for t in inputs):
        tape.record(out, inputs, vjp)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(t) into `t.grad` for every requires_grad tensor.

    Gradients add to what `t.grad` already holds, so accumulating over
    several losses means one tape, and one call, per loss.  The sweep pops
    the tape's entries in reverse execution order; by then every consumer of
    an intermediate has already deposited its contribution, so each entry is
    processed exactly once, and it is freed with the arrays its VJP holds, as
    is each intermediate gradient once consumed.  A second call on a consumed
    tape raises UsageError.
    """
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._consumed:
        raise UsageError("backward: this tape was consumed by an earlier backward; "
                         "record the forward again on a new tape")
    entries = tape._entries
    tape._consumed = True
    pending: dict[int, list] = {id(loss): [loss, np.ones_like(loss.data)]}
    while entries:
        out, inputs, vjp = entries.pop()
        item = pending.pop(id(out), None)
        if item is None:
            continue
        if out.requires_grad:
            out.accumulate_grad(item[1])
        for t, g in zip(inputs, vjp(item[1])):
            if g is None:
                continue
            held = pending.get(id(t))
            if held is None:
                # a strided view is copied densely: sums over it round by layout
                pending[id(t)] = [t, g if g.flags.c_contiguous else np.array(g, copy=True)]
            else:
                held[1] = held[1] + g
    for t, g in pending.values():
        if t.requires_grad:
            t.accumulate_grad(g)
