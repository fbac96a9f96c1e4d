"""Tensors, the gradient tape, and reverse-mode backpropagation.

The engine is deliberately small: a Tensor wraps a float numpy array plus an
optional gradient buffer, and every differentiable operation appends one
entry to the currently active Tape.  Entries are appended in execution order,
which is by construction a topological order of the data-flow graph, so
`backward` is a single reverse sweep that visits each recorded node once.

The tape holds no intermediate tensor.  An entry is (key, input refs, vjp):
the serial key `record` stamped on the op's output, one ref per input (the
key of an intermediate the tape tracks, the tensor itself for a
requires_grad leaf, None for an input it does not track), and the VJP,
which closes over only the arrays it reads.  So an intermediate that no VJP
reads is freed as soon as the forward drops it.  The sweep consumes the
tape: each entry, and the arrays its VJP holds, is freed as soon as it has
run, as is each intermediate gradient once consumed.

Training runs in float32.  A float64 mode (see `default_dtype`) exists for
verification, where finite-difference checks are meaningful at much tighter
tolerances.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence, Union

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
    Tape, and an op's output carries just the key the tape stamped on it.
    """

    __slots__ = ("data", "grad", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_default_dtype)
        self.data = np.ascontiguousarray(arr)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.key: Optional[int] = None

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
# so a VJP may return `g` itself or a view of it.  It closes over the arrays
# it reads and the shapes it needs, never over an input or output Tensor.
Vjp = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]

# Input ref: an intermediate's key, a requires_grad leaf, or None (untracked).
Ref = Union[int, Tensor, None]

_keys = itertools.count()  # serial, never reused, unlike id() of a freed tensor


class Tape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around the forward pass; while active, every op
    whose inputs are gradient-relevant appends (key, input refs, vjp) and
    stamps its output with that key (see the module docstring).  With no
    tape active, ops run forward-only, which is the inference path.  A tape
    serves one `backward`, which empties it.
    """

    def __init__(self):
        self._entries: list[tuple[int, tuple[Ref, ...], Vjp]] = []
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
        return t.requires_grad or t.key in self._tracked

    def _ref(self, t: Tensor) -> Ref:
        if t.key in self._tracked:
            return t.key
        return t if t.requires_grad else None

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Vjp) -> None:
        out.key = next(_keys)
        self._entries.append((out.key, tuple(self._ref(t) for t in inputs), vjp))
        self._tracked.add(out.key)


_tape_stack: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _tape_stack[-1] if _tape_stack else None


def recording(*inputs: Optional[Tensor]) -> bool:
    """Whether the active tape tracks any of `inputs` (None skipped), so that
    an op on them is recorded and its VJP runs."""
    tape = active_tape()
    return tape is not None and any(tape.tracks(t) for t in inputs if t is not None)


def apply_op(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Vjp) -> Tensor:
    """Wrap a forward result, recording it on the active tape when relevant."""
    out = Tensor(out_data)
    if recording(*inputs):
        active_tape().record(out, inputs, vjp)
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
    # gradients by input ref: an intermediate's until its entry runs, a
    # leaf's until the sweep ends (a Tensor hashes by identity, never equal
    # to a key)
    pending: dict = {}

    def deposit(ref: Ref, g: np.ndarray) -> None:
        if ref is None:
            return
        held = pending.get(ref)
        if held is None:
            # a strided view is copied densely: sums over it round by layout
            pending[ref] = g if g.flags.c_contiguous else np.array(g, copy=True)
        else:
            pending[ref] = held + g

    deposit(tape._ref(loss), np.ones_like(loss.data))
    while entries:
        key, refs, vjp = entries.pop()
        g = pending.pop(key, None)
        if g is None:
            continue
        for ref, gi in zip(refs, vjp(g)):
            if gi is not None:
                deposit(ref, gi)
    for t, g in pending.items():
        t.accumulate_grad(g)
