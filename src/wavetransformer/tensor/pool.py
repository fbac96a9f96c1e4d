"""The one thread pool that the ops, Adam and the STFT run their work on.

A job is a list of tasks given to `run`; each task writes its own part of
buffers the caller allocated.  A job of one task runs whole in the caller's
thread, as does every job at one worker and every job started inside a pool
task, which would wait on tasks queued behind it.  Any other job runs on up
to WORKERS lanes, one pool thread each: how finely a pass is worth cutting
is the tile rule's to say, not the pool's.

Tiles.  How a pass splits into tasks follows from its shapes alone, never
from the worker count, and every task keeps the accumulation order of the
whole pass, so results are bit-reproducible run to run and do not depend on
the worker count.  The generic rules are here: `blocks` cuts a range into
blocks of a fixed size, and `flat_tiles` a pass into tiles of about
TILE_BYTES, which fit one core's L2 cache with room for a second operand: of
elements, or of whole rows, as batch norm's (clip, channel) rows and a
conv's clips and output rows.

Scratch slots.  A job names its scratch memory as a tuple of byte sizes,
and `run` allocates one slot of that many separate byte buffers per lane, in
the caller's thread: buffers allocated inside the workers would grow peak
memory with the worker count, and blocks of several MB fit the allocator's
free blocks better apart than as one.  In a free-running job lane i keeps
slot i for the whole job; in an in-order job (one with a `consume`) task k
gets slot k % lanes, which task k - lanes has finished with.  `carve` views
the front of a slot as an array of any dtype.
"""
from __future__ import annotations

import collections
import math
import os
import threading
from typing import Optional

import numpy as np

# One thread per CPU this process may use; the pool is made on first use.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# A memory-bound pass runs as tiles of about this many bytes.
TILE_BYTES = 1 << 20

_pool: Optional[tuple] = None  # ((pid, workers), executor)
_pool_lock = threading.Lock()
_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


def _lanes(n: int) -> int:
    """How many of the n tasks of a job run at once."""
    if n < 2 or WORKERS < 2 or getattr(_worker, "active", False):
        return 1
    return min(n, WORKERS)


def _executor():
    """The pool, made on first use and again in a forked child or after
    WORKERS changes."""
    global _pool
    key = (os.getpid(), WORKERS)
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            # imported here: concurrent.futures adds ~10 ms to every start-up
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None and _pool[0][0] == key[0]:
                _pool[1].shutdown(wait=False)
            _pool = (key, ThreadPoolExecutor(WORKERS, thread_name_prefix="conv-tile",
                                             initializer=_mark_worker))
        return _pool[1]


def run(fn, tasks, scratch=(), consume=None) -> None:
    """Call fn(task, *slot) for every task of a job, `slot` being the byte
    buffers of the sizes in `scratch` that its lane holds (see the module
    docstring).

    Without `consume`, each lane is one pool task that runs the next task
    not yet started until none is left, so a job of many tiles costs one
    pool round trip per lane.  Given `consume`, the caller's thread calls
    consume(fn(task, *slot)) in task order, and submits a task only once the
    one `lanes` places before it has been consumed.  Whatever a task raises
    propagates only after every task in flight has finished, so none writes
    into the caller's buffers after the call returns."""
    lanes = _lanes(len(tasks))
    slots = [tuple(np.empty(size, dtype=np.uint8) for size in scratch) for _ in range(lanes)]
    if lanes == 1:
        for task in tasks:
            result = fn(task, *slots[0])
            if consume is not None:
                consume(result)
        return
    pool = _executor()
    pending = collections.deque()
    try:
        if consume is None:
            order, lock = iter(tasks), threading.Lock()

            def lane(slot):
                while True:
                    with lock:
                        task = next(order, None)
                    if task is None:
                        return
                    try:
                        fn(task, *slot)
                    except BaseException:
                        with lock:
                            collections.deque(order, maxlen=0)  # no lane starts another
                        raise

            pending.extend(pool.submit(lane, slot) for slot in slots)
            while pending:
                pending.popleft().result()
            return
        for k, task in enumerate(tasks):
            if len(pending) == lanes:
                consume(pending.popleft().result())
            pending.append(pool.submit(fn, task, *slots[k % lanes]))
        while pending:
            consume(pending.popleft().result())
    finally:
        for future in pending:
            future.exception()  # waits; an error already propagating wins


def blocks(n: int, size: int) -> list:
    """range(n) in slices of `size` (at least 1), the last also taking the
    remainder, so that no slice is shorter than `size` unless range(n) is:
    one slice where n < 2 * size."""
    starts = list(range(0, n - size + 1, size)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def flat_tiles(n: int, unit_bytes: int) -> list:
    """range(n), of units of `unit_bytes`, in even slices of about
    TILE_BYTES (one slice if n is 0)."""
    step = _even(n, TILE_BYTES // max(unit_bytes, 1))
    return [slice(k, k + step) for k in range(0, max(n, 1), step)]


def _even(n: int, most: int) -> int:
    """The size of the blocks of range(n) in as few blocks of at most `most`
    (at least 1) as can be, as even as can be."""
    count = -(-n // max(1, most)) or 1
    return -(-n // count) or 1


def carve(buf, shape, dtype) -> np.ndarray:
    """An array of `shape` and `dtype` on the front of the flat byte buffer
    `buf`, or a new one if `buf` is None."""
    if buf is None:
        return np.empty(shape, dtype=dtype)
    dtype = np.dtype(dtype)
    return buf[: math.prod(shape) * dtype.itemsize].view(dtype).reshape(shape)
