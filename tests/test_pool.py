"""The pool's tile rules, where its jobs run, and the boundary around the
private names of the pool, the convolutions and the ops."""
from __future__ import annotations

import ast
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from wavetransformer.tensor import RngState, Tape, Tensor, backward, conv, ops, pool

from helpers import frame_tile_rows, record_pooled_jobs

REPO = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# tile rules: each makes its tiles, and checks them, from shapes alone
# ---------------------------------------------------------------------------

# (lead, C, rest) of batch-norm inputs of the paper's TF blocks at a batch of
# 12, and of one 30 s clip
CHANNEL_SHAPES = [(12, 128, 6400), (12, 128, 1600), (12, 128, 400), (1, 128, 165376)]


# (spatial, C_in, C_out, groups, kernel, padding, dilation, W) of each conv
# geometry of the paper's encoder: the wave blocks' conv1ds, each TF block's
# S-CNN and P-CNN, and the merge net's conv over (z_t, z_tf)
PAPER_CONVS = {
    "temp.block1.t1": (1, 64, 128, 1, 1, 0, 1, 1),
    "temp.t4": (1, 128, 128, 1, 1, 0, 1, 1),
    "temp.t2": (1, 128, 128, 1, 3, 1, 1, 1),
    "temp.t5": (1, 128, 128, 1, 3, 2, 2, 1),
    "tf.block1.scnn": (2, 1, 1, 1, 5, 2, 1, 64),
    "tf.block1.pcnn": (2, 1, 128, 1, 5, 2, 1, 64),
    "tf.block2.scnn": (2, 128, 128, 128, 5, 2, 1, 16),
    "tf.block2.pcnn": (2, 128, 128, 1, 5, 2, 1, 16),
    "tf.block3.scnn": (2, 128, 128, 128, 5, 2, 1, 4),
    "tf.block3.pcnn": (2, 128, 128, 1, 5, 2, 1, 4),
    "merge.cnn": (2, 2, 1, 1, 5, 2, 1, 128),
}
# (clips, frames): a training batch of 1 s clips, a 5 s clip and a 30 s clip
CONV_BATCHES = [(12, 100), (1, 431), (1, 2584)]


def conv_jobs(monkeypatch):
    """The tiled jobs of each paper conv's forward and VJP, and of each eval
    P-CNN, their tasks not run: ((name, clips, frames), [(tiles, slot sizes)
    of each job])."""
    jobs, vjps = [], []
    monkeypatch.setattr(pool, "run", lambda fn, tasks, scratch=(), consume=None:
                        jobs.append((tasks, scratch)))
    monkeypatch.setattr(conv, "apply_op", lambda out, inputs, vjp: vjps.append(vjp))
    runs = []
    for name, (spatial, c_in, c_out, groups, k, pad, dil, w) in sorted(PAPER_CONVS.items()):
        for b, t in CONV_BATCHES:
            jobs.clear()
            # x tracked, so that the VJP makes the input gradient
            x = Tensor(np.zeros((b, c_in, t, w)[: spatial + 2], dtype=np.float32),
                       requires_grad=True)
            weight = Tensor(np.zeros((c_out, c_in // groups, k, k)[: spatial + 2],
                                     dtype=np.float32), requires_grad=True)
            with Tape():
                if spatial == 1:
                    conv.conv1d(x, weight, padding=pad, dilation=dil)
                else:
                    conv.conv2d(x, weight, padding=pad, groups=groups)
            vjps.pop()(np.zeros((b, c_out, t, w), dtype=np.float32))
            if name.endswith("pcnn"):
                conv.conv2d_tiles(x, weight, None, pad, lambda *tile: None)
            # the fold's col2im runs a task per clip, not conv tiles
            runs.append(((name, b, t), [job for job in jobs if isinstance(job[0][0], tuple)]))
    return runs


def check_conv_jobs(runs, monkeypatch):
    for (name, b, t), jobs in runs:
        spatial, c_in, c_out, groups, k, _, dil, w = PAPER_CONVS[name]
        kw = k if spatial == 2 else 1

        def taps(c, c_next=0):
            """(bytes per output row, extra rows per tile) of a tile's taps
            of c channels, or of its c_next channels of tap products where
            those are larger"""
            return max(4 * c * kw * w, 4 * c_next * w), dil * (k - 1)

        # each job's largest scratch buffer: forward, input gradient, weight gradient
        if groups == 1 and c_in == 1:  # the fold: all k * kw taps in one K, no input-gradient tiles
            rules = [(4 * k * kw * w, 0)] * 2
        elif groups > 1:  # depthwise: tap products, then the weight gradient's taps
            rules = [(4 * c_in * w, 0)] * 2 + [taps(c_in)]
        else:
            rules = [taps(c_in, c_out * (k > 1)), taps(c_out, c_in * (k > 1)), taps(c_in)]
        if name.endswith("pcnn"):  # the eval P-CNN's taps, or the tile its epilogue gets
            row_bytes, extra = rules[0]
            rules.append((max(row_bytes, 4 * c_out * w), extra))
        assert len(jobs) == len(rules), name
        for (tiles, scratch), (row_bytes, extra) in zip(jobs, rules):
            seen = sorted((clip, row) for clips, rows in tiles
                          for clip in range(b)[clips] for row in rows)
            assert seen == [(clip, row) for clip in range(b) for row in range(t)]  # each row once
            units = []
            for clips, rows in tiles:
                n = len(range(b)[clips])
                assert rows == range(t) or n == 1  # whole clips, or rows of one clip
                units.append(n * (len(rows) + extra))
                if len(rows) > 1 and not (n == 1 and rows == range(t)):
                    assert units[-1] * row_bytes <= pool.TILE_BYTES + extra * row_bytes, name
            assert max(units) * row_bytes in scratch, name  # the slot holds the largest tile


def channels_and_flat(monkeypatch):
    """Batch norm's tiles of its (lead * C, rest) rows, then a flat pass's."""
    return ([pool.flat_tiles(lead * c, rest * 4) for lead, c, rest in CHANNEL_SHAPES]
            + [pool.flat_tiles(10**6, 4)])


def check_channels_and_flat(tiles, monkeypatch):
    for (lead, c, rest), parts in zip(CHANNEL_SHAPES, tiles):
        rows = [r for t in parts for r in range(lead * c)[t]]
        assert sorted(rows) == list(range(lead * c))  # each row once
        sizes = {len(range(lead * c)[t]) * rest * 4 for t in parts}
        assert max(sizes) <= max(pool.TILE_BYTES, rest * 4)
    assert tiles[3] == [slice(k, k + 1) for k in range(128)]  # a row a tile


def stft_frames(monkeypatch):
    """The frames of each STFT tile of a 10,000-frame clip."""
    return frame_tile_rows(10_000, monkeypatch)


def check_stft_frames(tiles, monkeypatch):
    per_tile = tiles[0]
    # OpenBLAS gives a mel product of 15 rows or fewer, at 64 bands and
    # 1,025 bins, to its small-matrix kernel, which rounds differently
    assert 16 <= per_tile < 10_000
    for n in (3, per_tile, per_tile + 1, 2 * per_tile - 1, 2 * per_tile, 431, 2584):
        rows = frame_tile_rows(n, monkeypatch)
        assert sum(rows) == n
        # a short clip is one tile; otherwise every tile has per_tile
        # frames and the last takes the remainder
        assert rows[:-1] == [per_tile] * (len(rows) - 1)
        if n < 2 * per_tile:
            assert rows == [n]
        else:
            assert per_tile <= rows[-1] < 2 * per_tile


RULES = {
    "conv_jobs": (conv_jobs, check_conv_jobs),
    "channels_and_flat": (channels_and_flat, check_channels_and_flat),
    "stft_frames": (stft_frames, check_stft_frames),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_tiles_depend_only_on_shapes(rule, monkeypatch):
    make, check = RULES[rule]
    tiles = make(monkeypatch)
    for workers in (1, 2, 3, 64):
        monkeypatch.setattr(pool, "WORKERS", workers)
        assert make(monkeypatch) == tiles
    check(tiles, monkeypatch)


# ---------------------------------------------------------------------------
# placement: a job leaves the caller's thread for its task count alone
# ---------------------------------------------------------------------------

def threads_of(tasks) -> list:
    """The thread each task of one pool job ran on."""
    ran = [None] * len(tasks)
    pool.run(lambda k: ran.__setitem__(k, threading.current_thread()), tasks)
    return ran


def test_a_job_of_two_tiny_tasks_runs_off_the_callers_thread(monkeypatch):
    monkeypatch.setattr(pool, "WORKERS", 2)
    caller = threading.current_thread()
    assert all(thread is not caller for thread in threads_of(range(2)))


def test_a_job_of_one_task_runs_on_the_callers_thread(monkeypatch):
    monkeypatch.setattr(pool, "WORKERS", 2)
    assert threads_of(range(1)) == [threading.current_thread()]


def test_a_job_started_inside_a_task_runs_inline(monkeypatch):
    monkeypatch.setattr(pool, "WORKERS", 2)
    outer, inner = [None] * 2, {}

    def task(k):
        outer[k] = threading.current_thread()
        inner[k] = threads_of(range(2))

    pool.run(task, range(2))
    assert all(thread is not threading.current_thread() for thread in outer)
    assert inner == {k: [outer[k]] * 2 for k in range(2)}


def test_a_block_3_pcnn_weight_gradient_at_a_batch_of_8_runs_on_the_pool(monkeypatch):
    # a clip a tile: 8 tiles of only 400 positions each, on both lanes
    monkeypatch.setattr(pool, "WORKERS", 2)
    rng = RngState(90)
    x = Tensor(rng.uniform(-1, 1, (8, 128, 100, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.uniform(-0.05, 0.05, (128, 128, 5, 5)).astype(np.float32),
               requires_grad=True)
    with Tape() as tape:
        loss = ops.tensor_sum(ops.conv2d(x, w, padding=2))
    pooled = record_pooled_jobs(monkeypatch)
    backward(loss, tape)
    # the weight gradient's is the only job with a consumer
    assert 8 in pooled and pooled.ordered_on_pool == 8


# ---------------------------------------------------------------------------
# boundary: no module but its owner touches a private name of ops, conv or pool
# ---------------------------------------------------------------------------

OWNERS = {"ops": REPO / "src/wavetransformer/tensor/ops.py",
          "conv": REPO / "src/wavetransformer/tensor/conv.py",
          "pool": REPO / "src/wavetransformer/tensor/pool.py"}
# code in a string, such as a subprocess script, and prose name them too
NAMED_IN_TEXT = re.compile(r"\b(ops|conv|pool)\.(_(?!_)\w*)")
REFLECTION = {"setattr", "getattr", "delattr", "hasattr"}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str):
    """(line, module, name) of each use of a private name of ops or pool
    in `source`: an attribute, a name given to setattr and its kin, an
    import, or a mention in a string."""
    tree = ast.parse(source)
    bound = {}  # local name -> the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = (node.module or "").split(".")[-1]
            for alias in node.names:
                if alias.name in OWNERS and package in ("tensor", ""):
                    bound[alias.asname or alias.name] = alias.name
                elif package in OWNERS and private(alias.name):
                    yield node.lineno, package, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.split(".")[-1]
                if module in OWNERS and alias.asname:
                    bound[alias.asname] = module

    def owner(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and expr.attr in OWNERS:
            return expr.attr if ast.unparse(expr.value).endswith("tensor") else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) and owner(node.value):
            yield node.lineno, owner(node.value), node.attr
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and owner(node.args[0]):
            func, name = node.func, node.args[1]
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if (called in REFLECTION and isinstance(name, ast.Constant)
                    and isinstance(name.value, str) and private(name.value)):
                yield node.lineno, owner(node.args[0]), name.value
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for match in NAMED_IN_TEXT.finditer(node.value):
                yield node.lineno, match[1], match[2]


def test_private_names_of_ops_and_pool_stay_in_their_modules():
    files = sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "tests").rglob("*.py"))
    assert all(path in files for path in OWNERS.values())
    uses = [f"{path.relative_to(REPO)}:{line} {module}.{name}"
            for path in files
            for line, module, name in private_uses(path.read_text(encoding="utf-8"))
            if path != OWNERS[module]]
    assert uses == []


def test_the_boundary_check_sees_every_form_of_use():
    # "@" stands for "." before a private name, so that this file does not
    # itself name one
    source = (
        "from wavetransformer.tensor import ops, pool as p\n"
        "from .ops import _carve\n"
        "ops@_run(f, tasks, 1)\n"
        "monkeypatch.setattr(p, '_WORKERS', 1)\n"
        "x = wavetransformer.tensor.pool@_lanes\n"
        "script = 'ops@_TILE_COLS = 1'\n"
        "ops.conv2d(x, w); ops.__name__; getattr(ops, 'conv2d'); block._pool\n"
        "from wavetransformer.tensor.conv import conv2d_tiles, _taps\n"
    ).replace("@", ".")
    assert sorted(private_uses(source)) == [
        (2, "ops", "_carve"), (3, "ops", "_run"), (4, "pool", "_WORKERS"),
        (5, "pool", "_lanes"), (6, "ops", "_TILE_COLS"), (8, "conv", "_taps"),
    ]
