"""The pool's tile rules, and the boundary around the private names of the
pool, the convolutions and the ops."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from wavetransformer.tensor import conv, pool

from helpers import frame_tile_rows

REPO = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# tile rules: each makes its tiles, and checks them, from shapes alone
# ---------------------------------------------------------------------------

# (lead, C, rest) of batch-norm inputs of the paper's TF blocks at a batch of
# 12, and of one 30 s clip
CHANNEL_SHAPES = [(12, 128, 6400), (12, 128, 1600), (12, 128, 400), (1, 128, 165376)]


def conv_rows(monkeypatch):
    """The output tiles of a block-2-shaped conv at T=2584."""
    return conv.conv_tiles(1, 128, 2584, 16)


def check_conv_rows(tiles, monkeypatch):
    spans = [(r0, r1) for _, r0, r1 in tiles]
    assert spans[0][0] == 0 and spans[-1][1] == 2584
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all((r1 - r0) % conv.TILE_ROWS == 0 for r0, r1 in spans[:-1])
    assert all((r1 - r0) * 16 >= pool.TILE_COLS for r0, r1 in spans)


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
    "conv_rows": (conv_rows, check_conv_rows),
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
        "from wavetransformer.tensor.conv import conv_tiles, _taps\n"
    ).replace("@", ".")
    assert sorted(private_uses(source)) == [
        (2, "ops", "_carve"), (3, "ops", "_run"), (4, "pool", "_WORKERS"),
        (5, "pool", "_lanes"), (6, "ops", "_TILE_COLS"), (8, "conv", "_taps"),
    ]
