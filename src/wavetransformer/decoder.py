"""Transformer decoder over the encoded audio sequence.

Standard masked-self-attention decoder with post-layer-norm residual
blocks: self-attention (causal mask), cross-attention over the audio
representation, and a position-wise feed-forward whose inner width equals
the model width.  Token embedding is a time-shared linear map on one-hot
rows, scaled by sqrt(d_model) before the sinusoidal positional encoding is
added.  Dropout hits the embedding sum and each sublayer output before its
residual addition.

There is one path through the blocks.  A `DecodeState` holds each block's
cross-attention keys and values of the audio, projected once, and a
per-row cache of self-attention keys and values; feeding it new positions
runs them through every block and appends their keys and values.  Keys
are kept transposed, (B, H, d/H, L), so a query multiplies them as they
are: the audio's keys are transposed once per clip, not once per step and
block, and the self-attention cache grows along its last axis.
Captioning starts a state with `begin` and feeds one position per
hypothesis row with each `step`, so a step costs O(length), not
O(length^2).  The teacher-forced `forward` is the same path, fed every
position at once from an empty state under a causal mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .layers import LayerNorm, Linear, ModelSpace
from .tensor import RngState, Tensor, get_default_dtype
from .tensor import ops


@dataclass
class DecoderConfig:
    vocab_size: int | None = None  # set from the corpus; a model needs it
    n_blocks: int = 3
    n_heads: int = 4
    d_model: int = 128
    dropout: float = 0.25
    max_len: int = 128

    def __post_init__(self):
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.vocab_size is not None and self.vocab_size < 4:
            raise ConfigError("vocabulary must include reserved tokens plus words")
        if self.max_len < 2:
            raise ConfigError("max_len must cover at least <sos> + one token")


class MultiHeadAttention:
    """softmax(Q Kᵀ / sqrt(d/H) + mask) V per head, then output projection.

    Takes queries and keys/values already projected and head-split by
    `queries` and `keys_values`; the key/value input may have a different
    feature width (the audio representation), handled by the projection
    shapes.  The additive mask broadcasts against (B, H, L_q, L_k).
    """

    def __init__(self, space: ModelSpace, name: str, d_model: int, n_heads: int,
                 d_kv: int | None = None):
        d_kv = d_model if d_kv is None else d_kv
        self.n_heads = n_heads
        self.d_model = d_model
        self.q = Linear(space, f"{name}.q", d_model, d_model)
        self.k = Linear(space, f"{name}.k", d_kv, d_model)
        self.v = Linear(space, f"{name}.v", d_kv, d_model)
        self.out = Linear(space, f"{name}.out", d_model, d_model)

    def heads(self, t: Tensor, axes=(0, 2, 1, 3)) -> Tensor:
        """(B, L, d) -> (B, H, L, d/H), or the (B, L, H, d/H) split under `axes`."""
        b, length, _ = t.shape
        h = self.n_heads
        return ops.transpose(ops.reshape(t, (b, length, h, self.d_model // h)), axes)

    def keys_values(self, kv_in: Tensor) -> tuple[Tensor, Tensor]:
        """Projected, head-split keys, transposed, and values: (B, H, d/H,
        L_k) and (B, H, L_k, d/H)."""
        return self.heads(self.k(kv_in), (0, 2, 3, 1)), self.heads(self.v(kv_in))

    def queries(self, q_in: Tensor) -> Tensor:
        """Projected, head-split queries: (B, H, L_q, d/H)."""
        return self.heads(self.q(q_in))

    def __call__(self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Head-split queries against `keys_values`' keys and values; (B, L_q, d) out."""
        b, h, l_q, dh = q.shape
        scores = ops.scale(ops.matmul(q, k), 1.0 / math.sqrt(dh))
        weights = ops.softmax(scores, axis=-1, mask=mask)
        ctx = ops.matmul(weights, v)  # (B, H, L_q, dh)
        merged = ops.reshape(ops.transpose(ctx, (0, 2, 1, 3)), (b, l_q, self.d_model))
        return self.out(merged)


class DecoderBlock:
    def __init__(self, space: ModelSpace, name: str, cfg: DecoderConfig, d_audio: int):
        d = cfg.d_model
        self.self_attn = MultiHeadAttention(space, f"{name}.self_attn", d, cfg.n_heads)
        self.ln1 = LayerNorm(space, f"{name}.ln1", d)
        self.cross_attn = MultiHeadAttention(space, f"{name}.cross_attn", d, cfg.n_heads, d_kv=d_audio)
        self.ln2 = LayerNorm(space, f"{name}.ln2", d)
        self.fc1 = Linear(space, f"{name}.ffn.fc1", d, d)
        self.fc2 = Linear(space, f"{name}.ffn.fc2", d, d)
        self.ln3 = LayerNorm(space, f"{name}.ln3", d)
        self.p = cfg.dropout

    def __call__(self, x: Tensor, cross_kv: tuple[Tensor, Tensor], cross_mask: np.ndarray | None,
                 self_kv: tuple[Tensor, Tensor], self_mask: np.ndarray | None,
                 training: bool, rng: RngState | None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """L new positions per row, x (rows, L, d).

        `self_kv` holds the self-attention keys and values of the earlier
        positions, (rows, H, d/H, t) and (rows, H, t, d/H); the block returns
        its output and `self_kv` extended by the L new positions.  `cross_kv`
        holds the audio's keys and values, (clips, H, d/H, T) and (clips, H,
        T, d/H).  Rows are grouped by clip, rows/clips consecutive rows per
        clip: one clip per row in training, one clip for all beam rows in
        decoding.
        """
        sa, ca = self.self_attn, self.cross_attn
        # queries first: backward sums the gradients reaching x in reverse
        # tape order, so the projection order fixes the training bits
        q = sa.queries(x)
        k, v = sa.keys_values(x)
        self_kv = (ops.concat([self_kv[0], k], axis=3), ops.concat([self_kv[1], v], axis=2))
        a = ops.dropout(sa(q, *self_kv, self_mask), self.p, training, rng)
        x = self.ln1(ops.add(x, a))
        # each clip's rows become the query axis of that clip's batch item
        clips = cross_kv[0].shape[0]
        c = ca(ca.queries(ops.reshape(x, (clips, -1, x.shape[-1]))), *cross_kv, cross_mask)
        c = ops.reshape(c, x.shape)
        x = self.ln2(ops.add(x, ops.dropout(c, self.p, training, rng)))
        f = ops.dropout(self.fc2(ops.relu(self.fc1(x))), self.p, training, rng)
        return self.ln3(ops.add(x, f)), self_kv


class DecodeState:
    """Decoding state of clips fed to `Decoder`, one hypothesis per row.

    `cross[i]` holds block i's cross-attention keys and values of the
    audio, (clips, H, d/H, T) and (clips, H, T, d/H), projected and
    transposed once; `cross_mask` hides padded frames.  Rows are grouped by
    clip; with one clip every row shares it.  `self_kv[i]` holds block i's
    self-attention keys and values of the `length` positions fed so far,
    (rows, H, d/H, length) and (rows, H, length, d/H).
    """

    def __init__(self, cross: list[tuple[Tensor, Tensor]], cross_mask: np.ndarray | None,
                 self_kv: list[tuple[Tensor, Tensor]], rows: int):
        self.cross = cross
        self.cross_mask = cross_mask
        self.self_kv = self_kv
        self.rows = rows
        self.length = 0

    def keep(self, rows) -> None:
        """Continue with the given rows, in that order; a row may repeat."""
        rows = np.asarray(rows, dtype=np.int64)
        self.self_kv = [(Tensor(k.data[rows]), Tensor(v.data[rows])) for k, v in self.self_kv]
        self.rows = len(rows)


class Decoder:
    def __init__(self, space: ModelSpace, cfg: DecoderConfig, d_audio: int,
                 name: str = "decoder"):
        self.cfg = cfg
        d = cfg.d_model
        self.emb_weight = space.param(f"{name}.emb.weight", (d, cfg.vocab_size),
                                      fan_in=cfg.vocab_size)
        self.emb_bias = space.param(f"{name}.emb.bias", (d,))
        self.blocks = [
            DecoderBlock(space, f"{name}.block{i + 1}", cfg, d_audio)
            for i in range(cfg.n_blocks)
        ]
        self.cls = Linear(space, f"{name}.cls", d, cfg.vocab_size)
        self.pe = ops.positional_encoding(cfg.max_len, d, dtype=get_default_dtype())

    def forward(self, tokens: np.ndarray, z: Tensor,
                cross_mask: np.ndarray | None = None,
                training: bool = False, rng: RngState | None = None) -> Tensor:
        """Logits (..., L, W) for every position of the (already input-shifted) tokens.

        tokens: int array (L,) or (B, L); z: (T, d_audio) or (B, T, d_audio).
        Position i only attends to positions <= i of itself, so its logits
        are independent of later tokens.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim not in (1, 2):
            raise DimensionError(f"tokens must be (L,) or (B, L), got {tokens.shape}")
        rows = tokens.reshape(-1, tokens.shape[-1])
        state = self._start(z, cross_mask, rows=rows.shape[0])
        logits = self._extend(state, rows, training, rng)
        return ops.reshape(logits, (*tokens.shape, -1))

    def begin(self, z: Tensor) -> DecodeState:
        """Decoding state for one clip's audio representation z, (T, d_audio)."""
        if z.ndim not in (2, 3) or z.shape[:-2] not in ((), (1,)):
            raise DimensionError(f"decoding state needs one clip (T, d_audio), got {z.shape}")
        return self._start(z, None, rows=1)

    def step(self, state: DecodeState, tokens) -> Tensor:
        """Logits (rows, W) for the next position of every row of `state`.

        tokens: the token each row was last extended by, one per row.  The
        state's caches grow by that position.  Eval mode.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        logits = self._extend(state, tokens, False, None)
        return ops.reshape(logits, (state.rows, logits.shape[-1]))

    def _start(self, z: Tensor, cross_mask: np.ndarray | None, rows: int) -> DecodeState:
        """Empty state of `rows` rows over the clips of z, (..., T, d_audio)."""
        z = ops.reshape(z, (-1, *z.shape[-2:]))
        h = self.cfg.n_heads
        empty = np.zeros((rows, h, 0, self.cfg.d_model // h), dtype=self.emb_weight.dtype)
        self_kv = (Tensor(empty.transpose(0, 1, 3, 2)), Tensor(empty))
        return DecodeState([block.cross_attn.keys_values(z) for block in self.blocks],
                           cross_mask, [self_kv] * len(self.blocks), rows)

    def _extend(self, state: DecodeState, tokens: np.ndarray, training: bool,
                rng: RngState | None) -> Tensor:
        """Feed the next L positions of every row, tokens (rows, L); logits
        (rows, L, W) for them.  The caches of `state` grow by L positions."""
        rows, length = tokens.shape
        if rows != state.rows:
            raise DimensionError(f"{rows} tokens for {state.rows} decoding rows")
        end = state.length + length
        if end > self.cfg.max_len:
            raise UsageError(f"sequence length {end} exceeds positional horizon {self.cfg.max_len}")
        x = ops.dropout(self._embed(tokens, state.length), self.cfg.dropout, training, rng)
        # only a fresh state is ever fed more than one position at a time
        self_mask = ops.causal_mask(length, dtype=x.dtype) if length > 1 else None
        for i, block in enumerate(self.blocks):
            x, state.self_kv[i] = block(x, state.cross[i], state.cross_mask, state.self_kv[i],
                                        self_mask, training, rng)
        state.length = end
        return self.cls(x)

    def _embed(self, tokens: np.ndarray, start: int) -> Tensor:
        """Scaled token embeddings plus the positional encoding from `start`."""
        emb = ops.embedding(tokens, self.emb_weight, self.emb_bias)
        emb = ops.scale(emb, math.sqrt(self.cfg.d_model))
        return ops.add_const(emb, self.pe[start:start + tokens.shape[1]])
