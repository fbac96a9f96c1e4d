"""Transformer decoder over the encoded audio sequence.

Standard masked-self-attention decoder with post-layer-norm residual
blocks: self-attention (causal mask), cross-attention over the audio
representation, and a position-wise feed-forward whose inner width equals
the model width.  Token embedding is a time-shared linear map on one-hot
rows, scaled by sqrt(d_model) before the sinusoidal positional encoding is
added.  Dropout hits the embedding sum and each sublayer output before its
residual addition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .layers import LayerNorm, Linear, ModelSpace
from .tensor import RngState, Tensor, get_default_dtype, init_uniform, init_zeros
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

    Query input is (L_q, d) or (B, L_q, d); key/value input may have a
    different feature width (the audio representation), handled by the
    projection shapes.  The additive mask broadcasts against
    (B, H, L_q, L_k).
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

    def __call__(self, q_in: Tensor, kv_in: Tensor, mask: np.ndarray | None = None) -> Tensor:
        squeeze = q_in.ndim == 2
        if squeeze:
            q_in = ops.reshape(q_in, (1, *q_in.shape))
            kv_in = ops.reshape(kv_in, (1, *kv_in.shape))
        b, l_q, _ = q_in.shape
        l_k = kv_in.shape[1]
        h = self.n_heads
        dh = self.d_model // h

        def split_heads(t: Tensor, length: int) -> Tensor:
            return ops.transpose(ops.reshape(t, (b, length, h, dh)), (0, 2, 1, 3))

        q = split_heads(self.q(q_in), l_q)
        k = split_heads(self.k(kv_in), l_k)
        v = split_heads(self.v(kv_in), l_k)
        scores = ops.scale(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        weights = ops.softmax(scores, axis=-1, mask=mask)
        ctx = ops.matmul(weights, v)  # (B, H, L_q, dh)
        merged = ops.reshape(ops.transpose(ctx, (0, 2, 1, 3)), (b, l_q, self.d_model))
        out = self.out(merged)
        return ops.reshape(out, out.shape[1:]) if squeeze else out


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

    def __call__(self, x: Tensor, z: Tensor, self_mask: np.ndarray,
                 cross_mask: np.ndarray | None, training: bool,
                 rng: RngState | None) -> Tensor:
        a = ops.dropout(self.self_attn(x, x, self_mask), self.p, training, rng)
        x = self.ln1(ops.add(x, a))
        c = ops.dropout(self.cross_attn(x, z, cross_mask), self.p, training, rng)
        x = self.ln2(ops.add(x, c))
        f = ops.dropout(self.fc2(ops.relu(self.fc1(x))), self.p, training, rng)
        return self.ln3(ops.add(x, f))


class Decoder:
    def __init__(self, space: ModelSpace, cfg: DecoderConfig, d_audio: int,
                 name: str = "decoder"):
        self.cfg = cfg
        d = cfg.d_model
        self.emb_weight = space.params.add(
            f"{name}.emb.weight",
            init_uniform(space.rng, (d, cfg.vocab_size), fan_in=cfg.vocab_size),
        )
        self.emb_bias = space.params.add(f"{name}.emb.bias", init_zeros((d,)))
        self.blocks = [
            DecoderBlock(space, f"{name}.block{i + 1}", cfg, d_audio)
            for i in range(cfg.n_blocks)
        ]
        self.cls = Linear(space, f"{name}.cls", d, cfg.vocab_size)
        self.pe = ops.positional_encoding(cfg.max_len, d, dtype=get_default_dtype())

    def forward(self, tokens: np.ndarray, z: Tensor,
                cross_mask: np.ndarray | None = None,
                training: bool = False, rng: RngState | None = None) -> Tensor:
        """Logits for every position of the (already input-shifted) tokens.

        tokens: int array (L,) or (B, L); z: (T, d_audio) or (B, T, d_audio).
        Position i only attends to positions <= i of itself, so its logits
        are independent of later tokens.
        """
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None]
            if z.ndim == 2:
                z = ops.reshape(z, (1, *z.shape))
        if tokens.ndim != 2:
            raise DimensionError(f"tokens must be (L,) or (B, L), got {tokens.shape}")
        b, length = tokens.shape
        if length > self.cfg.max_len:
            raise UsageError(
                f"sequence length {length} exceeds positional horizon {self.cfg.max_len}"
            )
        emb = ops.embedding(tokens, self.emb_weight, self.emb_bias)
        emb = ops.scale(emb, math.sqrt(self.cfg.d_model))
        x = ops.add_const(emb, self.pe[:length])
        x = ops.dropout(x, self.cfg.dropout, training, rng)
        self_mask = ops.causal_mask(length, dtype=x.dtype)
        for block in self.blocks:
            x = block(x, z, self_mask, cross_mask, training, rng)
        logits = self.cls(x)
        return ops.reshape(logits, logits.shape[1:]) if squeeze else logits
