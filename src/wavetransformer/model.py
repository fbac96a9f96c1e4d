"""Full captioning model: encoder, decoder, and their shared state.

The model owns the ParameterStore and the batch-norm buffer dict.  Every
value in them comes from one ModelSpace: drawn from the seed, so two
models built from the same seed and configs are bit-identical, or taken
from a checkpoint's stored arrays, with no random draw.  Parameter names
are fixed (`encoder.temp.block1.t1.*`, `decoder.block2.cross_attn.q.*`,
...) to keep checkpoints stable.
"""
from __future__ import annotations

import numpy as np

from .decoder import DecodeState, Decoder, DecoderConfig
from .encoder import Encoder, EncoderConfig
from .errors import DecodeError
from .layers import ModelSpace
from .tensor import ParameterStore, RngState, Tensor
from .tensor import ops
from .text import PAD, RESERVED, SOS

# Vocabulary pins the reserved tokens to its first indices; these two are
# never a caption word, so decoding may not emit them
NEVER_EMITTED = [RESERVED.index(SOS), RESERVED.index(PAD)]


class CaptionModel:
    def __init__(self, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig, seed: int = 0,
                 stored: dict[str, np.ndarray] | None = None):
        """Values drawn from `seed`, or copied from `stored` (a checkpoint's
        parameters and buffers, names and shapes exactly the model's)."""
        self.enc_cfg = enc_cfg
        self.dec_cfg = dec_cfg
        self.params = ParameterStore()
        self.buffers: dict[str, np.ndarray] = {}
        space = ModelSpace(self.params, self.buffers, RngState(seed), stored)
        self.encoder = Encoder(space, enc_cfg)
        self.decoder = Decoder(space, dec_cfg, d_audio=enc_cfg.channels)
        space.finish()

    # ----- forward ---------------------------------------------------------

    def encode(self, features, training: bool = False, rng: RngState | None = None) -> Tensor:
        feats = features if isinstance(features, Tensor) else Tensor(features)
        return self.encoder.encode(feats, training, rng)

    def forward(
        self,
        features,
        tokens_in: np.ndarray,
        feature_lengths=None,
        training: bool = False,
        rng: RngState | None = None,
    ) -> Tensor:
        """Teacher-forced logits: (B, L, W) for batched input, (L, W) single.

        `feature_lengths` masks padded audio frames out of cross-attention.
        """
        z = self.encode(features, training, rng)
        cross_mask = None
        if feature_lengths is not None:
            t_max = z.shape[-2]
            cross_mask = ops.key_padding_mask(feature_lengths, t_max, dtype=z.dtype)
        return self.decoder.forward(tokens_in, z, cross_mask, training, rng)

    # ----- decoding --------------------------------------------------------

    def begin(self, z: Tensor) -> DecodeState:
        """Decoding state of one encoded clip z (T, d_audio), one row."""
        return self.decoder.begin(z)

    def next_logprobs(self, state: DecodeState, tokens) -> np.ndarray:
        """Next-token log-probabilities (rows, W) after extending each row of
        `state` by its token (eval mode, no tape).

        `<sos>` and `<pad>` get probability 0 (log-probability -inf).  NaN
        log-probabilities (from non-finite parameters or features) raise
        `DecodeError` naming the decode position, where `<sos>` is 0.
        """
        logits = self.decoder.step(state, tokens).data
        logits[:, NEVER_EMITTED] = -np.inf
        logprobs = ops.log_softmax(Tensor(logits), axis=-1).data
        bad = np.flatnonzero(np.isnan(logprobs).any(axis=1))
        if bad.size:
            raise DecodeError(f"NaN log-probabilities at decode position {state.length} "
                              f"(rows {bad.tolist()}): are the parameters and features finite?")
        return logprobs

    # ----- state -----------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus batch-norm buffers, lexicographic by name."""
        out = {name: t.data for name, t in self.params.items()}
        for name in sorted(self.buffers):
            out[name] = self.buffers[name]
        return out
